"""Keccak-256 against published test vectors and API behaviour."""

import random

import pytest

from repro.crypto.keccak import Keccak256, keccak256, keccak256_hex

# Known Keccak-256 (pre-SHA3 padding) vectors.
VECTORS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"testing": "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02",
    b"The quick brown fox jumps over the lazy dog":
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
}


@pytest.mark.parametrize("message,expected", sorted(VECTORS.items()))
def test_known_vectors(message, expected):
    assert keccak256(message).hex() == expected


def test_hex_digest_matches_digest():
    assert keccak256_hex(b"abc") == keccak256(b"abc").hex()


def test_digest_is_32_bytes():
    assert len(keccak256(b"x" * 1000)) == 32


def test_incremental_update_equals_one_shot():
    hasher = Keccak256()
    hasher.update(b"The quick brown fox ")
    hasher.update(b"jumps over the lazy dog")
    assert hasher.hexdigest() == VECTORS[b"The quick brown fox jumps over the lazy dog"]


def test_update_returns_self_for_chaining():
    assert Keccak256().update(b"a").update(b"bc").hexdigest() == VECTORS[b"abc"]


def test_multi_block_input():
    # Exercise more than one sponge block (rate = 136 bytes).
    data = b"a" * 500
    assert keccak256(data) == Keccak256(data).digest()
    incremental = Keccak256()
    for offset in range(0, len(data), 37):
        incremental.update(data[offset:offset + 37])
    assert incremental.digest() == keccak256(data)


def test_digest_does_not_finalize_state():
    hasher = Keccak256(b"ab")
    first = hasher.digest()
    assert hasher.digest() == first
    hasher.update(b"c")
    assert hasher.hexdigest() == VECTORS[b"abc"]


def test_copy_is_independent():
    hasher = Keccak256(b"ab")
    clone = hasher.copy()
    clone.update(b"c")
    hasher.update(b"X")
    assert clone.hexdigest() == VECTORS[b"abc"]
    assert hasher.hexdigest() != clone.hexdigest()


def test_rejects_non_bytes_input():
    with pytest.raises(TypeError):
        Keccak256().update("not-bytes")


def test_distinct_inputs_distinct_digests():
    digests = {keccak256(bytes([i])) for i in range(64)}
    assert len(digests) == 64


# --- Differential checks against a loop-based reference --------------------

_REFERENCE_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)
# Rotation offsets indexed by (x, y) flattened as x + 5 * y.
_REFERENCE_ROTATIONS = (
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
)
_MASK = (1 << 64) - 1


def _rotl(value, shift):
    shift %= 64
    return ((value << shift) | (value >> (64 - shift))) & _MASK if shift else value


def _reference_keccak_f(state):
    """Keccak-f[1600] step by step, with loops over lanes."""
    for round_constant in _REFERENCE_ROUND_CONSTANTS:
        parity = [
            state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20]
            for x in range(5)
        ]
        for x in range(5):
            delta = parity[(x - 1) % 5] ^ _rotl(parity[(x + 1) % 5], 1)
            for y in range(0, 25, 5):
                state[x + y] ^= delta
        rotated = [0] * 25
        for x in range(5):
            for y in range(5):
                rotated[y + 5 * ((2 * x + 3 * y) % 5)] = _rotl(
                    state[x + 5 * y], _REFERENCE_ROTATIONS[x + 5 * y]
                )
        for y in range(0, 25, 5):
            row = rotated[y:y + 5]
            for x in range(5):
                state[x + y] = row[x] ^ ((~row[(x + 1) % 5]) & row[(x + 2) % 5])
        state[0] ^= round_constant


def _reference_keccak256(data):
    padded = bytearray(data) + b"\x01"
    padded += b"\x00" * (-len(padded) % 136)
    padded[-1] |= 0x80
    state = [0] * 25
    for offset in range(0, len(padded), 136):
        for lane in range(17):
            start = offset + 8 * lane
            state[lane] ^= int.from_bytes(padded[start:start + 8], "little")
        _reference_keccak_f(state)
    return b"".join(lane.to_bytes(8, "little") for lane in state[:4])


def test_reference_matches_the_published_vectors():
    for message, expected in VECTORS.items():
        assert _reference_keccak256(message).hex() == expected


@pytest.mark.parametrize("length", [0, 1, 135, 136, 137, 271, 272, 1000])
def test_matches_reference_at_block_boundaries(length):
    data = random.Random(length).randbytes(length)
    assert keccak256(data) == _reference_keccak256(data)
    incremental = Keccak256()
    for offset in range(0, length, 50):
        incremental.update(data[offset:offset + 50])
    assert incremental.digest() == _reference_keccak256(data)
