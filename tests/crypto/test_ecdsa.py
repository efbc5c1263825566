"""Deterministic ECDSA signing, verification, and recovery."""

import pytest

from repro.crypto.ecdsa import (
    N,
    Signature,
    SignatureError,
    recover_public_key,
    sign_hash,
    sign_message,
    verify_hash,
    verify_message,
)
from repro.crypto.keccak import keccak256
from repro.crypto.keys import PrivateKey

KEY = PrivateKey.from_seed("ecdsa-tests")
MESSAGE = b"blockumulus transaction payload"


def test_sign_and_verify_message():
    signature = sign_message(KEY.secret, MESSAGE)
    assert verify_message(KEY.public_key.point, MESSAGE, signature)


def test_signature_is_deterministic():
    assert sign_message(KEY.secret, MESSAGE) == sign_message(KEY.secret, MESSAGE)


def test_different_messages_different_signatures():
    assert sign_message(KEY.secret, b"a") != sign_message(KEY.secret, b"b")


def test_verify_rejects_tampered_message():
    signature = sign_message(KEY.secret, MESSAGE)
    assert not verify_message(KEY.public_key.point, MESSAGE + b"!", signature)


def test_verify_rejects_wrong_key():
    other = PrivateKey.from_seed("someone-else")
    signature = sign_message(KEY.secret, MESSAGE)
    assert not verify_message(other.public_key.point, MESSAGE, signature)


def test_low_s_normalization():
    signature = sign_message(KEY.secret, MESSAGE)
    assert signature.s <= N // 2


def test_recover_public_key():
    message_hash = keccak256(MESSAGE)
    signature = sign_hash(KEY.secret, message_hash)
    recovered = recover_public_key(message_hash, signature)
    assert recovered == KEY.public_key.point


def test_recovery_of_tampered_input_yields_different_signer():
    message_hash = keccak256(MESSAGE)
    signature = sign_hash(KEY.secret, message_hash)
    corrupted = Signature(r=signature.r, s=(signature.s + 1) % N or 1, v=signature.v)
    try:
        recovered = recover_public_key(keccak256(b"different"), corrupted)
    except SignatureError:
        return  # rejecting outright is also acceptable
    assert recovered != KEY.public_key.point


def test_signature_serialization_roundtrip():
    signature = sign_message(KEY.secret, MESSAGE)
    assert Signature.from_bytes(signature.to_bytes()) == signature
    assert Signature.from_hex(signature.to_hex()) == signature


def test_signature_bytes_length():
    assert len(sign_message(KEY.secret, MESSAGE).to_bytes()) == 65


def test_signature_rejects_out_of_range_components():
    with pytest.raises(SignatureError):
        Signature(r=0, s=1, v=0)
    with pytest.raises(SignatureError):
        Signature(r=1, s=N, v=0)
    with pytest.raises(SignatureError):
        Signature(r=1, s=1, v=5)


def test_sign_hash_requires_32_bytes():
    with pytest.raises(SignatureError):
        sign_hash(KEY.secret, b"short")
    with pytest.raises(SignatureError):
        verify_hash(KEY.public_key.point, b"short", sign_message(KEY.secret, MESSAGE))


def test_many_keys_roundtrip():
    for index in range(5):
        key = PrivateKey.from_seed(f"key-{index}")
        signature = sign_message(key.secret, MESSAGE)
        assert verify_message(key.public_key.point, MESSAGE, signature)
        assert recover_public_key(keccak256(MESSAGE), signature) == key.public_key.point


# --- Forged and invalid signatures -----------------------------------------


def _forgeries():
    signature = sign_message(KEY.secret, MESSAGE)
    r, s, v = signature.r, signature.s, signature.v
    return {
        "high-s": (r, N - s, v),
        "wrong-v": (r, s, v ^ 1),
        "r-not-below-N": (N + 1, s, v),
        "s-zero": (r, 0, v),
        "v-out-of-range": (r, s, 27),
    }


@pytest.mark.parametrize("name", sorted(_forgeries()))
def test_forged_signature_fails_verify_signature(name):
    from repro.messages.signer import verify_signature

    r, s, v = _forgeries()[name]
    wire = r.to_bytes(33, "big")[-32:] + s.to_bytes(32, "big") + bytes([v])
    assert not verify_signature("ecdsa", KEY.address, MESSAGE, wire)


@pytest.mark.parametrize("name", ["high-s", "wrong-v"])
def test_forged_signature_does_not_recover_the_signer(name):
    # Plain verification ignores v, so (r, N - s) still verifies against the
    # key; cells authenticate by recovery, which these forgeries defeat.
    r, s, v = _forgeries()[name]
    try:
        recovered = recover_public_key(keccak256(MESSAGE), Signature(r=r, s=s, v=v))
    except SignatureError:
        return
    assert recovered != KEY.public_key.point


@pytest.mark.parametrize("name", ["r-not-below-N", "s-zero", "v-out-of-range"])
def test_out_of_range_signature_is_rejected(name):
    r, s, v = _forgeries()[name]
    with pytest.raises(SignatureError):
        Signature(r=r, s=s, v=v)


def test_recovery_rejects_r_that_is_no_curve_x_coordinate():
    # x = 5 gives x^3 + 7 = 132, a non-residue mod P, so no point R exists.
    with pytest.raises(ValueError):
        recover_public_key(keccak256(MESSAGE), Signature(r=5, s=1, v=0))
