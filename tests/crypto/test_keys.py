"""Key pairs and Ethereum-style addresses."""

import pytest

from repro.crypto.keys import Address, AddressError, PrivateKey, PublicKey, recover_address


def test_address_from_seed_is_deterministic():
    assert PrivateKey.from_seed("alice").address == PrivateKey.from_seed("alice").address


def test_distinct_seeds_distinct_addresses():
    assert PrivateKey.from_seed("alice").address != PrivateKey.from_seed("bob").address


def test_address_is_20_bytes_of_pubkey_hash():
    key = PrivateKey.from_seed("addr")
    from repro.crypto.keccak import keccak256

    expected = keccak256(key.public_key.encode())[-20:]
    assert key.address.value == expected


def test_address_hex_roundtrip():
    address = PrivateKey.from_seed("hex").address
    assert Address.from_hex(address.hex()) == address
    assert address.hex().startswith("0x") and len(address.hex()) == 42


def test_address_short_form():
    address = PrivateKey.from_seed("short").address
    short = address.short()
    assert short.startswith("0x") and ".." in short and len(short) < len(address.hex())


def test_address_rejects_bad_lengths():
    with pytest.raises(AddressError):
        Address(b"\x01" * 19)
    with pytest.raises(AddressError):
        Address.from_hex("0x1234")


def test_zero_address():
    assert Address.zero().value == b"\x00" * 20


def test_private_key_hex_roundtrip():
    key = PrivateKey.from_seed("roundtrip")
    assert PrivateKey.from_hex(key.to_hex()).address == key.address


def test_private_key_range_validation():
    with pytest.raises(ValueError):
        PrivateKey(0)


def test_public_key_encode_decode():
    key = PrivateKey.from_seed("pub")
    encoded = key.public_key.encode()
    assert PublicKey.decode(encoded).address() == key.address


def test_sign_and_recover_address():
    key = PrivateKey.from_seed("signer")
    signature = key.sign(b"message body")
    assert recover_address(b"message body", signature) == key.address


def test_recover_address_differs_for_tampered_message():
    key = PrivateKey.from_seed("signer")
    signature = key.sign(b"message body")
    try:
        recovered = recover_address(b"tampered body", signature)
    except Exception:
        return
    assert recovered != key.address


def test_public_key_verify():
    key = PrivateKey.from_seed("verify")
    signature = key.sign(b"hello")
    assert key.public_key.verify(b"hello", signature)
    assert not key.public_key.verify(b"hello!", signature)


def test_addresses_are_orderable_and_hashable():
    addresses = {PrivateKey.from_seed(str(i)).address for i in range(10)}
    assert len(addresses) == 10
    assert sorted(addresses)


def test_interleaved_keys_derive_their_public_key_and_address_once(monkeypatch):
    import repro.crypto.keys as keys

    calls = {"scalar_multiply": 0, "keccak256": 0}

    def counting(name):
        real = getattr(keys, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(keys, name, counting(name))
    first, second = PrivateKey(0x1111), PrivateKey(0x2222)
    signatures = []
    for _ in range(3):
        for key in (first, second):
            signatures.append((key.address, key.sign(b"interleaved")))
            assert key.public_key.verify(b"interleaved", signatures[-1][1])
    # One public-key multiplication and one address hash per key.
    assert calls == {"scalar_multiply": 2, "keccak256": 2}
    monkeypatch.undo()
    for address, signature in signatures:
        assert recover_address(b"interleaved", signature) == address


def test_public_key_cache_clear_is_kept():
    PrivateKey._public_key.cache_clear()
    key = PrivateKey.from_seed("cache-clear")
    address = key.address
    PrivateKey._public_key.cache_clear()
    assert key.address == address
