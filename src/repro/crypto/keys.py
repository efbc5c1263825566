"""Key pairs and Ethereum-style addresses.

Cells, clients, and auditors are all identified by the 160-bit Ethereum
address derived from their secp256k1 public key (the low 20 bytes of the
Keccak-256 hash of the uncompressed public key), exactly as described in
Section III-C3 of the paper.
"""

from __future__ import annotations

import secrets  # lint: disable=DET001 — entropy is quarantined in PrivateKey.generate below
from dataclasses import dataclass
from functools import lru_cache

from .ecdsa import Signature, recover_public_key, sign_hash, sign_message, verify_message
from .keccak import keccak256
from .secp256k1 import GENERATOR, N, Point, decode_point, scalar_multiply


class AddressError(ValueError):
    """Raised for malformed addresses."""


@dataclass(frozen=True, order=True)
class Address:
    """A 20-byte account address, printed as 0x-prefixed hex."""

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != 20:
            raise AddressError("an address is exactly 20 bytes")

    @classmethod
    def from_hex(cls, text: str) -> "Address":
        """Parse a 0x-prefixed (or bare) 40-character hex address."""
        if text.startswith("0x") or text.startswith("0X"):
            text = text[2:]
        if len(text) != 40:
            raise AddressError(f"expected 40 hex characters, got {len(text)}")
        return cls(bytes.fromhex(text))

    @classmethod
    def from_public_key(cls, public_key: Point) -> "Address":
        """Derive the address as the low 20 bytes of keccak256(pubkey)."""
        return cls(keccak256(public_key.encode())[-20:])

    @classmethod
    def zero(cls) -> "Address":
        """The all-zero address, used as the contract-creation sentinel."""
        return cls(b"\x00" * 20)

    def hex(self) -> str:
        """Return the canonical 0x-prefixed lowercase hex form."""
        return "0x" + self.value.hex()

    def short(self) -> str:
        """Return an abbreviated form for logs: 0xabcd..ef01."""
        full = self.value.hex()
        return f"0x{full[:4]}..{full[-4:]}"

    def __str__(self) -> str:
        return self.hex()

    def __repr__(self) -> str:
        return f"Address({self.hex()!r})"


@dataclass(frozen=True)
class PublicKey:
    """A secp256k1 public key with helpers for verification and addressing."""

    point: Point

    def address(self) -> Address:
        """Derive the Ethereum-style address of this key."""
        return Address.from_public_key(self.point)

    def encode(self, compressed: bool = False) -> bytes:
        """Serialize the underlying point."""
        return self.point.encode(compressed=compressed)

    @classmethod
    def decode(cls, data: bytes) -> "PublicKey":
        """Parse a SEC1-encoded public key."""
        return cls(decode_point(data))

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Verify an ECDSA signature over keccak256(message)."""
        return verify_message(self.point, message, signature)


class PrivateKey:
    """A secp256k1 private key.

    The secret scalar is kept on a private attribute; the public key and
    address are computed on first access and kept on the instance, because
    a signer reads its address for every message it sends.
    """

    def __init__(self, secret: int) -> None:
        if not (1 <= secret < N):
            raise ValueError("private key scalar out of range")
        self._secret = secret
        self._public: PublicKey | None = None
        self._address: Address | None = None

    @classmethod
    def generate(cls) -> "PrivateKey":
        """Generate a key from the OS entropy pool (non-deterministic)."""
        # lint: disable=DET002 — real key generation wants real entropy; experiments use from_seed
        return cls(secrets.randbelow(N - 1) + 1)

    @classmethod
    def from_seed(cls, seed: bytes | str | int) -> "PrivateKey":
        """Derive a key deterministically from a seed.

        Workload generators use this so that every experiment run signs with
        the same keys, making byte counts and traces reproducible.
        """
        if isinstance(seed, int):
            seed = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big")
        elif isinstance(seed, str):
            seed = seed.encode()
        scalar = int.from_bytes(keccak256(seed), "big") % (N - 1) + 1
        return cls(scalar)

    @classmethod
    def from_hex(cls, text: str) -> "PrivateKey":
        """Parse a 32-byte hex-encoded private key."""
        if text.startswith("0x") or text.startswith("0X"):
            text = text[2:]
        return cls(int(text, 16))

    def to_hex(self) -> str:
        """Serialize the secret scalar as 0x-prefixed hex (use with care)."""
        return "0x" + self._secret.to_bytes(32, "big").hex()

    @property
    def secret(self) -> int:
        """The raw secret scalar."""
        return self._secret

    @property
    def public_key(self) -> PublicKey:
        """The corresponding public key."""
        if self._public is None:
            self._public = self._public_key()
        return self._public

    # hostbench/workloads.py resets process-global caches between units and
    # calls ``_public_key.cache_clear()``, so this stays an lru_cache method.
    @lru_cache(maxsize=1)
    def _public_key(self) -> PublicKey:
        return PublicKey(scalar_multiply(self._secret, GENERATOR))

    @property
    def address(self) -> Address:
        """The Ethereum-style address of this key."""
        if self._address is None:
            self._address = self.public_key.address()
        return self._address

    def sign(self, message: bytes) -> Signature:
        """Sign keccak256(message)."""
        return sign_message(self._secret, message)

    def sign_hash(self, message_hash: bytes) -> Signature:
        """Sign an already-computed 32-byte hash."""
        return sign_hash(self._secret, message_hash)

    def __repr__(self) -> str:
        return f"PrivateKey(address={self.address.hex()})"


def recover_address(message: bytes, signature: Signature) -> Address:
    """Recover the signer's address from a message and signature.

    This is how a Blockumulus cell authenticates a transaction: the sender
    field of the payload must equal the address recovered from the signature.
    """
    public = recover_public_key(keccak256(message), signature)
    return Address.from_public_key(public)
