"""Pluggable message-signing schemes.

Every Blockumulus message is signed.  The reproduction supports two signer
implementations with identical wire formats (a 20-byte address identity and
a 65-byte signature):

* :class:`EcdsaSigner` — real secp256k1 ECDSA over Keccak-256, exactly what
  the paper's implementation uses.  This is the default for functional
  tests, the Table II byte accounting, and the security scenarios.
* :class:`SimulatedSigner` — a keyed-MAC stand-in used by the large burst
  benchmarks (5,000–20,000 transactions, Figures 9/10), where producing and
  verifying hundreds of thousands of real ECDSA signatures in pure Python
  would dominate wall-clock time without changing any measured quantity:
  the *simulated* CPU cost of verification is modelled separately in
  :class:`repro.sim.CellServiceModel`, and the byte size on the wire is the
  same 65 bytes.  Verification still fails for tampered payloads or wrong
  senders, so protocol-level authenticity checks remain meaningful.

The two schemes are compared in docs/ARCHITECTURE.md (section
"Signature schemes").
"""

from __future__ import annotations

from typing import Protocol

from ..crypto.ecdsa import Signature, SignatureError
from ..crypto.hashing import fast_hash
from ..crypto.keys import Address, PrivateKey, recover_address


class Signer(Protocol):
    """Anything that can sign message bytes on behalf of an address."""

    @property
    def address(self) -> Address:
        """The identity this signer signs for."""
        ...

    @property
    def scheme(self) -> str:
        """Wire-format scheme tag ('ecdsa' or 'sim')."""
        ...

    def sign(self, message: bytes) -> bytes:
        """Produce a 65-byte signature over ``message``."""
        ...


class EcdsaSigner:
    """Real ECDSA signing with a :class:`PrivateKey`."""

    scheme = "ecdsa"

    def __init__(self, key: PrivateKey) -> None:
        self.key = key

    @property
    def address(self) -> Address:
        """The 20-byte address derived from the signing key."""
        return self.key.address

    def sign(self, message: bytes) -> bytes:
        """Produce a 65-byte recoverable ECDSA signature over ``message``."""
        return self.key.sign(message).to_bytes()

    @classmethod
    def from_seed(cls, seed: str | bytes | int) -> "EcdsaSigner":
        """Deterministic signer for tests and reproducible experiments."""
        return cls(PrivateKey.from_seed(seed))


class SimulatedSigner:
    """Fast keyed-MAC signer with the same wire footprint as ECDSA.

    The "signature" is ``H(secret || message) || H(message || secret) ||
    0x00`` (65 bytes, H = BLAKE2b-256).  A process-wide registry maps
    addresses to their verification secrets, standing in for public-key
    recovery; this is purely a simulation-speed device and is never used
    where cryptographic soundness is being evaluated.
    """

    scheme = "sim"

    #: address-hex -> secret registry used for verification.
    _registry: dict[str, bytes] = {}

    def __init__(self, seed: str | bytes | int) -> None:
        if isinstance(seed, int):
            seed = str(seed)
        if isinstance(seed, str):
            seed = seed.encode()
        self._secret = fast_hash(b"sim-signer/" + seed)
        self._address = Address(fast_hash(b"sim-address/" + self._secret)[-20:])
        self._registry[self._address.hex()] = self._secret

    @property
    def address(self) -> Address:
        """The 20-byte simulated identity derived from the seed."""
        return self._address

    def sign(self, message: bytes) -> bytes:
        """Produce the 65-byte keyed-MAC stand-in signature."""
        first = fast_hash(self._secret + message)
        second = fast_hash(message + self._secret)
        return first + second + b"\x00"

    @classmethod
    def verify(cls, address: Address, message: bytes, signature: bytes) -> bool:
        """Check a simulated signature against the registry."""
        secret = cls._registry.get(address.hex())
        if secret is None or len(signature) != 65:
            return False
        expected = fast_hash(secret + message) + fast_hash(message + secret) + b"\x00"
        return signature == expected

    @classmethod
    def clear_registry(cls) -> None:
        """Drop all registered simulated identities (test isolation)."""
        cls._registry.clear()


def verify_signature(scheme: str, address: Address, message: bytes, signature: bytes) -> bool:
    """Verify a signature under either scheme.

    For ECDSA the sender address must match the address recovered from the
    signature; for the simulated scheme the keyed MAC must match.
    """
    if scheme == EcdsaSigner.scheme:
        try:
            recovered = recover_address(message, Signature.from_bytes(signature))
        except (SignatureError, ValueError):
            return False
        return recovered == address
    if scheme == SimulatedSigner.scheme:
        return SimulatedSigner.verify(address, message, signature)
    return False
