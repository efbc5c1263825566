"""Fast hashing for protocol-internal identifiers and fingerprints.

Two hash functions are used in the reproduction:

* **Keccak-256** (:mod:`repro.crypto.keccak`) wherever Ethereum
  compatibility matters: account addresses, transaction and block hashes,
  and the values anchored in the :class:`SnapshotRegistry` contract.
* **BLAKE2b-256** (``hashlib``, this module) for high-volume internal
  hashing: bContract state fingerprints, message ids, and the simulated
  signature scheme.  The paper leaves the fingerprinting hash ``H`` as a
  deployment invariant rather than mandating Keccak, and the pure-Python
  Keccak (about 0.2 ms per 136-byte block under CPython 3.11 on a 2-core
  Intel Xeon VM) is still ~450x slower than the C BLAKE2b on a 64-byte
  input.  That would make the 20,000-transaction stress benchmarks
  wall-clock-bound on hashing rather than on the protocol being measured.
"""

from __future__ import annotations

import hashlib

#: Digest size used throughout (bytes).
DIGEST_SIZE = 32


def fast_hash(data: bytes) -> bytes:
    """BLAKE2b-256 digest of ``data``."""
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


def fast_hash_hex(data: bytes) -> str:
    """0x-prefixed BLAKE2b-256 digest of ``data``."""
    return "0x" + fast_hash(data).hex()


def combine_hashes(*digests: bytes) -> bytes:
    """Hash a concatenation of digests (order-sensitive combiner)."""
    hasher = hashlib.blake2b(digest_size=DIGEST_SIZE)
    for digest in digests:
        hasher.update(digest)
    return hasher.digest()
