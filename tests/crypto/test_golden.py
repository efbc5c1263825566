"""Byte-identity of signatures, recovered keys and addresses, pinned forever.

Forty seeded keys and messages go through sign, recover, verify and
address derivation; every output byte is folded into one SHA-256 digest
(stdlib, so a change to the program's own hashes cannot move the check).
The digest was generated before any speed-up of :mod:`repro.crypto`, so
an optimisation that changes one signature, nonce, recovered key or
address fails here.
"""

import hashlib
import random

from repro.crypto.ecdsa import recover_public_key, sign_hash, verify_hash
from repro.crypto.keccak import keccak256
from repro.crypto.keys import PrivateKey, recover_address
from repro.crypto.secp256k1 import N

GOLDEN_DIGEST = "c67ed88076855473330489fa75326b0c2903398cb87aff747e694571817678d7"
CASES = 40


def _cases():
    rng = random.Random(2021)
    for index in range(CASES):
        if index % 2:
            key = PrivateKey(rng.randrange(1, N))
        else:
            key = PrivateKey.from_seed(f"golden-{index}")
        message = rng.randbytes(rng.randrange(0, 300))
        yield key, message


def _transcript() -> str:
    digest = hashlib.sha256()
    for key, message in _cases():
        signature = key.sign(message)
        message_hash = keccak256(message)
        recovered = recover_public_key(message_hash, signature)
        raw = sign_hash(key.secret, hashlib.sha256(message).digest())
        outputs = (
            key.public_key.encode(),
            key.public_key.encode(compressed=True),
            key.address.value,
            signature.to_bytes(),
            recovered.encode(),
            recover_address(message, signature).value,
            bytes([key.public_key.verify(message, signature)]),
            bytes([verify_hash(key.public_key.point, keccak256(message + b"!"), signature)]),
            raw.to_bytes(),
        )
        for output in outputs:
            digest.update(len(output).to_bytes(2, "big") + output)
    return digest.hexdigest()


def test_forty_seeded_outputs_match_the_pinned_digest():
    assert _transcript() == GOLDEN_DIGEST
