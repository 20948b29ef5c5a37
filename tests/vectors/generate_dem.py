"""Regenerate ``tests/vectors/dem.json``, the DEM and broadcast vectors.

Run from the repository root::

    PYTHONPATH=src python tests/vectors/generate_dem.py

The vectors pin the bytes of the symmetric layer every hybrid and
broadcast ciphertext goes through — ``keystream``, ``aead_encrypt``
(short lengths plus the SHA-256 of a seeded 1 MiB seal) and
``xor_bytes`` edge cases — and of seeded
``BroadcastCiphertext.to_bytes()`` for cold, warm and mixed recipient
sets on toy64 and ss512, families A and B.  They were generated once
and committed; ``test_dem_vectors.py`` replays them on every available
backend.  Regenerate only when a change is *meant* to move these bytes,
and say so in the commit.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from repro.core.broadcast import BroadcastTimedReleaseScheme
from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.tre import TimedReleaseScheme
from repro.crypto.authenc import aead_encrypt
from repro.crypto.stream import keystream
from repro.encoding import xor_bytes
from repro.pairing.api import PairingGroup

OUT = pathlib.Path(__file__).with_name("dem.json")

SECRET = hashlib.sha256(b"repro:dem-vectors:secret").digest()
NONCE = b"repro-dem-nonce"
AD = b"repro:dem-vectors:ad"
LENGTHS = [0, 1, 31, 32, 33, 1000]
BULK_SEED = 0xD3A1
BULK_BYTES = 1 << 20

XOR_CASES = [
    ("", ""),
    ("00", "00"),
    ("ff", "0f"),
    ("000001", "000002"),
    ("010000", "020000"),
    ("00ff00", "00ff00"),
    ("ffffffffffffffff", "0123456789abcdef"),
    ("00000000000000000001", "00000000000000000000"),
    ("80" + "00" * 32, "00" * 32 + "01"),
]

BROADCAST_SETS = [("toy64", "A"), ("toy64", "B"), ("ss512", "A"), ("ss512", "B")]
BROADCAST_LABEL = b"repro:dem-vectors:T"
BROADCAST_MESSAGE = bytes(range(256)) * 2 + b"broadcast payload"
# (name, recipients, indices warmed with precompute_sender first)
BROADCAST_CASES = [
    ("cold-1", 1, ()),
    ("warm-1", 1, (0,)),
    ("cold-3", 3, ()),
    ("warm-3", 3, (0, 1, 2)),
    ("mixed-3", 3, (1,)),
]


def payload(length: int) -> bytes:
    """The deterministic plaintext used for the short AEAD vectors."""
    return bytes((7 * i + 3) & 0xFF for i in range(length))


def bulk_inputs() -> tuple[bytes, bytes]:
    """``(secret, plaintext)`` of the seeded 1 MiB seal."""
    rng = random.Random(BULK_SEED)
    return rng.randbytes(32), rng.randbytes(BULK_BYTES)


def broadcast_setup(group: PairingGroup, seed: int):
    """Seeded server key pair and three receiver key pairs."""
    rng = random.Random(seed)
    server = ServerKeyPair.generate(group, rng)
    users = [UserKeyPair.generate(group, server.public, rng) for _ in range(3)]
    return server, users


def broadcast_seed(params: str, family: str) -> int:
    digest = hashlib.sha256(f"repro:dem-vectors:{params}:{family}".encode())
    return int.from_bytes(digest.digest()[:8], "big")


def encrypt_case(group, server, users, recipients, warm, case_seed):
    """One seeded broadcast for ``users[:recipients]`` after clearing the
    group's warm state and warming ``warm``."""
    group.clear_precomputations()
    scheme = BroadcastTimedReleaseScheme(group)
    pubs = [user.public for user in users[:recipients]]
    for i in warm:
        TimedReleaseScheme(group).precompute_sender(
            pubs[i], server.public, time_labels=[BROADCAST_LABEL]
        )
    return scheme.encrypt_broadcast(
        BROADCAST_MESSAGE, pubs, server.public, BROADCAST_LABEL,
        random.Random(case_seed), verify_receiver_keys=False,
    )


def build_broadcast_set(params: str, family: str) -> dict:
    group = PairingGroup(params, family=family, backend="python")
    seed = broadcast_seed(params, family)
    server, users = broadcast_setup(group, seed)
    cases = []
    for index, (name, recipients, warm) in enumerate(BROADCAST_CASES):
        case_seed = seed + index
        ct = encrypt_case(group, server, users, recipients, warm, case_seed)
        cases.append({
            "name": name,
            "recipients": recipients,
            "warm": list(warm),
            "rng_seed": case_seed,
            "ciphertext": ct.to_bytes(group).hex(),
        })
    return {
        "params": params,
        "family": family,
        "key_seed": seed,
        "receivers": [group.point_to_bytes(u.public.as_generator).hex() for u in users],
        "cases": cases,
    }


def main() -> None:
    bulk_secret, bulk_plain = bulk_inputs()
    doc = {
        "description": (
            "DEM and broadcast known-answer vectors; see "
            "tests/vectors/generate_dem.py"
        ),
        "secret": SECRET.hex(),
        "nonce": NONCE.hex(),
        "associated_data": AD.hex(),
        "keystream": [
            {"length": n, "pad": keystream(SECRET, NONCE, n).hex()}
            for n in LENGTHS
        ],
        "aead_encrypt": [
            {
                "length": n,
                "sealed": aead_encrypt(SECRET, NONCE, payload(n), AD).hex(),
            }
            for n in LENGTHS
        ],
        "bulk_seal": {
            "seed": BULK_SEED,
            "length": BULK_BYTES,
            "sha256": hashlib.sha256(
                aead_encrypt(bulk_secret, NONCE, bulk_plain, AD)
            ).hexdigest(),
        },
        "xor_bytes": [
            {
                "a": a,
                "b": b,
                "out": xor_bytes(bytes.fromhex(a), bytes.fromhex(b)).hex(),
            }
            for a, b in XOR_CASES
        ],
        "broadcast": {
            "label": BROADCAST_LABEL.hex(),
            "message": BROADCAST_MESSAGE.hex(),
            "sets": [build_broadcast_set(p, f) for p, f in BROADCAST_SETS],
        },
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
