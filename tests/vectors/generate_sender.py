"""Regenerate ``tests/vectors/sender.json``, the warm-sender vectors.

Run from the repository root::

    PYTHONPATH=src python tests/vectors/generate_sender.py

The vectors pin what the sender's warm path (§5.1, "precomputation")
computes on toy64 (families A and B) and ss512 (family A).  From a
seeded RNG each set records:

* the server public key and two receiver public keys;
* for each receiver and each of three labels, the bytes of the cached
  ``g_{R,T} = ê(asG, H1(T))`` that
  ``TimedReleaseScheme.precompute_sender(time_labels=...)`` stores;
* seeded ciphertexts from ``TimedReleaseScheme.encrypt``,
  ``HybridTimedReleaseScheme.encrypt`` (one per receiver and label)
  and ``BroadcastTimedReleaseScheme.encrypt_broadcast`` (one per label
  to both receivers).

Each ciphertext list is produced twice from the same RNG seed, once on
a sender warmed for every label and once on a cold one, and the two
must agree byte for byte: the warm path changes only the cost.  The
vectors were generated once and committed; ``test_sender_vectors.py``
replays both paths on every available backend.  Regenerate only when a
change is *meant* to move these bytes, and say so in the commit.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from repro.core.broadcast import BroadcastTimedReleaseScheme
from repro.core.hybrid_tre import HybridTimedReleaseScheme
from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.tre import H1_TAG, TimedReleaseScheme
from repro.pairing.api import PairingGroup

OUT = pathlib.Path(__file__).with_name("sender.json")

SETS = [("toy64", "A"), ("toy64", "B"), ("ss512", "A")]
LABELS = [
    b"repro:sender-vectors:T0",
    b"repro:sender-vectors:T1",
    b"repro:sender-vectors:T2",
]
RECEIVERS = 2
SCHEMES = {
    "tre": TimedReleaseScheme,
    "hybrid": HybridTimedReleaseScheme,
    "broadcast": BroadcastTimedReleaseScheme,
}


def set_seed(params: str, family: str) -> int:
    digest = hashlib.sha256(f"repro:sender-vectors:{params}:{family}".encode())
    return int.from_bytes(digest.digest()[:8], "big")


def message(index: int) -> bytes:
    """The fixed plaintext of ciphertext ``index``."""
    return f"repro sender vector message {index}".encode() + bytes(range(index * 3))


def keys(group: PairingGroup, seed: int):
    """Seeded ``(server, [user, ...])`` key pairs."""
    rng = random.Random(seed)
    server = ServerKeyPair.generate(group, rng)
    users = [
        UserKeyPair.generate(group, server.public, rng) for _ in range(RECEIVERS)
    ]
    return server, users


def sender_labels(group: PairingGroup, users) -> list[list[str]]:
    """The ``g_{R,T}`` bytes cached on ``group``, one row per receiver."""
    return [
        [
            group.cached_pair_h1(user.public.as_generator, label).to_bytes().hex()
            for label in LABELS
        ]
        for user in users
    ]


def encrypt_all(group: PairingGroup, name: str, server, users, seed: int,
                warm: bool) -> list[str]:
    """Seeded ciphertexts of scheme ``name``, hex-encoded, in order.

    The group's warm state is cleared first, and ``warm`` then warms
    every receiver and label on it; the RNG seed, and so every ``r``,
    is the same either way.
    """
    group.clear_precomputations()
    scheme = SCHEMES[name](group)
    publics = [user.public for user in users]
    if warm:
        for public in publics:
            TimedReleaseScheme(group).precompute_sender(
                public, server.public, time_labels=LABELS
            )
    rng = random.Random(seed + 1)
    ciphertexts = []
    for label_index, label in enumerate(LABELS):
        if name == "broadcast":
            ciphertexts.append(scheme.encrypt_broadcast(
                message(label_index), publics, server.public, label, rng,
                verify_receiver_keys=False,
            ))
            continue
        for user_index, public in enumerate(publics):
            ciphertexts.append(scheme.encrypt(
                message(label_index * RECEIVERS + user_index), public,
                server.public, label, rng, verify_receiver_key=False,
            ))
    return [ciphertext.to_bytes(group).hex() for ciphertext in ciphertexts]


def build_set(params: str, family: str) -> dict:
    group = PairingGroup(params, family=family, backend="python")
    seed = set_seed(params, family)
    server, users = keys(group, seed)
    scheme = TimedReleaseScheme(group)
    for user in users:
        scheme.precompute_sender(user.public, server.public, time_labels=LABELS)
    labels = sender_labels(group, users)
    for user, row in zip(users, labels):
        for label, blob in zip(LABELS, row):
            expected = group.pair(
                user.public.as_generator, group.hash_to_g1(label, tag=H1_TAG)
            )
            assert expected.to_bytes().hex() == blob
    ciphertexts = {}
    for name in SCHEMES:
        warm = encrypt_all(group, name, server, users, seed, warm=True)
        cold = encrypt_all(group, name, server, users, seed, warm=False)
        assert warm == cold, name
        ciphertexts[name] = warm
    return {
        "params": params,
        "family": family,
        "seed": seed,
        "server_public": server.public.to_bytes(group).hex(),
        "user_publics": [user.public.to_bytes(group).hex() for user in users],
        "sender_labels": labels,
        "ciphertexts": ciphertexts,
    }


def main() -> None:
    doc = {
        "description": (
            "Warm-sender known-answer vectors; see "
            "tests/vectors/generate_sender.py"
        ),
        "labels": [label.hex() for label in LABELS],
        "receivers": RECEIVERS,
        "sets": [build_set(params, family) for params, family in SETS],
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
