"""Regenerate ``tests/vectors/tre.json``, the TRE known-answer vectors.

Run from the repository root::

    PYTHONPATH=src python tests/vectors/generate_tre.py

The vectors pin the bytes of the paper's §5.1 scheme on toy64
(families A and B) and ss512 (family A; its family-B pairings take
seconds each and move no byte this set does not already pin).  From a
seeded RNG each set records:

* the server and receiver public keys;
* the BLS update bytes ``I_T = s·H1(T)`` for two labels;
* three ``TimedReleaseScheme.encrypt`` ciphertexts under the first
  label and four under the second (for ``decrypt_batch``), all from one
  scheme on one group and each with ``verify_receiver_key=True``, so the
  receiver-key check runs seven times against one server key;
* the receiver's ``K' = ê(U, I_T)^a`` GT bytes for all seven.

Every plaintext is fixed (``message(index)``), so the decrypt and
``decrypt_batch`` replays compare against it.  The vectors were
generated once and committed; ``test_tre_vectors.py`` replays them on
every available backend.  Regenerate only when a change is *meant* to
move these bytes, and say so in the commit.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.timeserver import PassiveTimeServer
from repro.core.tre import TimedReleaseScheme
from repro.pairing.api import PairingGroup

OUT = pathlib.Path(__file__).with_name("tre.json")

SETS = [("toy64", "A"), ("toy64", "B"), ("ss512", "A")]
LABELS = [b"repro:tre-vectors:T0", b"repro:tre-vectors:T1"]
SINGLES = 3
BATCH = 4


def set_seed(params: str, family: str) -> int:
    digest = hashlib.sha256(f"repro:tre-vectors:{params}:{family}".encode())
    return int.from_bytes(digest.digest()[:8], "big")


def message(index: int) -> bytes:
    """The fixed plaintext of ciphertext ``index``."""
    return f"repro tre vector message {index}".encode() + bytes(range(index * 5))


def keys(group: PairingGroup, seed: int):
    """Seeded ``(server, user)`` key pairs."""
    rng = random.Random(seed)
    server = ServerKeyPair.generate(group, rng)
    user = UserKeyPair.generate(group, server.public, rng)
    return server, user


def encrypt_all(group: PairingGroup, server, user, seed: int) -> list:
    """The seven seeded ciphertexts, in order, from one scheme on ``group``.

    The first ``SINGLES`` are under ``LABELS[0]``, the next ``BATCH``
    under ``LABELS[1]``; every one runs the receiver-key check.
    """
    scheme = TimedReleaseScheme(group)
    rng = random.Random(seed + 1)
    ciphertexts = []
    for index in range(SINGLES + BATCH):
        label = LABELS[0] if index < SINGLES else LABELS[1]
        ciphertexts.append(scheme.encrypt(
            message(index), user.public, server.public, label, rng,
            verify_receiver_key=True,
        ))
    return ciphertexts


def build_set(params: str, family: str) -> dict:
    group = PairingGroup(params, family=family, backend="python")
    seed = set_seed(params, family)
    server, user = keys(group, seed)
    time_server = PassiveTimeServer(group, keypair=server)
    updates = [time_server.issue_update(label) for label in LABELS]
    ciphertexts = encrypt_all(group, server, user, seed)
    scheme = TimedReleaseScheme(group)
    receiver_keys = []
    for index, ciphertext in enumerate(ciphertexts):
        update = updates[0] if index < SINGLES else updates[1]
        k = scheme._receiver_key(ciphertext.u_point, user.private, update.point)
        receiver_keys.append(k.to_bytes().hex())
    return {
        "params": params,
        "family": family,
        "seed": seed,
        "server_public": server.public.to_bytes(group).hex(),
        "user_public": user.public.to_bytes(group).hex(),
        "updates": [update.to_bytes(group).hex() for update in updates],
        "ciphertexts": [ct.to_bytes(group).hex() for ct in ciphertexts],
        "receiver_keys": receiver_keys,
    }


def main() -> None:
    doc = {
        "description": (
            "TRE known-answer vectors; see tests/vectors/generate_tre.py"
        ),
        "labels": [label.hex() for label in LABELS],
        "singles": SINGLES,
        "batch": BATCH,
        "sets": [build_set(params, family) for params, family in SETS],
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
