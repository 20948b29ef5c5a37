"""Regenerate ``tests/vectors/bls.json``, the BLS update-check vectors.

Run from the repository root::

    PYTHONPATH=src python tests/vectors/generate_bls.py

A time-bound key update ``I_T = s·H1(T)`` is a BLS signature on ``T``,
and every receiver checks it with ``ê(sG, H1(T)) == ê(G, I_T)``.  These
vectors pin that check's bytes and verdicts on toy64 (families A and B)
and ss512 (family A).  From a seeded RNG each set records:

* the server public key;
* the update bytes for each of ``LABELS``;
* the verdict of every candidate in :func:`candidates`, which are the
  honest update, ``σ + G``, ``2σ``, the next label's update and, on
  family A, ``σ + (0, 0)``, a point on the curve outside the order-``q``
  subgroup.

Only the honest candidates verify.  The vectors were generated once and
committed; ``test_bls_vectors.py`` replays them on every available
backend.  Regenerate only when a change is *meant* to move these bytes
or verdicts, and say so in the commit.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from repro.core.bls import BLSSignatureScheme
from repro.core.keys import ServerKeyPair
from repro.pairing.api import PairingGroup
from repro.pairing.supersingular import FAMILY_A

OUT = pathlib.Path(__file__).with_name("bls.json")

SETS = [("toy64", "A"), ("toy64", "B"), ("ss512", "A")]
LABELS = [f"repro:bls-vectors:T{index}".encode() for index in range(5)]


def set_seed(params: str, family: str) -> int:
    digest = hashlib.sha256(f"repro:bls-vectors:{params}:{family}".encode())
    return int.from_bytes(digest.digest()[:8], "big")


def server_keys(group: PairingGroup, seed: int) -> ServerKeyPair:
    return ServerKeyPair.generate(group, random.Random(seed))


def two_torsion(group: PairingGroup):
    """The family-A point ``(0, 0)``, of order 2."""
    zero = group.ssc.fp(0)
    return group.ssc.curve.point(zero, zero)


def candidates(group: PairingGroup, public, signatures: list) -> list:
    """``(name, label_index, point)`` for every candidate, in order.

    ``signatures[i]`` is the honest update for ``LABELS[i]``; the
    forgeries are derived from it, so the replay needs only the honest
    bytes.
    """
    out = []
    for index, sigma in enumerate(signatures):
        out.append(("honest", index, sigma))
        out.append(("plus_generator", index, sigma + public.generator))
        out.append(("double", index, sigma + sigma))
        out.append(
            ("other_label", index, signatures[(index + 1) % len(signatures)])
        )
        if group.family == FAMILY_A:
            out.append(("plus_two_torsion", index, sigma + two_torsion(group)))
    return out


def build_set(params: str, family: str) -> dict:
    group = PairingGroup(params, family=family, backend="python")
    seed = set_seed(params, family)
    server = server_keys(group, seed)
    bls = BLSSignatureScheme(group)
    signatures = [bls.sign(server, label) for label in LABELS]
    verdicts = [
        [name, index, bls.verify(server.public, LABELS[index], point)]
        for name, index, point in candidates(group, server.public, signatures)
    ]
    return {
        "params": params,
        "family": family,
        "seed": seed,
        "server_public": server.public.to_bytes(group).hex(),
        "updates": [group.point_to_bytes(sigma).hex() for sigma in signatures],
        "verdicts": verdicts,
    }


def main() -> None:
    doc = {
        "description": (
            "BLS update-check vectors; see tests/vectors/generate_bls.py"
        ),
        "labels": [label.hex() for label in LABELS],
        "sets": [build_set(params, family) for params, family in SETS],
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
