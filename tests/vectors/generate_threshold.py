"""Regenerate ``tests/vectors/threshold.json``, the share-check vectors.

Run from the repository root::

    PYTHONPATH=src python tests/vectors/generate_threshold.py

A threshold member's update share ``s_i·H1(T)`` is checked against the
Feldman commitments with ``ê(s_iG, H1(T)) == ê(G, share)``.  These
vectors pin that check's verdicts on toy64 (families A and B) and
ss512 (family A).  From a seeded RNG each set records:

* a 2-of-3 threshold server: its public key and Feldman commitments;
* the honest shares of members 1–3 for each of ``LABELS``;
* for every candidate in :func:`candidates`, the verdict of
  ``verify_share`` and of ``combine`` with an honest partner share,
  plus the combined update's bytes when ``combine`` accepts.

The candidates are the honest shares of members 1–3 for ``LABELS[0]``,
member 1's share plus ``G``, doubled, relabelled (its ``LABELS[1]``
point presented under ``LABELS[0]``) and under member 2's index, the
point at infinity under member 1's index and, on family A, member 1's
share plus ``(0, 0)``, a point on the curve outside the order-``q``
subgroup.  Only the honest candidates pass.  The vectors were generated
once and committed; ``test_threshold_vectors.py`` replays them on every
available backend.  Regenerate only when a change is *meant* to move
these bytes or verdicts, and say so in the commit.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from repro.core.threshold import ThresholdTimeServer, UpdateShare
from repro.errors import UpdateVerificationError
from repro.pairing.api import PairingGroup
from repro.pairing.supersingular import FAMILY_A

OUT = pathlib.Path(__file__).with_name("threshold.json")

SETS = [("toy64", "A"), ("toy64", "B"), ("ss512", "A")]
LABELS = [b"repro:threshold-vectors:T0", b"repro:threshold-vectors:T1"]
MEMBERS = 3
THRESHOLD = 2


def set_seed(params: str, family: str) -> int:
    digest = hashlib.sha256(f"repro:threshold-vectors:{params}:{family}".encode())
    return int.from_bytes(digest.digest()[:8], "big")


def setup(group: PairingGroup, seed: int):
    """The seeded ``(coordinator, members)`` of a 2-of-3 server."""
    return ThresholdTimeServer.setup(
        group, MEMBERS, THRESHOLD, random.Random(seed)
    )


def two_torsion(group: PairingGroup):
    """The family-A point ``(0, 0)``, of order 2."""
    zero = group.ssc.fp(0)
    return group.ssc.curve.point(zero, zero)


def candidates(group: PairingGroup, coordinator, shares: list) -> list:
    """``(name, share)`` for every candidate, in order.

    ``shares[j][i]`` is member ``i + 1``'s honest share for
    ``LABELS[j]``; the forgeries are derived from them, so the replay
    needs only the honest bytes.
    """
    label = LABELS[0]
    first = shares[0][0]
    sigma = first.point
    out = [(f"honest_{share.member_index}", share) for share in shares[0]]
    out += [
        ("plus_generator", UpdateShare(
            1, label, sigma + coordinator.public_key.generator)),
        ("double", UpdateShare(1, label, sigma + sigma)),
        ("relabelled", UpdateShare(1, label, shares[1][0].point)),
        ("wrong_member_index", UpdateShare(2, label, sigma)),
        ("infinity", UpdateShare(1, label, group.identity())),
    ]
    if group.family == FAMILY_A:
        out.append(
            ("plus_two_torsion", UpdateShare(1, label, sigma + two_torsion(group)))
        )
    return out


def partner(shares: list, candidate: UpdateShare) -> UpdateShare:
    """An honest ``LABELS[0]`` share of a member other than the candidate's."""
    return next(
        share for share in shares[0]
        if share.member_index != candidate.member_index
    )


def combined(group: PairingGroup, coordinator, shares, candidate) -> str | None:
    """The hex of ``combine([candidate, partner])``, or None on a reject."""
    try:
        update = coordinator.combine([candidate, partner(shares, candidate)])
    except UpdateVerificationError:
        return None
    return update.to_bytes(group).hex()


def build_set(params: str, family: str) -> dict:
    group = PairingGroup(params, family=family, backend="python")
    seed = set_seed(params, family)
    coordinator, members = setup(group, seed)
    shares = [
        [member.issue_update_share(label) for member in members]
        for label in LABELS
    ]
    verdicts = [
        [
            name,
            coordinator.verify_share(candidate),
            combined(group, coordinator, shares, candidate),
        ]
        for name, candidate in candidates(group, coordinator, shares)
    ]
    return {
        "params": params,
        "family": family,
        "seed": seed,
        "public": coordinator.public_key.to_bytes(group).hex(),
        "commitments": [
            group.point_to_bytes(c).hex() for c in coordinator.commitments
        ],
        "shares": [
            [share.to_bytes(group).hex() for share in row] for row in shares
        ],
        "verdicts": verdicts,
    }


def main() -> None:
    doc = {
        "description": (
            "Threshold share-check vectors; "
            "see tests/vectors/generate_threshold.py"
        ),
        "labels": [label.hex() for label in LABELS],
        "members": MEMBERS,
        "threshold": THRESHOLD,
        "sets": [build_set(params, family) for params, family in SETS],
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
