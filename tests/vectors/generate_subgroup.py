"""Regenerate ``tests/vectors/subgroup.json``, the G1 subgroup-check vectors.

Run from the repository root::

    PYTHONPATH=src python tests/vectors/generate_subgroup.py

G1 is the order-``q`` subgroup of ``E(Fp)``, and ``#E(Fp) = c·q``.  A
point off G1 must never decode, and the in-process membership test must
reject it too.  These vectors pin both verdicts on toy64 and ss512,
families A and B, for every point in :func:`candidates`:

* the generator and ``H1(T)``, which are in G1;
* the uncleared map point ``P′`` behind ``H1(T)``, of order ``q·k``
  for some ``k > 1`` dividing ``c``;
* ``q·P′``, whose order divides ``c``;
* on family A, the order-2 point ``(0, 0)`` and ``H1(T) + (0, 0)``.

For each point a set records its uncompressed and compressed bytes and
three verdicts: ``PairingGroup.point_from_bytes``,
``PairingGroup.point_from_bytes_compressed`` (``"accept"`` or the name
of the exception raised), and ``PairingGroup.in_group``.  The vectors
were generated once and committed; ``test_subgroup_vectors.py`` replays
them on every available backend.  Regenerate only when a change is
*meant* to move these bytes or verdicts, and say so in the commit.
"""

from __future__ import annotations

import json
import pathlib

from repro.errors import ReproError
from repro.pairing.api import PairingGroup
from repro.pairing.supersingular import FAMILY_A

OUT = pathlib.Path(__file__).with_name("subgroup.json")

SETS = [("toy64", "A"), ("toy64", "B"), ("ss512", "A"), ("ss512", "B")]
LABEL = b"repro:subgroup-vectors:T0"


def two_torsion(group: PairingGroup):
    """The family-A point ``(0, 0)``, of order 2."""
    zero = group.ssc.fp(0)
    return group.ssc.curve.point(zero, zero)


def candidates(group: PairingGroup) -> list:
    """``(name, point)`` for every candidate, in order.

    Each call builds new point objects, so a replay never sees a point
    an earlier check has already touched.
    """
    h1 = group.hash_to_g1(LABEL)
    uncleared = group._map_to_curve(LABEL)
    out = [
        ("generator", group.ssc._derive_generator()),
        ("h1", h1),
        ("map_point", uncleared),
        # The curve's own ladder: group.mul would reduce q to 0.
        ("q_times_map_point", uncleared * group.q),
    ]
    if group.family == FAMILY_A:
        out.append(("two_torsion", two_torsion(group)))
        out.append(("h1_plus_two_torsion", h1 + two_torsion(group)))
    return out


def decode_verdict(decode, data: bytes) -> str:
    """``"accept"``, or the name of the error ``decode(data)`` raises."""
    try:
        decode(data)
    except ReproError as exc:
        return type(exc).__name__
    return "accept"


def build_set(params: str, family: str) -> dict:
    group = PairingGroup(params, family=family, backend="python")
    points = []
    for name, point in candidates(group):
        uncompressed = group.point_to_bytes(point)
        compressed = group.point_to_bytes_compressed(point)
        points.append({
            "name": name,
            "uncompressed": uncompressed.hex(),
            "compressed": compressed.hex(),
            "from_bytes": decode_verdict(group.point_from_bytes, uncompressed),
            "from_bytes_compressed": decode_verdict(
                group.point_from_bytes_compressed, compressed
            ),
            "in_group": group.in_group(point),
        })
    return {"params": params, "family": family, "points": points}


def main() -> None:
    doc = {
        "description": (
            "G1 subgroup-check vectors; see tests/vectors/generate_subgroup.py"
        ),
        "label": LABEL.hex(),
        "sets": [build_set(params, family) for params, family in SETS],
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
