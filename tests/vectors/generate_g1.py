"""Regenerate ``tests/vectors/g1.json``, the G1 known-answer vectors.

Run from the repository root::

    PYTHONPATH=src python tests/vectors/generate_g1.py

The vectors pin the bytes of every G1 primitive the schemes rely on —
``H1``, the derived generator, cofactor clearing, ``k·G``, ``q·P == ∞``
and both point encodings — on toy64 and ss512, families A and B.  They
were generated once and committed; ``test_g1_vectors.py`` replays them
on every available backend, so a refactor that changes two in-tree
paths the same way still fails.  Regenerate only when a change is
*meant* to move these bytes, and say so in the commit.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.pairing import hashing
from repro.pairing.api import PairingGroup

OUT = pathlib.Path(__file__).with_name("g1.json")

SETS = [("toy64", "A"), ("toy64", "B"), ("ss512", "A"), ("ss512", "B")]
H1_INPUTS = [
    ("repro:H1", b""),
    ("repro:H1", b"2005-06-06T00:00:00Z"),
    ("repro:H1", b"epoch:42"),
    ("repro:H1:vectors", b"epoch:42"),
]
CURVE_INPUTS = [b"cofactor:0", b"cofactor:1"]


def fixed_scalars(q: int) -> list[int]:
    """``k`` values for ``k·G``: edges plus two hash-derived constants."""
    k160 = int.from_bytes(hashlib.sha256(b"repro:g1-vectors:k160").digest(), "big")
    k352 = int.from_bytes(hashlib.sha512(b"repro:g1-vectors:k352").digest(), "big")
    return [2, 3, q - 1, q + 1, k160 >> 96, k352 >> 160]


def build_set(params: str, family: str) -> dict:
    group = PairingGroup(params, family=family, backend="python")
    ssc = group.ssc
    q = group.q

    def enc(point) -> dict:
        return {
            "uncompressed": group.point_to_bytes(point).hex(),
            "compressed": group.point_to_bytes_compressed(point).hex(),
        }

    h1 = []
    for tag, data in H1_INPUTS:
        point = group.hash_to_g1(data, tag=tag)
        h1.append({"tag": tag, "data": data.hex(), **enc(point)})
    cofactor = []
    for data in CURVE_INPUTS:
        point = hashing.hash_to_curve_point(ssc, data)
        cleared = ssc.curve.scalar_mult(point, ssc.cofactor)
        cofactor.append({
            "data": data.hex(),
            "point": point.to_bytes().hex(),
            "cleared": group.point_to_bytes(cleared).hex(),
        })
    scalar_mult = []
    for k in fixed_scalars(q):
        point = ssc.curve.scalar_mult(group.generator, k)
        scalar_mult.append({"k": hex(k), **enc(point)})
    killed = [group.generator] + [group.hash_to_g1(d, tag=t) for t, d in H1_INPUTS]
    return {
        "params": params,
        "family": family,
        "generator": enc(group.generator),
        "hash_to_g1": h1,
        "cofactor": cofactor,
        "scalar_mult": scalar_mult,
        "order_kills": [
            group.point_to_bytes(p).hex()
            for p in killed
            if ssc.curve.scalar_mult(p, q).is_infinity
        ],
    }


def main() -> None:
    doc = {
        "description": (
            "G1 known-answer vectors; see tests/vectors/generate_g1.py"
        ),
        "sets": [build_set(params, family) for params, family in SETS],
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
