"""Regenerate ``tests/vectors/pairing.json``, the pairing known-answer vectors.

Run from the repository root::

    PYTHONPATH=src python tests/vectors/generate_pairing.py

The vectors pin the bytes of the symmetric Tate pairing every scheme
rests on — seeded ``ê(P, Q)``, ``pair_with_precomp`` on recorded lines,
``multi_pair`` with mixed ``±1`` exponents (on family A also a product
mixing raw-point and recorded-line first arguments), a one-pair
``multi_pair`` with exponent ``-1``, and the SHA-256 of the
serialized Miller-line table (``PrecomputedLines.to_bytes``) for the
generator and one seeded point — on toy64 and ss512, families A and B
(line tables exist on family A only).  They were generated once and
committed; ``test_pairing_vectors.py`` replays them on every available
backend, so a refactor that changes the fast and the reference Miller
path the same way still fails.  Regenerate only when a change is
*meant* to move these bytes, and say so in the commit.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from repro.pairing.api import PairingGroup

OUT = pathlib.Path(__file__).with_name("pairing.json")

SETS = [("toy64", "A"), ("toy64", "B"), ("ss512", "A"), ("ss512", "B")]
HASHED = [b"repro:pairing-vectors:P", b"repro:pairing-vectors:Q"]
# Indices into seeded_points(): the generator squared, generator
# against a multiple, and mixed multiple/hashed arguments.
PAIRS = [(0, 0), (0, 1), (1, 3), (2, 4), (4, 3)]
PRECOMP_PAIRS = [(0, 2), (0, 3), (1, 1), (1, 4)]
MULTI_PAIRS = [(0, 1), (1, 2), (2, 3), (3, 4)]
MULTI_EXPONENTS = [1, -1, 1, -1]
# Family A only: the first two pairs enter as raw points, the last two
# with their first argument as recorded ``PrecomputedLines``.
MIXED_PAIRS = [(1, 4), (3, 0), (2, 2), (4, 1)]
MIXED_EXPONENTS = [1, -1, -1, 1]
# One pair entering conjugated: the exponent -1 path on its own.
SINGLE_PAIR = (3, 2)


def set_seed(params: str, family: str) -> int:
    digest = hashlib.sha256(f"repro:pairing-vectors:{params}:{family}".encode())
    return int.from_bytes(digest.digest()[:8], "big")


def seeded_points(group: PairingGroup, seed: int) -> list:
    """Generator, two seeded multiples of it and two hashed points."""
    rng = random.Random(seed)
    multiples = [group.mul(group.generator, group.random_scalar(rng)) for _ in range(2)]
    hashed = [group.hash_to_g1(data) for data in HASHED]
    return [group.generator, *multiples, *hashed]


def lines_digest(group: PairingGroup, point) -> str:
    lines = group.tate.precompute_lines(point)
    blob = lines.to_bytes(group.ssc.fp.element_bytes)
    return hashlib.sha256(blob).hexdigest()


def build_set(params: str, family: str) -> dict:
    group = PairingGroup(params, family=family, backend="python")
    seed = set_seed(params, family)
    points = seeded_points(group, seed)
    pairs = []
    for i, j in PAIRS:
        pairs.append({
            "p": i,
            "q": j,
            "gt": group.tate.pair(points[i], points[j]).to_bytes().hex(),
        })
    precomp = []
    for i, j in PRECOMP_PAIRS:
        table = group.precompute_pairing(points[i])
        precomp.append({
            "p": i,
            "q": j,
            "gt": table.pair(points[j]).to_bytes().hex(),
        })
    multi = group.tate.multi_pair(
        [(points[i], points[j]) for i, j in MULTI_PAIRS], MULTI_EXPONENTS
    )
    single = group.tate.multi_pair(
        [(points[SINGLE_PAIR[0]], points[SINGLE_PAIR[1]])], [-1]
    )
    entry = {
        "params": params,
        "family": family,
        "seed": seed,
        "points": [group.point_to_bytes(point).hex() for point in points],
        "pair": pairs,
        "pair_with_precomp": precomp,
        "multi_pair": {
            "pairs": [list(pair) for pair in MULTI_PAIRS],
            "exponents": MULTI_EXPONENTS,
            "gt": multi.to_bytes().hex(),
        },
        "multi_pair_single": {
            "pair": list(SINGLE_PAIR),
            "exponent": -1,
            "gt": single.to_bytes().hex(),
        },
    }
    if family == "A":
        mixed = [(points[i], points[j]) for i, j in MIXED_PAIRS[:2]]
        mixed += [
            (group.tate.precompute_lines(points[i]), points[j])
            for i, j in MIXED_PAIRS[2:]
        ]
        entry["multi_pair_mixed"] = {
            "pairs": [list(pair) for pair in MIXED_PAIRS],
            "recorded": [False, False, True, True],
            "exponents": MIXED_EXPONENTS,
            "gt": group.tate.multi_pair(mixed, MIXED_EXPONENTS).to_bytes().hex(),
        }
        entry["lines_sha256"] = {
            str(i): lines_digest(group, points[i]) for i in (0, 1)
        }
    return entry


def main() -> None:
    doc = {
        "description": (
            "Pairing known-answer vectors; see tests/vectors/generate_pairing.py"
        ),
        "sets": [build_set(params, family) for params, family in SETS],
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
