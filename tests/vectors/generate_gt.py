"""Regenerate ``tests/vectors/gt.json``, the GT exponentiation vectors.

Run from the repository root::

    PYTHONPATH=src python tests/vectors/generate_gt.py

The vectors pin the bytes of every unitary exponentiation the runtime
performs, on toy64 and ss512, families A and B.  Each set draws, from a
seeded RNG, a unitary element ``z = conj(x)/x`` (norm 1, but not in the
order-``q`` subgroup), so no pairing is needed — not even on family B,
whose ss512 pairings take seconds each.  From ``z`` each set records:

* ``unitary_exp(z, e)`` for the fixed exponents ``0, 1, 2, 3, -1,
  -(2^130 + 5), q - 1, q, c`` (``c = (p + 1)/q``, the final
  exponentiation's cofactor) and a seeded 160-bit and 512-bit exponent;
* the same exponents on ``-1``, the unitary element with ``b = 0``;
* ``gt_exp`` of the order-``q`` element ``z^c`` for seeded scalars, once
  direct and once after ``precompute_gt`` (both must give these bytes);
* ``final_exponentiation`` of a seeded, non-unitary Miller value.

The vectors were generated once and committed; ``test_gt_vectors.py``
replays them on every available backend, so a change to the
exponentiation kernel that moves every backend the same way still
fails.  Regenerate only when a change is *meant* to move these bytes,
and say so in the commit.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from repro.math.quadratic import unitary_exp
from repro.pairing.api import GTElement, PairingGroup

OUT = pathlib.Path(__file__).with_name("gt.json")

SETS = [("toy64", "A"), ("toy64", "B"), ("ss512", "A"), ("ss512", "B")]
GT_EXPONENTS = 4


def set_seed(params: str, family: str) -> int:
    digest = hashlib.sha256(f"repro:gt-vectors:{params}:{family}".encode())
    return int.from_bytes(digest.digest()[:8], "big")


def nonzero(fp2, rng: random.Random):
    while True:
        x = fp2.random(rng)
        if not x.is_zero():
            return x


def seeded_inputs(group: PairingGroup, seed: int) -> dict:
    """The seeded unitary element, exponents and Miller value of one set.

    Draw order is part of the vectors: change it only together with a
    regeneration.
    """
    rng = random.Random(seed)
    fp2 = group.ssc.fp2
    x = nonzero(fp2, rng)
    q, c = group.q, group.ssc.cofactor
    exponents = [
        0, 1, 2, 3, -1, -(2**130 + 5), q - 1, q, c,
        rng.getrandbits(160), rng.getrandbits(512),
    ]
    return {
        "unitary": x.conjugate() * x.inverse(),
        "exponents": exponents,
        "gt_exponents": [group.random_scalar(rng) for _ in range(GT_EXPONENTS)],
        "miller": nonzero(fp2, rng),
    }


def build_set(params: str, family: str) -> dict:
    group = PairingGroup(params, family=family, backend="python")
    seed = set_seed(params, family)
    inputs = seeded_inputs(group, seed)
    z = inputs["unitary"]
    minus_one = group.ssc.fp2(-1)
    g = GTElement(group, unitary_exp(z, group.ssc.cofactor))
    return {
        "params": params,
        "family": family,
        "seed": seed,
        "unitary": z.to_bytes().hex(),
        "exponents": [str(e) for e in inputs["exponents"]],
        "unitary_exp": [
            unitary_exp(z, e).to_bytes().hex() for e in inputs["exponents"]
        ],
        "minus_one_exp": [
            unitary_exp(minus_one, e).to_bytes().hex()
            for e in inputs["exponents"]
        ],
        "gt": g.to_bytes().hex(),
        "gt_exponents": [str(k) for k in inputs["gt_exponents"]],
        "gt_exp": [
            group.gt_exp(g, k).to_bytes().hex() for k in inputs["gt_exponents"]
        ],
        "miller": inputs["miller"].to_bytes().hex(),
        "final_exponentiation": group.tate.final_exponentiation(
            inputs["miller"]
        ).to_bytes().hex(),
    }


def main() -> None:
    doc = {
        "description": (
            "GT exponentiation known-answer vectors; see "
            "tests/vectors/generate_gt.py"
        ),
        "sets": [build_set(params, family) for params, family in SETS],
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
