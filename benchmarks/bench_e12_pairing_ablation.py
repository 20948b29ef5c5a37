"""E12 — substrate ablations (our design choices, indexed in DESIGN.md).

Two implementation decisions in the pairing engine have measurable
cost consequences; this experiment quantifies them so the numbers in
E1/E4 can be interpreted:

* **Family A vs family B**: both run the fused projective Miller loop
  at ``phi(Q)``.  Family A's vertical lines lie in ``Fp*`` and are
  dropped (BKLS); family B's are proper ``Fp2`` values, so each line is
  also multiplied by the conjugate of its vertical (one more ``Fp2``
  product per step).  Expected: family-A pairing faster, by well under
  2x.
* **Jacobian vs affine scalar multiplication**: the Jacobian ladder
  trades ~1.5k field inversions for one.  Expected: several-fold
  speedup at ss512 sizes.
"""

import time

import pytest

from benchmarks.conftest import emit
from repro.analysis import format_table
from repro.crypto.rng import seeded_rng
from repro.pairing.api import PairingGroup

_GROUPS = {}


def _group(family):
    if family not in _GROUPS:
        _GROUPS[family] = PairingGroup("ss512", family=family)
    return _GROUPS[family]


@pytest.mark.parametrize("family", ["A", "B"])
def test_e12_pairing_by_family(benchmark, family):
    group = _group(family)
    rng = seeded_rng("e12")
    p_point = group.random_point(rng)
    q_point = group.random_point(rng)
    benchmark.pedantic(group.pair, args=(p_point, q_point), rounds=5, iterations=1)


@pytest.mark.parametrize("family", ["A", "B"])
def test_e12_hash_to_g1_by_family(benchmark, family):
    # Family B's MapToPoint is deterministic (cube root); family A
    # rejects half its candidates. Both end with a cofactor clearing.
    group = _group(family)
    counter = iter(range(10**9))
    benchmark.pedantic(
        lambda: group.hash_to_g1(str(next(counter)).encode()),
        rounds=5,
        iterations=1,
    )


def test_e12_jacobian_vs_affine(benchmark):
    group = _group("A")
    rng = seeded_rng("e12-coords")
    point = group.random_point(rng)
    scalar = group.random_scalar(rng)
    assert point * scalar == point.affine_scalar_mult(scalar)
    benchmark.pedantic(
        point.affine_scalar_mult, args=(scalar,), rounds=3, iterations=1
    )


def test_e12_claim_table(benchmark):
    rng = seeded_rng("e12-table")

    def timed(fn, repeat=5):
        # Best-of-N: the minimum is robust to scheduling spikes, which
        # matters because this compares two timings against each other.
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best * 1000

    rows = []
    times = {}
    for family in ("A", "B"):
        group = _group(family)
        p_point = group.random_point(rng)
        q_point = group.random_point(rng)
        pair_ms = timed(lambda: group.pair(p_point, q_point))
        hash_ms = timed(lambda: group.hash_to_g1(b"x"))
        times[family] = pair_ms
        loop = "verticals dropped" if family == "A" else "conjugated verticals"
        rows.append((f"family {family}", loop, f"{pair_ms:.1f}", f"{hash_ms:.1f}"))
    emit(format_table(
        ("curve", "Miller loop", "pair ms", "H1 ms"),
        rows,
        title="E12a: pairing ablation — the fused Miller loop with "
              "verticals dropped vs conjugated (ss512)",
    ))

    group = _group("A")
    point = group.random_point(rng)
    scalar = group.random_scalar(rng)
    jac_ms = timed(lambda: point * scalar)
    aff_ms = timed(lambda: point.affine_scalar_mult(scalar))
    emit(format_table(
        ("coordinates", "scalar-mult ms"),
        [("Jacobian (1 inversion)", f"{jac_ms:.2f}"),
         ("affine (~1.5k inversions)", f"{aff_ms:.2f}")],
        title="E12b: scalar multiplication coordinate ablation (ss512)",
    ))

    # Shape: family A strictly faster; Jacobian strictly faster.
    assert times["A"] < times["B"]
    assert jac_ms < aff_ms
    benchmark(lambda: None)
