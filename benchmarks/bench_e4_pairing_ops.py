"""E4 — primitive operation costs across parameter sizes.

The paper's §4/§5 cost accounting is in units of pairings, scalar
multiplications and MapToPoint evaluations.  This experiment grounds
those units: wall time for each primitive on toy64 / ss512 / ss1024,
plus serialized element sizes.  (Figure-style series: cost vs p-bits.)
"""

import time

import pytest

from benchmarks.conftest import emit
from repro.analysis import format_table
from repro.crypto.rng import seeded_rng
from repro.pairing.api import PairingGroup

PARAM_NAMES = ("toy64", "ss512", "ss1024")

_GROUPS = {}


def _group(name):
    if name not in _GROUPS:
        _GROUPS[name] = PairingGroup(name, family="A")
    return _GROUPS[name]


@pytest.mark.parametrize("name", PARAM_NAMES)
def test_e4_pairing(benchmark, name):
    group = _group(name)
    rng = seeded_rng("e4")
    p_point = group.random_point(rng)
    q_point = group.random_point(rng)
    benchmark.pedantic(
        group.pair, args=(p_point, q_point), rounds=5, iterations=1
    )


@pytest.mark.parametrize("name", PARAM_NAMES)
def test_e4_scalar_mult(benchmark, name):
    group = _group(name)
    rng = seeded_rng("e4")
    point = group.random_point(rng)
    scalar = group.random_scalar(rng)
    benchmark.pedantic(group.mul, args=(point, scalar), rounds=5, iterations=1)


@pytest.mark.parametrize("name", PARAM_NAMES)
def test_e4_hash_to_g1(benchmark, name):
    group = _group(name)
    counter = iter(range(10**9))
    benchmark.pedantic(
        lambda: group.hash_to_g1(str(next(counter)).encode()),
        rounds=5,
        iterations=1,
    )


@pytest.mark.parametrize("name", PARAM_NAMES)
def test_e4_gt_exponentiation(benchmark, name):
    group = _group(name)
    rng = seeded_rng("e4")
    element = group.pair(group.generator, group.generator)
    scalar = group.random_scalar(rng)
    benchmark.pedantic(lambda: element ** scalar, rounds=5, iterations=1)


def test_e4_multi_pair_op_counts(benchmark):
    """The multi-pairing saving in *counted* operations: a two-pairing
    verify equation costs two Miller loops + two final exponentiations
    sequentially, but the fused ratio check shares ONE final
    exponentiation across the same two Miller loops (2 -> 1)."""
    group = _group("toy64")  # operation counts are size-independent
    rng = seeded_rng("e4-multi")
    from repro.core.keys import ServerKeyPair

    keypair = ServerKeyPair.generate(group, rng)
    public = keypair.public
    h_point = group.hash_to_g1(b"e4-epoch")
    signed = group.mul(h_point, keypair.private)

    with group.counters.measure() as seq_ops:
        left = group.pair(public.s_generator, h_point)
        right = group.pair(public.generator, signed)
        assert left == right
    with group.counters.measure() as fused_ops:
        assert group.pair_ratio_is_one(
            ((public.s_generator, h_point),),
            ((public.generator, signed),),
        )

    rows = []
    for label, ops in (("sequential", seq_ops), ("multi-pair", fused_ops)):
        rows.append((
            label,
            ops.get("pairing", 0),
            ops.get("miller_loop", 0),
            ops.get("final_exp", 0),
            ops.get("multi_pair", 0),
        ))
    assert seq_ops.get("final_exp") == 2
    assert fused_ops.get("final_exp") == 1
    assert fused_ops.get("miller_loop") == 2
    emit(format_table(
        ("verify path", "pairings", "Miller loops", "final exps",
         "multi-pair calls"),
        rows,
        title="E4b: two-pairing verify equation — the multi-pairing "
              "kernel shares the final exponentiation (2 -> 1)",
    ))
    benchmark(lambda: None)


def test_e4_gt_fast_path_op_counts(benchmark):
    """E4c — the sender GT fast path *eliminates* primary operations.

    A cold §5.1 encryption pays H1's map point, one scalar
    multiplication, a pairing and a GT exponentiation; with the
    (receiver, T) pairing cached, the same byte-identical ciphertext
    costs one fixed-base multiplication and one table-driven GT
    exponentiation.  The table prints the counted operations of each
    path, asserted exactly against the budgets ``TRE_COST.encrypt`` and
    ``TRE_GT_ENCRYPT_COST`` so the collapse can never silently regress.
    """
    from repro.analysis.costmodel import TRE_COST, TRE_GT_ENCRYPT_COST
    from repro.core.keys import ServerKeyPair, UserKeyPair
    from repro.core.tre import TimedReleaseScheme

    group = PairingGroup("toy64", family="A")  # fresh: no warm caches
    rng = seeded_rng("e4-gt")
    server = ServerKeyPair.generate(group, rng)
    user = UserKeyPair.generate(group, server.public, rng)
    scheme = TimedReleaseScheme(group)
    label = b"e4-epoch"

    with group.counters.measure() as cold_ops:
        ct_cold = scheme.encrypt(
            b"collapse", user.public, server.public, label, seeded_rng("e4r"),
            verify_receiver_key=False,
        )
    scheme.precompute_sender(user.public, server.public, time_labels=[label])
    with group.counters.measure() as warm_ops:
        ct_warm = scheme.encrypt(
            b"collapse", user.public, server.public, label, seeded_rng("e4r"),
            verify_receiver_key=False,
        )
    assert ct_warm.to_bytes(group) == ct_cold.to_bytes(group)
    assert cold_ops == TRE_COST.encrypt.as_dict()
    assert warm_ops == TRE_GT_ENCRYPT_COST.as_dict()

    rows = []
    for path, ops in (("direct", cold_ops), ("GT fast path", warm_ops)):
        rows.append((
            path,
            ops.get("pairing", 0),
            ops.get("scalar_mult", 0),
            ops.get("hash_to_group", 0),
            ops.get("hash_to_curve", 0),
            ops.get("gt_exp", 0),
            ops.get("gt_fixed_base", 0),
        ))
    emit(format_table(
        ("encrypt path", "pairings", "scalar mults", "H1", "H1 map only",
         "GT exps", "GT table hits"),
        rows,
        title="E4c: sender GT fast path — encryption collapses from a "
              "pairing to one table-driven GT exponentiation",
    ))
    benchmark(lambda: None)


def test_e4_claim_table(benchmark):
    rows = []
    for name in PARAM_NAMES:
        group = _group(name)
        rng = seeded_rng("e4-table")
        point = group.random_point(rng)
        other = group.random_point(rng)
        scalar = group.random_scalar(rng)

        def timed(fn, repeat=3):
            best = float("inf")
            for _ in range(repeat):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best * 1000

        pair_ms = timed(lambda: group.pair(point, other))
        mul_ms = timed(lambda: group.mul(point, scalar))
        hash_ms = timed(lambda: group.hash_to_g1(b"label"))
        gt = group.pair(point, other)
        exp_ms = timed(lambda: gt ** scalar)
        rows.append((
            name,
            group.params.p_bits,
            group.params.q_bits,
            f"{pair_ms:.1f}",
            f"{mul_ms:.1f}",
            f"{hash_ms:.1f}",
            f"{exp_ms:.1f}",
            group.point_bytes,
            group.gt_bytes,
        ))
    emit(format_table(
        ("params", "p bits", "q bits", "pair ms", "smul ms", "H1 ms",
         "GT-exp ms", "G1 bytes", "GT bytes"),
        rows,
        title="E4: primitive costs by parameter size (pure-Python Tate "
              "pairing, family A)",
    ))
    benchmark(lambda: None)
