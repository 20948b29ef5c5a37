"""E16 — fixed-argument precomputation: amortized cost of the fast paths.

The deployment shape of the paper's schemes is dominated by *fixed*
arguments: a sender reuses the server generator and one receiver key
across many encryptions, and one broadcast update ``I_T`` unlocks every
ciphertext labelled ``T``.  This experiment measures how much the
fixed-base tables and cached Miller lines buy on that shape.  It times
its claim table with an in-memory ``BenchTrajectory`` that it never
writes: ``benchmarks/smoke.py`` records the same operations in
``BENCH_pairing.json``.

Runs on toy64 so it stays cheap inside the default benchmark sweep; the
production-size numbers come from ``scripts/bench.sh --params ss512``.
"""

import pytest

from benchmarks.conftest import emit
from benchmarks.trajectory import BenchTrajectory
from repro.analysis import format_table
from repro.core.keys import UserKeyPair
from repro.core.timeserver import PassiveTimeServer
from repro.core.tre import TimedReleaseScheme
from repro.crypto.rng import seeded_rng
from repro.pairing.api import PairingGroup

RELEASE = b"2030-01-01T00:00:00Z"
BATCH = 16
# Interleaved rounds per claim-table row: one call of each variant in
# turn, so host drift lands on both alike.
ROUNDS = 11


@pytest.fixture(scope="module")
def e16_group():
    return PairingGroup("toy64", family="A")


def test_e16_fixed_base_mult(benchmark, e16_group):
    group = e16_group
    rng = seeded_rng("e16")
    point = group.random_point(rng)
    scalar = group.random_scalar(rng)
    table = group.precompute(point)
    benchmark.pedantic(table.mult, args=(scalar,), rounds=5, iterations=1)


def test_e16_pair_with_precomp(benchmark, e16_group):
    group = e16_group
    rng = seeded_rng("e16")
    p = group.random_point(rng)
    q = group.random_point(rng)
    lines = group.tate.precompute_lines(p)
    benchmark.pedantic(
        group.tate.pair_with_precomp, args=(lines, q), rounds=5, iterations=1
    )


def test_e16_claim_table(benchmark, e16_group):
    group = e16_group
    trajectory = BenchTrajectory()
    rng = seeded_rng("e16-table")
    curve = group.ssc.curve
    scheme = TimedReleaseScheme(group)
    server = PassiveTimeServer(group, rng=rng)
    user = UserKeyPair.generate(group, server.public_key, rng)
    update = server.publish_update(RELEASE)

    point = group.random_point(rng)
    scalar = group.random_scalar(rng)
    other = group.random_point(rng)
    table = group.precompute(point)
    lines = group.tate.precompute_lines(point)
    cts = [
        scheme.encrypt(
            b"k" * 32, user.public, server.public_key, RELEASE, rng,
            verify_receiver_key=False,
        )
        for _ in range(BATCH)
    ]

    def batch_direct():
        group.clear_precomputations()
        for ct in cts:
            scheme.decrypt(ct, user, update)

    def batch_fast():
        group.clear_precomputations()
        scheme.decrypt_batch(cts, user, update)

    rows = []
    for name, direct_fn, fast_fn, note in (
        (
            "scalar mult",
            lambda: curve.scalar_mult(point, scalar),
            lambda: table.mult(scalar),
            f"{table.table_points} cached points",
        ),
        (
            "pairing",
            lambda: group.tate.pair(point, other),
            lambda: group.tate.pair_with_precomp(lines, other),
            f"{len(lines)} cached lines",
        ),
        (
            f"decrypt x{BATCH}",
            batch_direct,
            batch_fast,
            "one I_T, lines shared",
        ),
    ):
        medians = trajectory.measure_interleaved(
            group, name.replace(" ", "_"),
            {"direct": direct_fn, "precomputed": fast_fn}, ROUNDS,
        )
        direct_ms = medians["direct"] * 1000
        fast_ms = medians["precomputed"] * 1000
        rows.append((
            name, f"{direct_ms:.2f}", f"{fast_ms:.2f}",
            f"{direct_ms / fast_ms:.1f}x", note,
        ))
    group.clear_precomputations()

    # Multi-pairing: the update-verification equation as two cached-line
    # pairings (two final exponentiations) vs one fused ratio check
    # (ONE shared final exponentiation).
    from repro.core.bls import BLSSignatureScheme

    bls = BLSSignatureScheme(group)
    bls.precompute_public(server.public_key)
    h_point = bls.hash_message(RELEASE)
    public = server.public_key

    def verify_sequential():
        left = group.pair(public.s_generator, h_point)
        right = group.pair(public.generator, update.point)
        assert left == right

    def verify_fused():
        assert group.pair_ratio_is_one(
            ((public.s_generator, h_point),),
            ((public.generator, update.point),),
        )

    medians = trajectory.measure_interleaved(
        group, "verify_2pair",
        {"direct": verify_sequential, "multi_pair": verify_fused}, ROUNDS,
    )
    seq_ms = medians["direct"] * 1000
    fused_ms = medians["multi_pair"] * 1000
    rows.append((
        "update verify", f"{seq_ms:.2f}", f"{fused_ms:.2f}",
        f"{seq_ms / fused_ms:.1f}x", "2 final exps -> 1 (multi-pair)",
    ))
    group.clear_precomputations()

    emit(format_table(
        ("operation", "direct ms", "precomp ms", "speedup", "notes"),
        rows,
        title="E16: fixed-argument precomputation (toy64, family A)",
    ))
    benchmark(lambda: None)
