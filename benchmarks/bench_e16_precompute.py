"""E16 — fixed-argument precomputation: amortized cost of the fast paths.

The deployment shape of the paper's schemes is dominated by *fixed*
arguments: a sender reuses the server generator and one receiver key
across many encryptions, and one broadcast update ``I_T`` unlocks every
ciphertext labelled ``T``.  This experiment measures how much the
fixed-base tables and cached Miller lines buy on that shape.  Its claim
table runs four of ``benchmarks/smoke.py``'s comparisons, which record
the same operations in ``BENCH_pairing.json``, on an in-memory
``BenchTrajectory`` that it never writes.

Runs on toy64 so it stays cheap inside the default benchmark sweep; the
production-size numbers come from ``scripts/bench.sh --params ss512``.
"""

from benchmarks import smoke
from benchmarks.conftest import emit
from benchmarks.trajectory import BenchTrajectory
from repro.analysis import format_table
from repro.crypto.rng import seeded_rng
from repro.pairing.api import PairingGroup

BATCH = 16
# Interleaved rounds per claim-table row: one call of each variant in
# turn, so host drift lands on both alike.
ROUNDS = 11


def test_e16_claim_table():
    group = PairingGroup("toy64", family="A")
    trajectory = BenchTrajectory()
    rng = seeded_rng("e16-table")
    smoke.bench_scalar_mult(group, rng, trajectory, ROUNDS)
    smoke.bench_pairing(group, rng, trajectory, ROUNDS)
    smoke.bench_batch_decrypt(group, rng, trajectory, ROUNDS, BATCH)
    smoke.bench_multi_pair(group, rng, trajectory, ROUNDS)

    rows = []
    for name, op, fast, note in (
        ("scalar mult", "scalar_mult", "fixed_base", "{table_points} cached points"),
        ("pairing", "pairing", "precomputed", "{lines} cached lines"),
        ("decrypt", f"tre_decrypt_x{BATCH}", "batch_precomp", "one I_T, lines shared"),
        ("update verify", "multi_pair", "ratio_check", "2 final exps -> 1 (multi-pair)"),
    ):
        direct = trajectory.measured[trajectory.key(op, group.params.name, "direct")]
        precomp = trajectory.measured[trajectory.key(op, group.params.name, fast)]
        rows.append((
            f"{name} x{direct['batch']}",
            f"{direct['median_ms']:.2f}", f"{precomp['median_ms']:.2f}",
            f"{direct['median_ms'] / precomp['median_ms']:.1f}x",
            note.format(**precomp),
        ))
    emit(format_table(
        ("operation", "direct ms", "precomp ms", "speedup", "notes"),
        rows,
        title="E16: fixed-argument precomputation (toy64, family A)",
    ))
