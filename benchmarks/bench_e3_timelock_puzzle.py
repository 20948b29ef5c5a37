"""E3 — time-lock puzzles: cost and imprecision of the §2.1 approach.

Paper claims: puzzle solving "could take up considerable computational
resources" (linear in the delay), can only realize *relative* time
("with reference to the start of solving"), and the effective release
time depends on machine speed — "different machines work at different
speeds".  TRE decryption by contrast is constant-cost.

Rows: solve wall-time versus the squaring parameter t (expected linear);
and the simulated release-time spread across a heterogeneous machine
population (×0.5 / ×1 / ×2 speed, plus a late starter), against TRE's
spread of zero (opening is gated by the broadcast, not local compute).
"""

import pytest

from benchmarks.conftest import KEY_MESSAGE, emit
from benchmarks.trajectory import time_median
from repro.analysis import format_table
from repro.baselines.timelock_puzzle import (
    SimulatedMachine,
    TimeLockPuzzle,
    release_time_spread,
)
from repro.crypto.rng import seeded_rng

SQUARING_COUNTS = (1024, 4096, 16384, 65536)


def test_e3_claim_table():
    tlp = TimeLockPuzzle(modulus_bits=512)
    rng = seeded_rng("e3-table")
    rows = []
    for squarings in SQUARING_COUNTS:
        puzzle = tlp.seal(KEY_MESSAGE, squarings, rng)
        assert tlp.solve(puzzle).plaintext == KEY_MESSAGE
        solve_ms = time_median(lambda: tlp.solve(puzzle)) * 1000
        rows.append((squarings, f"{solve_ms:.1f}"))
    emit(format_table(
        ("squarings t", "solve ms"),
        rows,
        title="E3a: RSW solve time vs t — claim: linear (relative time only)",
    ))

    rate = tlp.measure_squaring_rate(sample=2000)
    puzzle = tlp.seal(KEY_MESSAGE, squarings=int(rate * 60), rng=rng)  # "1 minute"
    machines = [
        SimulatedMachine("half-speed", rate / 2),
        SimulatedMachine("reference", rate),
        SimulatedMachine("double-speed", rate * 2),
        SimulatedMachine("late-start(+5min)", rate, start_delay_seconds=300),
    ]
    spread = release_time_spread(puzzle, machines)
    rows = [(name, f"{seconds:.0f}") for name, seconds in spread.items()]
    rows.append(("TRE (any machine)", "release instant + update jitter"))
    emit(format_table(
        ("machine", "opens after (s)"),
        rows,
        title="E3b: effective release of a '60s' puzzle across machines — "
              "claim: uncontrollable, coarse-grained release",
    ))

    # Shape assertions: a half-speed machine takes 4x a double-speed
    # one, and a late start shifts release one-for-one.
    assert spread["half-speed"] == pytest.approx(4 * spread["double-speed"], rel=0.01)
    assert spread["late-start(+5min)"] - spread["reference"] == pytest.approx(300)
