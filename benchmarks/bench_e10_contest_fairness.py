"""E10 — contest fairness under network jitter (the §1 motivation).

Paper claim (footnote 1): "a timely delivery of the timing
reference/update (within a reasonably small delay jitter bound) could be
more easily achievable" than timely delivery of the whole message — so
shipping ciphertexts early and gating on the tiny broadcast makes
opening times track *update* jitter instead of *message* delivery
spread.

Series: opening-time spread versus message-latency jitter for the TRE
strategy and the naive send-at-release strategy, 50 receivers each.
"""

from benchmarks.conftest import emit
from repro.analysis import format_table
from repro.sim.network import NormalJitterLatency, UniformLatency
from repro.sim.scenarios import run_programming_contest, run_sealed_bid_auction

JITTER_LEVELS = (30.0, 120.0, 480.0)


def _run(jitter, teams=50):
    return run_programming_contest(
        teams=teams,
        seed=int(jitter),
        message_latency=UniformLatency(5.0, 5.0 + jitter),
        update_latency=NormalJitterLatency(0.08, 0.03),
        problem_bytes=20_000,
    )


def test_e10_contest_simulation(benchmark):
    result = benchmark.pedantic(
        _run, args=(120.0,), kwargs={"teams": 20}, rounds=3, iterations=1
    )
    assert result.tre_spread < result.naive_spread


def test_e10_auction_simulation(benchmark):
    result = benchmark.pedantic(
        run_sealed_bid_auction, kwargs={"bidders": 20, "seed": 3},
        rounds=3, iterations=1,
    )
    assert result.early_openings_succeeded == 0


def test_e10_claim_table(benchmark):
    # The claim's assertions run in tier-1, at 12 teams:
    # tests/sim/test_scenarios.py::TestProgrammingContest::test_e10_claim.
    rows = []
    for jitter in JITTER_LEVELS:
        result = _run(jitter)
        rows.append((
            f"±{jitter:.0f}",
            f"{result.tre_spread:.3f}",
            f"{result.tre_worst_lag:.3f}",
            f"{result.naive_spread:.1f}",
            f"{result.naive_worst_lag:.1f}",
            f"{result.naive_spread / result.tre_spread:.0f}x",
        ))
    emit(format_table(
        ("msg jitter (s)", "TRE spread", "TRE worst lag", "naive spread",
         "naive worst lag", "fairness gain"),
        rows,
        title="E10: contest opening-time fairness, 50 teams — claim: TRE "
              "tracks update jitter, not message delivery spread",
    ))
    benchmark(lambda: None)
