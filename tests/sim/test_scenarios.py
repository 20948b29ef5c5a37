"""End-to-end tests of the paper's two motivating scenarios.

Both run on the virtual-time loop with the real service node; the
``nodes`` fixture records each node a scenario builds, so the tests can
read its counters after the run.
"""

import pytest

from repro.errors import SimulationError
from repro.service.node import TimeServerNode
from repro.sim import scenarios
from repro.sim.network import NormalJitterLatency, UniformLatency
from repro.sim.scenarios import run_programming_contest, run_sealed_bid_auction
from tests.sim.harness import FixedLatency


@pytest.fixture()
def nodes(monkeypatch):
    built = []

    class RecordedNode(TimeServerNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(scenarios, "TimeServerNode", RecordedNode)
    return built


class TestProgrammingContest:
    @pytest.fixture(scope="class")
    def result(self):
        return run_programming_contest(teams=12, seed=42)

    def test_every_team_opens(self, result):
        assert len(result.tre_open_times) == 12

    def test_nobody_opens_before_start(self, result):
        assert min(result.tre_open_times) >= result.contest_start

    def test_ciphertexts_arrive_before_start(self, result):
        assert max(result.ciphertext_arrivals) <= result.contest_start

    def test_tre_fairer_than_naive(self, result):
        assert result.tre_spread < result.naive_spread / 10

    def test_tre_lag_is_update_jitter_scale(self, result):
        # Updates are tiny: worst lag well under a second with the
        # default jitter model, versus minutes for the naive arm.
        assert result.tre_worst_lag < 1.0
        assert result.naive_worst_lag > 5.0

    def test_single_broadcast(self, result):
        assert result.server_broadcasts == 1

    def test_server_anonymity(self, result):
        assert result.ledger.server_learned_nothing()

    def test_custom_latency_models(self):
        result = run_programming_contest(
            teams=5,
            seed=1,
            message_latency=UniformLatency(1.0, 50.0),
            update_latency=NormalJitterLatency(0.01, 0.001),
        )
        assert result.tre_spread < 0.1

    def test_no_teams_rejected(self):
        with pytest.raises(SimulationError):
            run_programming_contest(teams=0)

    def test_deterministic_given_seed(self):
        r1 = run_programming_contest(teams=4, seed=9)
        r2 = run_programming_contest(teams=4, seed=9)
        assert r1.tre_open_times == r2.tre_open_times
        assert r1.naive_open_times == r2.naive_open_times

    @pytest.mark.parametrize("teams", [3, 12])
    def test_server_stays_passive(self, nodes, teams):
        # Teams only listen: the node answers no request, and one
        # announce carries the start label whatever the team count.
        result = run_programming_contest(teams=teams, seed=teams)
        [node] = nodes
        assert node.requests_served == 0
        assert result.server_broadcasts == 1
        # The other announce is epoch 0, published when the node starts.
        assert node.announcements == 2

    def test_update_before_ciphertext_means_no_open(self):
        # A team opens what it holds when the update arrives; a
        # ciphertext landing later stays sealed, and the harness treats
        # that as a configuration error.
        with pytest.raises(SimulationError, match="never opened"):
            run_programming_contest(
                teams=3,
                seed=4,
                message_latency=FixedLatency(50.0),
                send_lead_time=10.0,
            )

    def test_fixed_latencies_pin_every_time(self):
        result = run_programming_contest(
            teams=3,
            seed=6,
            message_latency=FixedLatency(7.0),
            update_latency=FixedLatency(0.1),
        )
        start = result.contest_start
        assert result.update_arrivals == pytest.approx([start + 0.1] * 3)
        assert result.tre_open_times == pytest.approx([start + 0.1] * 3)
        assert result.ciphertext_arrivals == pytest.approx([607.0] * 3)
        # The naive arm's open time includes the whole transit.
        assert result.naive_open_times == pytest.approx([start + 7.0] * 3)

    def test_e10_claim(self):
        # E10: TRE spread stays under a second while naive spread
        # grows at least 3x from ±30 s to ±480 s message jitter.
        results = [
            run_programming_contest(
                teams=12,
                seed=int(jitter),
                message_latency=UniformLatency(5.0, 5.0 + jitter),
                update_latency=NormalJitterLatency(0.08, 0.03),
            )
            for jitter in (30.0, 120.0, 480.0)
        ]
        assert max(r.tre_spread for r in results) < 1.0
        assert results[2].naive_spread > results[0].naive_spread * 3
        # Everyone got the ciphertext before the start; nobody opened early.
        for result in results:
            assert max(result.ciphertext_arrivals) <= result.contest_start
            assert min(result.tre_open_times) >= result.contest_start


class TestSealedBidAuction:
    @pytest.fixture(scope="class")
    def result(self):
        return run_sealed_bid_auction(bidders=6, seed=13)

    def test_winner_has_highest_bid(self, result):
        assert result.winning_bid == max(result.bids.values())

    def test_early_openings_all_fail(self, result):
        assert result.early_opening_attempts > 0
        assert result.early_openings_succeeded == 0

    def test_early_refusals_accounted(self, result):
        # Every pre-close attempt must be an explicit refusal — a
        # swallowed unrelated error would leave attempts unaccounted.
        assert (
            result.early_openings_refused == result.early_opening_attempts
        )

    def test_bids_open_after_close(self, result):
        assert result.opened_at >= result.close_time

    def test_single_broadcast(self, result):
        assert result.server_broadcasts == 1

    def test_server_anonymity(self, result):
        assert result.ledger.server_learned_nothing()

    def test_minimum_bidders(self):
        with pytest.raises(SimulationError):
            run_sealed_bid_auction(bidders=1)

    def test_probe_after_close_gets_the_update(self, nodes):
        # The positive control: the probe that is refused before the
        # close gets an UpdateResponse after it.
        result = run_sealed_bid_auction(
            bidders=4, seed=13, early_attempt_times=(200.0, 400.0, 700.0)
        )
        assert result.early_opening_attempts == 12
        assert result.early_openings_refused == 8
        assert result.early_openings_succeeded == 4
        [node] = nodes
        assert node.requests_served == 12

    def test_deterministic_given_seed(self):
        r1 = run_sealed_bid_auction(bidders=4, seed=9)
        r2 = run_sealed_bid_auction(bidders=4, seed=9)
        assert r1.bids == r2.bids
        assert r1.bid_bytes == r2.bid_bytes
        assert r1.opened_at == r2.opened_at
        assert (r1.winner, r1.early_openings_refused) == (
            r2.winner, r2.early_openings_refused
        )
