"""Tests for gossip dissemination of key updates."""

import random

import pytest

from repro.core.timeserver import PassiveTimeServer, TimeBoundKeyUpdate
from repro.errors import SimulationError
from repro.service.virtualtime import run_virtual
from repro.sim.metrics import MetricsCollector
from repro.sim.network import UniformLatency
from tests.sim.harness import GossipNetwork


def _network(nodes=40, fanout=3, seed=11, verifier=None):
    rng = random.Random(seed)
    metrics = MetricsCollector()
    network = GossipNetwork(
        [f"node-{i}" for i in range(nodes)],
        UniformLatency(0.01, 0.05),
        fanout,
        rng,
        metrics,
        verifier=verifier,
    )
    return metrics, network


class TestGossipDissemination:
    def test_full_coverage_with_log_fanout(self):
        # Push-only gossip needs fanout ~ ln(n) for full coverage w.h.p.
        _, network = _network(nodes=40, fanout=8)
        result = run_virtual(network.disseminate("update", 66, seeds=2))
        assert result.coverage == 1.0

    def test_low_fanout_reaches_most_nodes(self):
        # The classic epidemic threshold: fanout 3 infects the giant
        # component (~1 - e^-3 of nodes) but not necessarily everyone.
        _, network = _network(nodes=40, fanout=3)
        result = run_virtual(network.disseminate("update", 66, seeds=2))
        assert result.coverage >= 0.85

    def test_server_cost_is_seed_count(self):
        metrics, network = _network(nodes=100)
        run_virtual(network.disseminate("update", 66, seeds=3))
        assert metrics.channels["server-injection"].messages == 3

    def test_completion_scales_logarithmically(self):
        times = {}
        for nodes in (16, 256):
            _, network = _network(nodes=nodes, fanout=8, seed=4)
            result = run_virtual(network.disseminate("update", 66, seeds=1))
            assert result.coverage == 1.0
            times[nodes] = result.completion_time
        # 16x population should cost roughly +log factor, not 16x time.
        assert times[256] < 3 * times[16]

    def test_messages_bounded_by_fanout(self):
        _, network = _network(nodes=50, fanout=3)
        result = run_virtual(network.disseminate("update", 66, seeds=1))
        # Each infected node forwards at most `fanout` copies.
        assert result.messages_sent <= 50 * 3 + 1

    def test_bad_parameters_rejected(self):
        rng = random.Random(0)
        with pytest.raises(SimulationError):
            GossipNetwork(["a"], UniformLatency(0, 1), 2, rng)
        with pytest.raises(SimulationError):
            GossipNetwork(["a", "b"], UniformLatency(0, 1), 0, rng)
        network = GossipNetwork(["a", "b"], UniformLatency(0, 1), 1, rng)
        with pytest.raises(SimulationError):
            run_virtual(network.disseminate("u", 1, seeds=0))

    def test_deterministic(self):
        r1 = run_virtual(_network(seed=9)[1].disseminate("u", 1, seeds=1))
        r2 = run_virtual(_network(seed=9)[1].disseminate("u", 1, seeds=1))
        assert r1.delivery_times == r2.delivery_times


class TestVerifiedGossip:
    def test_forged_updates_dropped_at_first_hop(self, group, rng):
        """Per-hop self-authentication: a forged update injected by a
        malicious relay never propagates."""
        server = PassiveTimeServer(group, rng=rng)
        genuine = server.publish_update(b"gossip-T")
        forged = TimeBoundKeyUpdate(b"gossip-T", group.random_point(rng))

        def verifier(update):
            return update.verify(group, server.public_key)

        _, network = _network(nodes=20, verifier=verifier)
        result = run_virtual(network.disseminate(forged, 66, seeds=2))
        assert result.coverage == 0.0
        assert result.forged_copies_dropped == 2
        assert result.messages_sent == 2  # Only the injections.

    def test_genuine_update_floods_fully(self, group, rng):
        server = PassiveTimeServer(group, rng=rng)
        genuine = server.publish_update(b"gossip-T2")

        def verifier(update):
            return update.verify(group, server.public_key)

        _, network = _network(nodes=15, fanout=7, verifier=verifier)
        result = run_virtual(network.disseminate(genuine, 66, seeds=1))
        assert result.coverage == 1.0
