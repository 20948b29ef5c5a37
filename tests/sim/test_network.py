"""Tests for latency models, unicast links and the broadcast channel.

Links and the channel schedule deliveries on the running loop, so each
test drives them inside ``run_virtual``.
"""

import asyncio
import random

import pytest

from repro.errors import SimulationError
from repro.service.virtualtime import run_virtual
from repro.sim.network import (
    BroadcastChannel,
    NormalJitterLatency,
    UnicastLink,
    UniformLatency,
)
from tests.sim.harness import (
    FixedLatency,
    MeteredBroadcastChannel,
    MeteredUnicastLink,
    MetricsCollector,
)


class TestLatencyModels:
    def test_fixed(self):
        model = FixedLatency(2.5)
        assert model.sample(random.Random(0)) == 2.5

    def test_fixed_negative_rejected(self):
        with pytest.raises(SimulationError):
            FixedLatency(-1)

    def test_uniform_range(self):
        model = UniformLatency(1.0, 3.0)
        rng = random.Random(1)
        for _ in range(100):
            assert 1.0 <= model.sample(rng) <= 3.0

    def test_uniform_bad_bounds(self):
        with pytest.raises(SimulationError):
            UniformLatency(3.0, 1.0)
        with pytest.raises(SimulationError):
            UniformLatency(-1.0, 1.0)

    def test_normal_floor(self):
        model = NormalJitterLatency(0.001, 10.0, floor=0.5)
        rng = random.Random(2)
        assert all(model.sample(rng) >= 0.5 for _ in range(100))

    def test_normal_bad_params(self):
        with pytest.raises(SimulationError):
            NormalJitterLatency(-1, 0)


async def _settle(result):
    """Let every delivery already scheduled run, then return ``result``."""
    await asyncio.sleep(60.0)
    return result


class TestUnicastLink:
    def test_delivery(self):
        metrics = MetricsCollector()
        link = MeteredUnicastLink(FixedLatency(2.0), random.Random(0), metrics, "l")
        received = []

        async def scenario():
            return await _settle(link.send(b"payload", received.append))

        assert run_virtual(scenario()) == 2.0
        assert received == [b"payload"]
        assert metrics.channels["l"].messages == 1
        assert metrics.channels["l"].bytes == 7

    def test_metrics_optional(self):
        link = UnicastLink(FixedLatency(1.0), random.Random(0))

        async def scenario():
            await _settle(link.send(b"x", lambda p: None))

        run_virtual(scenario())


class TestBroadcastChannel:
    def test_fanout(self):
        metrics = MetricsCollector()
        channel = MeteredBroadcastChannel(
            FixedLatency(0.5), random.Random(0), metrics, "b"
        )
        boxes = [[], [], []]
        for box in boxes:
            channel.subscribe(box.append)

        async def scenario():
            return await _settle(channel.publish(b"update" * 11))

        arrivals = run_virtual(scenario())
        assert all(box == [b"update" * 11] for box in boxes)
        assert arrivals == [0.5, 0.5, 0.5]
        # One message charged regardless of subscriber count.
        assert metrics.channels["b"].messages == 1
        assert metrics.channels["b"].bytes == 66

    def test_independent_jitter(self):
        channel = BroadcastChannel(UniformLatency(0.0, 1.0), random.Random(3))
        for _ in range(5):
            channel.subscribe(lambda p: None)

        async def scenario():
            return await _settle(channel.publish("u"))

        arrivals = run_virtual(scenario())
        assert len(set(arrivals)) > 1

    def test_empty_broadcast(self):
        channel = BroadcastChannel(FixedLatency(0), random.Random(0))

        async def scenario():
            return channel.publish("u")

        assert run_virtual(scenario()) == []
