"""Network links, latency models and the broadcast channel.

A latency model is any object with ``sample(rng) -> float``: it draws
one non-negative per-delivery delay, in seconds, from the RNG it is
handed.  :class:`UnicastLink` models the (possibly slow, congested)
sender→receiver path; :class:`BroadcastChannel` models the time
server's one-to-many update dissemination — one ``publish`` call fans
out to every subscriber with an independent jitter draw, which is
exactly the "single update for all receivers" property the scenarios
measure.  Both schedule their deliveries on the running event loop
(``loop.call_later``), normally the virtual-time loop of
:func:`~repro.service.virtualtime.run_virtual`.
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable

from repro.errors import SimulationError


class UniformLatency:
    """Uniform delay on ``[low, high]`` — crude congestion jitter."""

    def __init__(self, low: float, high: float):
        if not 0 <= low <= high:
            raise SimulationError("need 0 <= low <= high")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


class NormalJitterLatency:
    """Gaussian jitter around a base delay, clamped at a floor."""

    def __init__(self, base: float, jitter_std: float, floor: float = 1e-3):
        if base < 0 or jitter_std < 0:
            raise SimulationError("base and jitter must be non-negative")
        self.base = base
        self.jitter_std = jitter_std
        self.floor = floor

    def sample(self, rng: random.Random) -> float:
        return max(self.floor, rng.gauss(self.base, self.jitter_std))


class UnicastLink:
    """A point-to-point link delivering byte payloads to one handler."""

    def __init__(self, latency, rng: random.Random):
        self.latency = latency
        self.rng = rng

    def send(self, payload, deliver: Callable) -> float:
        """Schedule delivery; returns the arrival time."""
        loop = asyncio.get_running_loop()
        delay = self.latency.sample(self.rng)
        loop.call_later(delay, deliver, payload)
        return loop.time() + delay


class BroadcastChannel:
    """One-to-many dissemination with independent per-subscriber jitter."""

    def __init__(self, latency, rng: random.Random):
        self.latency = latency
        self.rng = rng
        self._subscribers: list[Callable] = []

    def subscribe(self, deliver: Callable) -> None:
        self._subscribers.append(deliver)

    def publish(self, payload) -> list[float]:
        """Fan the payload out in one call: the *sender* sends one message.

        Returns each subscriber's arrival time (for fairness analysis).
        Per-subscriber jitter is drawn independently, modelling last-hop
        variation under a multicast/satellite-style distribution tree.
        """
        loop = asyncio.get_running_loop()
        arrivals = []
        for deliver in self._subscribers:
            delay = self.latency.sample(self.rng)
            arrivals.append(loop.time() + delay)
            loop.call_later(delay, deliver, payload)
        return arrivals
