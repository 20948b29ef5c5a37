"""Test harness for the simulation layer.

* :class:`FixedLatency` satisfies the latency-model contract of
  :mod:`repro.sim.network` (``sample(rng) -> float``) with one constant
  delay, so a test can predict every delivery time exactly.
* :class:`GossipNetwork` models epidemic (gossip) dissemination of one
  time-bound key update.  The paper's server "publishes/broadcasts" one
  update and is done; in a real deployment that broadcast is carried by
  infrastructure — a CDN, a satellite feed, or peer-to-peer gossip.
  Here the server *injects* the update at a handful of seed nodes and
  every node forwards the first copy it sees to ``fanout`` random
  peers.  ``tests/sim/test_gossip.py`` shows, on concrete numbers, that
  the server's own cost stays O(1) in the population (it sends
  ``seeds`` messages however many receivers exist), that coverage
  completes in O(log n) hops, and that the update needs no secure
  channel at any hop: every node verifies the BLS self-authentication
  before forwarding, so a forged copy is dropped at its first hop.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.sim.metrics import MetricsCollector


class FixedLatency:
    """Constant delay."""

    def __init__(self, seconds: float):
        if seconds < 0:
            raise SimulationError("latency cannot be negative")
        self.seconds = seconds

    def sample(self, rng: random.Random) -> float:
        return self.seconds


@dataclass
class GossipResult:
    """Outcome of one dissemination."""

    injected_at: float
    seeds: int
    fanout: int
    node_count: int
    delivery_times: dict[str, float] = field(default_factory=dict)
    messages_sent: int = 0
    forged_copies_dropped: int = 0

    @property
    def coverage(self) -> float:
        return len(self.delivery_times) / self.node_count

    @property
    def completion_time(self) -> float:
        if len(self.delivery_times) < self.node_count:
            raise SimulationError("gossip did not reach every node")
        return max(self.delivery_times.values()) - self.injected_at


class GossipNetwork:
    """A random-peer gossip mesh carrying (and verifying) one payload."""

    def __init__(
        self,
        node_names: list[str],
        latency,
        fanout: int,
        rng: random.Random,
        metrics: MetricsCollector | None = None,
        verifier=None,
    ):
        if fanout < 1:
            raise SimulationError("fanout must be at least 1")
        if len(node_names) < 2:
            raise SimulationError("gossip needs at least two nodes")
        self.node_names = list(node_names)
        self.latency = latency
        self.fanout = fanout
        self.rng = rng
        self.metrics = metrics
        # verifier(payload) -> bool; models per-hop self-authentication.
        self.verifier = verifier or (lambda payload: True)

    async def disseminate(
        self, payload, size_bytes: int, seeds: int = 1
    ) -> GossipResult:
        """Inject at ``seeds`` random nodes; return once the mesh is quiet."""
        if not 1 <= seeds <= len(self.node_names):
            raise SimulationError("seeds out of range")
        loop = asyncio.get_running_loop()
        result = GossipResult(
            injected_at=loop.time(),
            seeds=seeds,
            fanout=self.fanout,
            node_count=len(self.node_names),
        )
        quiet = loop.create_future()
        in_flight = 0

        def send(node: str, incoming) -> None:
            nonlocal in_flight
            in_flight += 1
            delay = self.latency.sample(self.rng)
            loop.call_later(delay, deliver, node, incoming)

        def deliver(node: str, incoming) -> None:
            nonlocal in_flight
            in_flight -= 1
            if not self.verifier(incoming):
                result.forged_copies_dropped += 1
            elif node not in result.delivery_times:  # Else a duplicate.
                result.delivery_times[node] = loop.time()
                peers = [n for n in self.node_names if n != node]
                for peer in self.rng.sample(peers, min(self.fanout, len(peers))):
                    result.messages_sent += 1
                    if self.metrics is not None:
                        self.metrics.record_message("gossip", size_bytes)
                    send(peer, incoming)
            if in_flight == 0:
                quiet.set_result(None)

        for seed_node in self.rng.sample(self.node_names, seeds):
            # The server's injection — the only messages it ever sends.
            result.messages_sent += 1
            if self.metrics is not None:
                self.metrics.record_message("server-injection", size_bytes)
            send(seed_node, payload)
        await quiet
        return result
