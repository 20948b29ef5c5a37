"""Test harness for the service layer: a seeded crash/restart schedule.

:class:`NodeChaos` drives crash/restart cycles of a
:class:`~repro.service.node.TimeServerNode` (optionally losing the
archive snapshot) and re-draws the node's clock skew each restart.
The chaos suite (``test_chaos.py``) runs it next to the injectors of
:mod:`repro.service.faults`.
"""

from __future__ import annotations

import asyncio
import random

from repro.service.node import TimeServerNode


class NodeChaos:
    """Seeded crash/restart (and clock-skew) schedule for one node.

    Each cycle: let the node run for a drawn uptime, snapshot (unless
    ``lose_snapshot``), crash, wait out a drawn outage, re-draw the
    clock skew, restart from the snapshot.  The epoch scheduler then
    republishes everything the outage missed, so chaos tests can assert
    the archive ends up gap-free either way.
    """

    def __init__(
        self,
        node: TimeServerNode,
        rng: random.Random,
        uptime: tuple[float, float] = (5.0, 15.0),
        outage: tuple[float, float] = (0.5, 3.0),
        lose_snapshot: bool = False,
        skew_range: tuple[float, float] = (0.0, 0.0),
    ):
        self.node = node
        self.rng = rng
        self.uptime = uptime
        self.outage = outage
        self.lose_snapshot = lose_snapshot
        self.skew_range = skew_range
        self.cycles = 0

    async def run(self, cycles: int) -> None:
        for _ in range(cycles):
            await asyncio.sleep(self.rng.uniform(*self.uptime))
            snapshot = None if self.lose_snapshot else self.node.snapshot()
            self.node.crash()
            await asyncio.sleep(self.rng.uniform(*self.outage))
            self.node.clock_skew = self.rng.uniform(*self.skew_range)
            await self.node.restart(snapshot)
            self.cycles += 1
