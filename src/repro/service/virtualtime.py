"""A deterministic virtual-time asyncio event loop.

The service layer is asyncio all the way down, but its tests (and the
chaos property suite) must be byte-reproducible from a seed — which
rules out the wall clock.  :class:`VirtualTimeLoop` is a standard
:class:`asyncio.SelectorEventLoop` whose clock is a plain float:

* ``loop.time()`` returns virtual seconds, starting at 0.0;
* whenever the loop would *block* waiting for the next timer, it
  instead advances the virtual clock to that timer's deadline and runs
  it immediately — a simulated hour of backoff costs microseconds of
  real time;
* callback ordering is exactly asyncio's own (the timer heap plus FIFO
  ready queue), so a run is fully deterministic given seeded RNGs.

The loop supports in-process transports only (queues, futures, tasks —
everything :mod:`repro.service` uses).  Real sockets would need real
waiting, which is exactly what this loop refuses to do; a coroutine
that blocks with *nothing* scheduled is a deadlock and raises
:class:`~repro.errors.SimulationError` instead of hanging the test
suite.

Usage::

    from repro.service.virtualtime import run_virtual

    async def scenario():
        ...
        await asyncio.sleep(3600)   # returns instantly, clock += 3600

    run_virtual(scenario())
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Any, Coroutine

from repro.errors import SimulationError


class _InstantSelector(selectors.SelectSelector):
    """A real selector for registration that never waits.

    ``select(timeout)`` advances the owning loop's virtual clock by
    ``timeout`` instead of sleeping and always reports "no I/O ready" —
    correct for in-process transports, which wake the loop through the
    ready queue, never through file descriptors.
    """

    loop: "VirtualTimeLoop | None" = None

    def select(self, timeout: float | None = None):
        if timeout is None:
            # Nothing ready, no timers: every task is waiting on a
            # future no event can ever resolve.
            raise SimulationError(
                "virtual-time deadlock: all tasks are blocked and no "
                "timer is scheduled"
            )
        if timeout > 0 and self.loop is not None:
            self.loop.advance(timeout)
        return []


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """An asyncio event loop running on simulated time (see module doc)."""

    def __init__(self) -> None:
        selector = _InstantSelector()
        super().__init__(selector)
        selector.loop = self
        self._virtual_now = 0.0

    def time(self) -> float:
        return self._virtual_now

    def advance(self, seconds: float) -> None:
        """Jump the virtual clock forward (the selector's idle path)."""
        if seconds < 0:
            raise SimulationError(f"cannot advance time by {seconds}")
        self._virtual_now += seconds


def run_virtual(coro: Coroutine[Any, Any, Any]) -> Any:
    """Run ``coro`` to completion on a fresh :class:`VirtualTimeLoop`.

    Background tasks still pending when the scenario finishes (epoch
    schedulers, announce pumps, chaos drivers) are cancelled and
    awaited so the loop closes silently.
    """
    loop = VirtualTimeLoop()
    try:
        return loop.run_until_complete(coro)
    finally:
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        loop.close()
