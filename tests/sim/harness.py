"""Test harness for the simulation layer: a constant latency model.

:class:`FixedLatency` satisfies the latency-model contract of
:mod:`repro.sim.network` (``sample(rng) -> float``) with one constant
delay, so a test can predict every delivery time exactly.
"""

from __future__ import annotations

import random

from repro.errors import SimulationError


class FixedLatency:
    """Constant delay."""

    def __init__(self, seconds: float):
        if seconds < 0:
            raise SimulationError("latency cannot be negative")
        self.seconds = seconds

    def sample(self, rng: random.Random) -> float:
        return self.seconds
