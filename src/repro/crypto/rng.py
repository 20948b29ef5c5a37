"""Randomness sources.

The library takes explicit ``random.Random``-like objects everywhere so
tests and benchmarks are deterministic.  For production use,
:func:`system_rng` adapts :class:`secrets.SystemRandom`;
:func:`seeded_rng` labels the deterministic choice explicitly at call
sites instead of hiding a module-level global.
"""

from __future__ import annotations

import random
import secrets


def system_rng() -> random.Random:
    """A cryptographically secure RNG backed by the OS."""
    return secrets.SystemRandom()


def seeded_rng(seed: int | bytes | str) -> random.Random:
    """A deterministic RNG for tests, examples and benchmarks."""
    # lint: allow[rng-discipline] the one sanctioned Mersenne-Twister
    # constructor; callers outside tests/benchmarks/sim are linted (RP101)
    return random.Random(seed)
