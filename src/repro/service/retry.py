"""Reusable resilience primitives: deadlines, backoff, circuit breaking.

Everything here is *pure policy*: no wall clock, no sleeping, no I/O.
Time comes from an injected ``clock()`` callable (the asyncio loop's
``time`` in production, a :class:`~repro.service.virtualtime
.VirtualTimeLoop` in tests) and jitter from an injected
``random.Random``, so retry schedules are deterministic given a seed.
The client's one retry loop composes these with its own sleeper;
nothing in this module ever blocks.

The taxonomy contract: the loop decides *whether* to retry from the
exception type alone — :class:`~repro.errors.TransientServiceError`
retries, anything else propagates.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.errors import (
    CircuitOpenError,
    ParameterError,
    ServiceTimeoutError,
)

Clock = Callable[[], float]


class Deadline:
    """An absolute point on an injected clock, shared across attempts.

    A retry loop carries one deadline through every attempt and
    failover so the *total* time is bounded no matter how the
    per-attempt timeouts fall.  ``None``-like unbounded behaviour is
    spelled ``Deadline.never(clock)``.
    """

    def __init__(self, clock: Clock, at: float):
        self._clock = clock
        self.at = at

    @classmethod
    def after(cls, clock: Clock, seconds: float) -> "Deadline":
        if seconds < 0:
            raise ParameterError("deadline must be in the future")
        return cls(clock, clock() + seconds)

    @classmethod
    def never(cls, clock: Clock) -> "Deadline":
        return cls(clock, float("inf"))

    def remaining(self) -> float:
        return max(0.0, self.at - self._clock())

    @property
    def expired(self) -> bool:
        return self._clock() >= self.at

    def require(self, doing: str = "request") -> None:
        if self.expired:
            raise ServiceTimeoutError(f"deadline expired while {doing}")

    def clamp(self, timeout: float) -> float:
        """``timeout`` shortened so the attempt cannot outlive the deadline."""
        return min(timeout, self.remaining())


class ExponentialBackoff:
    """Exponential backoff with *full jitter* from an injected RNG.

    Attempt ``n`` (0-based) sleeps ``rng.uniform(0, min(cap, base *
    factor**n))`` — the full-jitter variant, which decorrelates a
    thundering herd of recovering clients better than equal jitter.
    With a seeded RNG the schedule is exactly reproducible; no call
    reads the wall clock.
    """

    def __init__(
        self,
        rng: random.Random,
        base: float = 0.1,
        factor: float = 2.0,
        max_delay: float = 30.0,
    ):
        if base <= 0 or factor < 1 or max_delay < base:
            raise ParameterError(
                "need base > 0, factor >= 1 and max_delay >= base"
            )
        self._rng = rng
        self.base = base
        self.factor = factor
        self.max_delay = max_delay

    def ceiling(self, attempt: int) -> float:
        """The jitter-free cap for ``attempt`` (useful in tests/docs)."""
        if attempt < 0:
            raise ParameterError("attempts count from 0")
        return min(self.max_delay, self.base * self.factor**attempt)

    def delay(self, attempt: int) -> float:
        return self._rng.uniform(0.0, self.ceiling(attempt))


# Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """A per-source circuit breaker with a single half-open probe.

    * **closed** — requests flow; ``failure_threshold`` *consecutive*
      failures trip the breaker.
    * **open** — :meth:`check` raises :class:`~repro.errors
      .CircuitOpenError` without touching the source, until
      ``reset_timeout`` has elapsed on the injected clock.
    * **half-open** — one trial request is let through; a success
      closes the breaker, a failure re-opens it and restarts the
      timeout.

    The breaker never sleeps or schedules anything: state transitions
    happen lazily inside :meth:`check`/:meth:`record_failure`, driven
    entirely by ``clock()``.
    """

    def __init__(
        self,
        clock: Clock,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
    ):
        if failure_threshold < 1 or reset_timeout <= 0:
            raise ParameterError(
                "need failure_threshold >= 1 and reset_timeout > 0"
            )
        self._clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.trips = 0  # diagnostics: how often the breaker opened

    @property
    def state(self) -> str:
        self._maybe_half_open()
        return self._state

    def _maybe_half_open(self) -> None:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = HALF_OPEN
            self._probing = False

    def check(self) -> None:
        """Gate one request; raises :class:`CircuitOpenError` when open.

        In the half-open state the call *reserves* the probe, so one
        trial at a time reaches the source.
        """
        self._maybe_half_open()
        if self._state == CLOSED:
            return
        if self._state == HALF_OPEN:
            if not self._probing:
                self._probing = True
                return
            raise CircuitOpenError("circuit half-open and its probe is out")
        raise CircuitOpenError(
            f"circuit open for another "
            f"{self.reset_timeout - (self._clock() - self._opened_at):.3f}s"
        )

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._probing = False
        self._state = CLOSED

    def record_failure(self) -> None:
        self._maybe_half_open()
        if self._state == HALF_OPEN:
            self._trip()
            return
        self._consecutive_failures += 1
        if (
            self._state == CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probing = False
        self.trips += 1
