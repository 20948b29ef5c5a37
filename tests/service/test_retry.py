"""Deadline, backoff and circuit-breaker policy — pure, clock-injected."""

import pytest

from repro.crypto.rng import seeded_rng
from repro.errors import (
    CircuitOpenError,
    ParameterError,
    ServiceTimeoutError,
    ServiceUnavailableError,
    TransientServiceError,
)
from repro.service.retry import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    Deadline,
    ExponentialBackoff,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTaxonomy:
    """The retry loop retries exactly the transient family."""

    def test_transient_family_is_retryable(self):
        for exc in (
            ServiceUnavailableError("x"),
            ServiceTimeoutError("x"),
            CircuitOpenError("x"),
            TransientServiceError("x"),
        ):
            assert isinstance(exc, TransientServiceError)

    def test_everything_else_is_not(self):
        from repro.errors import PermanentServiceError, ReproError

        for exc in (PermanentServiceError("x"), ReproError("x"), ValueError("x")):
            assert not isinstance(exc, TransientServiceError)


class TestDeadline:
    def test_remaining_counts_down_with_the_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(clock, 10.0)
        assert deadline.remaining() == pytest.approx(10.0)
        clock.now = 4.0
        assert deadline.remaining() == pytest.approx(6.0)
        assert not deadline.expired
        clock.now = 10.0
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_require_raises_the_timeout_type(self):
        clock = FakeClock()
        deadline = Deadline.after(clock, 1.0)
        deadline.require("warming up")
        clock.now = 2.0
        with pytest.raises(ServiceTimeoutError, match="warming up"):
            deadline.require("warming up")

    def test_clamp_shortens_attempt_timeouts(self):
        clock = FakeClock()
        deadline = Deadline.after(clock, 3.0)
        assert deadline.clamp(10.0) == pytest.approx(3.0)
        assert deadline.clamp(1.0) == pytest.approx(1.0)

    def test_never_is_unbounded(self):
        clock = FakeClock()
        deadline = Deadline.never(clock)
        clock.now = 1e12
        assert not deadline.expired
        assert deadline.clamp(5.0) == 5.0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            Deadline.after(FakeClock(), -1.0)


class TestExponentialBackoff:
    def test_same_seed_same_schedule(self):
        a = ExponentialBackoff(seeded_rng(42))
        b = ExponentialBackoff(seeded_rng(42))
        assert [a.delay(i) for i in range(10)] == [b.delay(i) for i in range(10)]

    def test_full_jitter_stays_under_exponential_ceiling(self):
        backoff = ExponentialBackoff(
            seeded_rng(7), base=0.1, factor=2.0, max_delay=5.0
        )
        for attempt in range(20):
            ceiling = backoff.ceiling(attempt)
            assert ceiling == pytest.approx(min(5.0, 0.1 * 2.0**attempt))
            for _ in range(10):
                assert 0.0 <= backoff.delay(attempt) <= ceiling

    def test_parameter_validation(self):
        rng = seeded_rng(0)
        with pytest.raises(ParameterError):
            ExponentialBackoff(rng, base=0.0)
        with pytest.raises(ParameterError):
            ExponentialBackoff(rng, factor=0.5)
        with pytest.raises(ParameterError):
            ExponentialBackoff(rng, base=1.0, max_delay=0.5)
        with pytest.raises(ParameterError):
            backoff = ExponentialBackoff(rng)
            backoff.ceiling(-1)


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("reset_timeout", 5.0)
        return clock, CircuitBreaker(clock, **kwargs)

    def test_trips_after_consecutive_failures_only(self):
        _, breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 1

    def test_open_rejects_without_touching_the_source(self):
        _, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        with pytest.raises(CircuitOpenError):
            breaker.check()

    def test_half_open_after_reset_timeout(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 4.9
        assert breaker.state == OPEN
        clock.now = 5.0
        assert breaker.state == HALF_OPEN
        breaker.check()  # reserves the only probe slot
        with pytest.raises(CircuitOpenError, match="probe"):
            breaker.check()

    def test_half_open_success_closes(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 5.0
        breaker.check()
        breaker.record_success()
        assert breaker.state == CLOSED
        breaker.check()  # free flow again

    def test_half_open_failure_reopens_and_restarts_timeout(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 5.0
        breaker.check()
        breaker.record_failure()  # the probe failed
        assert breaker.state == OPEN
        assert breaker.trips == 2
        clock.now = 9.9  # 4.9s after the re-trip: still open
        assert breaker.state == OPEN
        clock.now = 10.0
        assert breaker.state == HALF_OPEN

    def test_parameter_validation(self):
        clock = FakeClock()
        with pytest.raises(ParameterError):
            CircuitBreaker(clock, failure_threshold=0)
        with pytest.raises(ParameterError):
            CircuitBreaker(clock, reset_timeout=0.0)
