"""Tests for the closed/open/half-open circuit breaker."""

from repro.resilience import BreakerRegistry, CircuitBreaker
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker(threshold=3, cooldown=10.0)
        assert breaker.state() == CLOSED
        assert breaker.allow(0.0)

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=10.0)
        assert not breaker.record_failure(0.0)
        assert not breaker.record_failure(1.0)
        assert breaker.record_failure(2.0)  # third failure opens
        assert breaker.state() == OPEN
        assert not breaker.allow(2.5)

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, cooldown=10.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(1.0)
        assert breaker.state() == CLOSED  # streak broken, 1 < threshold

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(5.0)  # still cooling down
        assert breaker.state(5.0) == OPEN
        assert breaker.state(10.0) == HALF_OPEN  # cooldown elapsed
        assert breaker.allow(10.0)  # the probe goes through
        breaker.record_success()
        assert breaker.state() == CLOSED

    def test_half_open_admits_one_probe_per_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(11.0)  # the probe
        assert not breaker.allow(11.0)  # the next callers wait for it
        assert not breaker.allow(20.0)
        assert breaker.state(20.0) == HALF_OPEN
        # a probe that never reports back does not wedge the breaker
        assert breaker.allow(21.0)

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)  # probe
        assert breaker.record_failure(10.0)  # probe failed: re-open
        assert breaker.state(10.0) == OPEN
        assert not breaker.allow(15.0)  # cooldown restarted at t=10
        assert breaker.allow(20.0)

    def test_none_threshold_never_opens(self):
        breaker = CircuitBreaker(threshold=None, cooldown=10.0)
        for t in range(50):
            assert not breaker.record_failure(float(t))
        assert breaker.state() == CLOSED


class TestBreakerRegistry:
    def test_keyed_by_source_and_class(self):
        registry = BreakerRegistry(threshold=1, cooldown=10.0)
        a = registry.get("S", "protein")
        b = registry.get("S", "neuron")
        assert a is not b
        assert registry.get("S", "protein") is a

    def test_state_for_source_takes_the_worst(self):
        registry = BreakerRegistry(threshold=1, cooldown=10.0)
        registry.get("S", "protein").record_failure(0.0)  # open
        registry.get("S", "neuron")  # closed
        assert registry.state_for_source("S", 0.0) == OPEN
        assert registry.state_for_source("OTHER", 0.0) == CLOSED
