"""Tests for SourceGuard: retry, breaker, timeout, deadline."""

import threading
import time

import pytest

from repro import obs
from repro.errors import BreakerOpenError, SourceError, SourceTimeoutError
from repro.resilience import (
    ResiliencePolicy,
    STATUS_BREAKER_OPEN,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RETRIED,
    SourceGuard,
    VirtualClock,
)


def make_guard(clock=None, **kwargs):
    clock = clock if clock is not None else VirtualClock()
    policy = ResiliencePolicy(clock=clock.now, sleep=clock.sleep, **kwargs)
    return SourceGuard(policy), clock


class Flaky:
    """A callable failing its first `failures` invocations."""

    def __init__(self, failures, result="rows", exc=SourceError):
        self.failures = failures
        self.result = result
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc("down (call %d)" % self.calls)
        return self.result


class NoThread:
    """Stands in for ``threading.Thread`` where none may start."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("the guard started a thread")


class TestRetries:
    def test_first_try_success_is_ok(self):
        guard, _clock = make_guard()
        outcomes = []
        assert guard.call("S", "c", lambda: "rows", outcomes=outcomes) == "rows"
        (outcome,) = outcomes
        assert outcome.status == STATUS_OK
        assert outcome.attempts == 1
        assert outcome.retries == 0

    def test_transient_failure_recovers_via_retry(self):
        guard, clock = make_guard(max_retries=2, backoff_base=0.1)
        flaky = Flaky(failures=1)
        outcomes = []
        assert guard.call("S", "c", flaky, outcomes=outcomes) == "rows"
        (outcome,) = outcomes
        assert outcome.status == STATUS_RETRIED
        assert outcome.attempts == 2
        assert outcome.retries == 1
        assert clock.slept == pytest.approx(0.1)  # one backoff

    def test_backoff_delays_are_exponential(self):
        guard, clock = make_guard(max_retries=3, backoff_base=0.1)
        guard.call("S", "c", Flaky(failures=3))
        assert clock.slept == pytest.approx(0.1 + 0.2 + 0.4)

    def test_exhausted_retries_raise_the_last_error(self):
        guard, _clock = make_guard(max_retries=2)
        flaky = Flaky(failures=99)
        outcomes = []
        with pytest.raises(SourceError):
            guard.call("S", "c", flaky, outcomes=outcomes)
        assert flaky.calls == 3  # 1 + max_retries
        (outcome,) = outcomes
        assert outcome.status == STATUS_FAILED
        assert outcome.attempts == 3
        assert "SourceError" in outcome.error

    def test_non_repro_errors_are_not_retried(self):
        guard, _clock = make_guard(max_retries=5)
        calls = []

        def bad():
            calls.append(1)
            raise KeyError("not a source failure")

        with pytest.raises(KeyError):
            guard.call("S", "c", bad)
        assert len(calls) == 1  # no retry on unexpected exception types

    def test_seeded_jitter_reproduces_sleep_sequence(self):
        slept = []
        for _ in range(2):
            guard, clock = make_guard(
                max_retries=3, backoff_base=0.1, jitter=0.3, seed=42
            )
            guard.call("S", "c", Flaky(failures=3))
            slept.append(clock.slept)
        assert slept[0] == slept[1]


class TestBreaker:
    def test_breaker_opens_and_sheds_calls(self):
        guard, _clock = make_guard(max_retries=0, breaker_threshold=2)
        flaky = Flaky(failures=99)
        for _ in range(2):
            with pytest.raises(SourceError):
                guard.call("S", "c", flaky)
        # breaker now open: the source is not even contacted
        outcomes = []
        with pytest.raises(BreakerOpenError) as excinfo:
            guard.call("S", "c", flaky, outcomes=outcomes)
        assert flaky.calls == 2
        assert excinfo.value.source == "S"
        assert excinfo.value.class_name == "c"
        assert outcomes[-1].status == STATUS_BREAKER_OPEN

    def test_half_open_probe_recovers_the_source(self):
        guard, clock = make_guard(
            max_retries=0, breaker_threshold=1, breaker_cooldown=30.0
        )
        with pytest.raises(SourceError):
            guard.call("S", "c", Flaky(failures=99))
        with pytest.raises(BreakerOpenError):
            guard.call("S", "c", lambda: "rows")
        clock.advance(30.0)  # cooldown elapses -> half-open probe
        assert guard.call("S", "c", lambda: "rows") == "rows"
        assert guard.breakers.state_for_source("S", clock.now()) == "closed"

    def test_half_open_admits_one_probe_per_cooldown(self):
        guard, clock = make_guard(
            max_retries=0, breaker_threshold=1, breaker_cooldown=10.0
        )
        with pytest.raises(SourceError):
            guard.call("S", "c", Flaky(failures=99))
        clock.advance(11.0)
        shed = []

        def probe():
            # a second caller while the probe is in flight is refused
            with pytest.raises(BreakerOpenError):
                guard.call("S", "c", lambda: "rows", outcomes=shed)
            return "rows"

        assert guard.call("S", "c", probe) == "rows"
        assert [(o.status, o.breaker_state) for o in shed] == [
            (STATUS_BREAKER_OPEN, "half-open")
        ]
        assert guard.breakers.state_for_source("S", clock.now()) == "closed"

    def test_breakers_are_per_class(self):
        guard, _clock = make_guard(max_retries=0, breaker_threshold=1)
        with pytest.raises(SourceError):
            guard.call("S", "sick", Flaky(failures=99))
        # the same source's other class is unaffected
        assert guard.call("S", "healthy", lambda: "rows") == "rows"


class TestTimeouts:
    def test_slow_call_times_out(self):
        guard, clock = make_guard(max_retries=0, call_timeout=1.0)

        def slow():
            clock.advance(5.0)
            return "rows"

        outcomes = []
        with pytest.raises(SourceTimeoutError):
            guard.call("S", "c", slow, outcomes=outcomes)
        assert "timeout" in outcomes[-1].error.lower()

    def test_timeout_then_retry_succeeds(self):
        guard, clock = make_guard(max_retries=1, call_timeout=1.0)
        state = {"first": True}

        def sometimes_slow():
            if state.pop("first", False):
                clock.advance(5.0)
            return "rows"

        outcomes = []
        assert guard.call("S", "c", sometimes_slow, outcomes=outcomes) == "rows"
        assert outcomes[-1].status == STATUS_RETRIED


class TestWallClockTimeout:
    """Under the real clock, ``call_timeout`` is checked on each
    attempt's measured elapsed time; no thread is started."""

    @staticmethod
    def wall_guard(call_timeout=0.05, **kwargs):
        return SourceGuard(ResiliencePolicy(call_timeout=call_timeout, **kwargs))

    def test_timeout_then_retry_recovers(self, monkeypatch):
        monkeypatch.setattr(threading, "Thread", NoThread)
        guard = self.wall_guard(max_retries=1, backoff_base=0.0)
        state = {"first": True}

        def sometimes_slow():
            if state.pop("first", False):
                time.sleep(0.1)
            return "rows"

        outcomes = []
        with obs.capture("guard") as tracer:
            assert guard.call("S", "c", sometimes_slow, outcomes=outcomes) == "rows"
        assert outcomes[-1].status == STATUS_RETRIED
        assert tracer.metrics.counter_total("resilience.timeout") == 1

    def test_result_within_timeout(self):
        guard = self.wall_guard(call_timeout=5.0)
        assert guard.call("S", "c", lambda: "fast") == "fast"

    def test_error_within_timeout_propagates(self):
        guard = self.wall_guard(call_timeout=5.0, max_retries=0)
        with pytest.raises(SourceError, match="down"):
            guard.call("S", "c", Flaky(failures=1))

    def test_attempt_spans_nest_under_the_callers_span(self):
        guard = self.wall_guard(call_timeout=5.0)
        with obs.capture("guard") as tracer:

            def attempt():
                with tracer.span("attempt"):
                    return "rows"

            with tracer.span("plan.step"):
                guard.call("S", "c", attempt)
        (root,) = tracer.roots
        assert root.name == "plan.step"
        assert [child.name for child in root.children] == ["attempt"]

    def test_no_thread_without_a_timeout(self, monkeypatch):
        monkeypatch.setattr(threading, "Thread", NoThread)
        guard = SourceGuard(ResiliencePolicy())
        assert guard.call("S", "c", lambda: "rows") == "rows"

    def test_virtual_clock_starts_no_thread(self, monkeypatch):
        """Chaos runs use a virtual clock: measured-elapsed timeouts
        stay reproducible."""
        monkeypatch.setattr(threading, "Thread", NoThread)
        guard, clock = make_guard(max_retries=0, call_timeout=1.0)

        def slow():
            clock.advance(5.0)
            return "rows"

        with pytest.raises(SourceTimeoutError):
            guard.call("S", "c", slow)


class TestPlanDeadline:
    def test_deadline_stops_retries(self):
        guard, clock = make_guard(max_retries=10, backoff_base=1.0)
        flaky = Flaky(failures=99)
        with pytest.raises(SourceError):
            guard.call("S", "c", flaky, deadline=clock.now() + 2.5)
        # backoff sleeps burn the budget; retries stop once exhausted
        assert flaky.calls < 11
        assert clock.slept <= 2.5 + 1e-9

    def test_each_call_is_bounded_by_its_own_deadline(self):
        guard, clock = make_guard(max_retries=10, backoff_base=1.0)
        with pytest.raises(SourceError):
            guard.call("S", "c", Flaky(failures=99), deadline=clock.now() + 2.5)
        spent = clock.slept
        # a later call with a fresh deadline gets the whole budget again
        with pytest.raises(SourceError):
            guard.call("T", "c", Flaky(failures=99), deadline=clock.now() + 2.5)
        assert clock.slept == pytest.approx(2 * spent)

    def test_no_deadline_means_unbounded(self):
        guard, clock = make_guard(max_retries=3, backoff_base=0.5)
        flaky = Flaky(failures=99)
        with pytest.raises(SourceError):
            guard.call("S", "c", flaky, deadline=None)
        assert flaky.calls == 4
        assert clock.slept == pytest.approx(0.5 + 1.0 + 2.0)


class TestOutcomeLog:
    def test_each_call_reports_to_its_callers_list(self):
        guard, _clock = make_guard()
        mine, theirs = [], []
        guard.call("A", "c", lambda: 1, outcomes=theirs)
        guard.call("B", "c", lambda: 2, outcomes=mine)
        guard.call("C", "c", lambda: 3)  # no list: the outcome is dropped
        assert [o.source for o in mine] == ["B"]
        assert [o.source for o in theirs] == ["A"]

    def test_failed_attempts_are_counted_on_the_guard(self):
        guard, _clock = make_guard(max_retries=2)
        guard.call("S", "c", Flaky(failures=1))  # 1 failed, then ok
        with pytest.raises(SourceError):
            guard.call("S", "c", Flaky(failures=99))  # 3 failed
        with pytest.raises(SourceError):
            guard.call("S", "d", Flaky(failures=99))  # 3 failed
        assert guard.failed_attempts == 7


class TestObservability:
    def test_retry_and_breaker_flow_to_metrics(self):
        guard, _clock = make_guard(max_retries=1, breaker_threshold=2)
        with obs.capture("guard") as tracer:
            with pytest.raises(SourceError):
                guard.call("S", "c", Flaky(failures=99))
        assert tracer.metrics.counter_total("resilience.retry") == 1
        assert tracer.metrics.counter_total("resilience.breaker_opened") == 1
