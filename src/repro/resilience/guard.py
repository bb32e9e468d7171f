"""The medguard source guard: retries, breakers, deadlines.

A :class:`SourceGuard` executes source calls on behalf of the mediator
under one :class:`~repro.resilience.policy.ResiliencePolicy`:

* failed attempts are retried with deterministic exponential backoff
  (seeded jitter optional);
* a per-``(source, class)`` circuit breaker sheds calls to sources
  that keep failing, and lets a half-open probe through after the
  cooldown;
* a per-call timeout and a whole-plan deadline budget bound how long a
  plan waits for misbehaving sources: an attempt measured longer than
  the timeout (by the policy clock) counts as a failed attempt.

The guard holds only state that belongs to the sources: breakers and
the jitter streams.  It stores no answers: a guarded call either
returns fresh rows or raises, and medcache is the one answer store.
Per-plan state stays with the plan: the caller passes the plan's
deadline into :meth:`SourceGuard.call` and gets each call's
:class:`CallOutcome` back in a list it owns, so concurrent plans
sharing one guard never see each other's calls.  Retry and breaker
activity also flows to medtrace (``resilience.*`` counters and events)
when a tracer is installed.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, Tuple

from .. import obs
from ..errors import (
    BreakerOpenError,
    SourceError,
    SourceTimeoutError,
    XMLTransportError,
)
from .breaker import BreakerRegistry
from .policy import ResiliencePolicy

#: outcome statuses, from healthiest to most degraded
STATUS_OK = "ok"
STATUS_RETRIED = "retried"
STATUS_FAILED = "failed"
STATUS_BREAKER_OPEN = "breaker-open"


class CallOutcome:
    """The resilience record of one guarded source call."""

    __slots__ = (
        "source",
        "class_name",
        "status",
        "attempts",
        "retries",
        "breaker_state",
        "error",
    )

    def __init__(
        self,
        source,
        class_name,
        status,
        attempts,
        breaker_state,
        error=None,
    ):
        self.source = source
        self.class_name = class_name
        self.status = status
        self.attempts = attempts
        self.retries = max(0, attempts - 1)
        self.breaker_state = breaker_state
        #: "<ErrorClass>: <message>" of the last failure (None on ok)
        self.error = error

    def __repr__(self):
        return "CallOutcome(%s.%s %s attempts=%d)" % (
            self.source,
            self.class_name,
            self.status,
            self.attempts,
        )


def _error_text(exc):
    return "%s: %s" % (type(exc).__name__, exc)


class SourceGuard:
    """Executes source calls under a :class:`ResiliencePolicy`."""

    def __init__(self, policy=None):
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.breakers = BreakerRegistry(
            self.policy.breaker_threshold, self.policy.breaker_cooldown
        )
        #: per-``(source, class)`` jitter streams: a single shared RNG
        #: would make jitter draws depend on the *interleaving* of
        #: concurrent calls from caller threads; independent streams
        #: (string-seeded, stable across runs and platforms) keep the
        #: backoff sequence of every pair deterministic regardless of
        #: scheduling
        self._rngs: Dict[Tuple[str, str], random.Random] = {}
        self._lock = threading.Lock()
        #: failed attempts over all calls (retried or raised): the
        #: chaos harness's faults-absorbed accounting
        self.failed_attempts = 0

    def _jitter_rng(self, source, class_name):
        key = (source, class_name)
        with self._lock:
            rng = self._rngs.get(key)
            if rng is None:
                # str seeding hashes via sha512: deterministic across
                # runs, processes and platforms (same idiom as
                # FaultSchedule.from_seed)
                rng = random.Random(
                    "%s/%s/%s" % (self.policy.seed, source, class_name)
                )
                self._rngs[key] = rng
            return rng

    # -- the guarded call --------------------------------------------------

    def call(self, source, class_name, fn, deadline=None, outcomes=None):
        """Run ``fn()`` (one source call) under the policy.

        Args:
            source: source name (breaker / outcome / metric key).
            class_name: exported class being called.
            fn: zero-argument callable performing the source call.
            deadline: the calling plan's deadline on the policy clock
                (None = unbounded); retries and backoff stop there.
            outcomes: list the call's :class:`CallOutcome` is appended
                to — on success and failure alike (None = the outcome
                is dropped).

        With a ``call_timeout``, an attempt's elapsed time is measured
        on the policy clock after it returns; a longer attempt counts
        as a :class:`~repro.errors.SourceTimeoutError` failure.

        Returns `fn`'s result.  Raises the last failure (normalized by
        the caller's boundary) when retries are exhausted, or a
        :class:`~repro.errors.BreakerOpenError` when the breaker
        rejects the call outright.
        """
        policy = self.policy
        if outcomes is None:
            outcomes = []
        breaker = self.breakers.get(source, class_name)
        now = policy.clock()
        if not breaker.allow(now):
            obs.count("resilience.breaker_open", source=source)
            obs.event(
                "resilience.breaker_open", source=source, class_name=class_name
            )
            outcomes.append(
                CallOutcome(
                    source,
                    class_name,
                    STATUS_BREAKER_OPEN,
                    0,
                    breaker.state(now),
                    error="breaker open",
                )
            )
            raise BreakerOpenError(
                "circuit breaker open for %s.%s" % (source, class_name),
                source=source,
                class_name=class_name,
            )

        attempts = 0
        last_exc = None
        while attempts <= policy.max_retries:
            attempts += 1
            started = policy.clock()
            try:
                result = fn()
            except (SourceError, XMLTransportError) as exc:
                last_exc = exc
            else:
                elapsed = policy.clock() - started
                if (
                    policy.call_timeout is not None
                    and elapsed > policy.call_timeout
                ):
                    last_exc = SourceTimeoutError(
                        "call to %s.%s took %.3fs (timeout %.3fs)"
                        % (source, class_name, elapsed, policy.call_timeout)
                    )
                    obs.count("resilience.timeout", source=source)
                else:
                    breaker.record_success()
                    outcomes.append(
                        CallOutcome(
                            source,
                            class_name,
                            STATUS_OK if attempts == 1 else STATUS_RETRIED,
                            attempts,
                            breaker.state(policy.clock()),
                        )
                    )
                    return result
            with self._lock:
                self.failed_attempts += 1
            opened = breaker.record_failure(policy.clock())
            if opened:
                obs.count("resilience.breaker_opened", source=source)
                obs.event(
                    "resilience.breaker_opened",
                    source=source,
                    class_name=class_name,
                    failures=breaker.failures,
                )
            if attempts > policy.max_retries:
                break
            remaining = None if deadline is None else deadline - policy.clock()
            if remaining is not None and remaining <= 0:
                obs.count("resilience.deadline_exhausted")
                break
            delay = policy.backoff_delay(
                attempts, self._jitter_rng(source, class_name)
            )
            if remaining is not None:
                delay = min(delay, remaining)
            obs.count("resilience.retry", source=source)
            obs.event(
                "resilience.retry",
                source=source,
                class_name=class_name,
                attempt=attempts,
                error=type(last_exc).__name__,
            )
            if delay > 0:
                policy.sleep(delay)

        outcomes.append(
            CallOutcome(
                source,
                class_name,
                STATUS_FAILED,
                attempts,
                breaker.state(policy.clock()),
                error=_error_text(last_exc),
            )
        )
        raise last_exc

    def __repr__(self):
        return "SourceGuard(%r, failed_attempts=%d)" % (
            self.policy,
            self.failed_attempts,
        )
