"""The medguard source guard: retries, breakers, staleness, deadlines.

A :class:`SourceGuard` executes source calls on behalf of the mediator
under one :class:`~repro.resilience.policy.ResiliencePolicy`:

* failed attempts are retried with deterministic exponential backoff
  (seeded jitter optional);
* a per-``(source, class)`` circuit breaker sheds calls to sources
  that keep failing, and lets a half-open probe through after the
  cooldown;
* with ``serve_stale``, the last known good rows of an identical call
  are served — marked as stale — when the source stays down;
* a per-call timeout and a whole-plan deadline budget bound how long a
  plan waits for misbehaving sources.

The guard holds only state that belongs to the sources: breakers, the
last-known-good store and the jitter streams.  Per-plan state stays
with the plan: the caller passes the plan's deadline into
:meth:`SourceGuard.call` and gets each call's :class:`CallOutcome`
back in a list it owns, so concurrent plans sharing one guard never
see each other's calls.  Retry, breaker, and staleness activity also
flows to medtrace (``resilience.*`` counters and events) when a tracer
is installed.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
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

#: how many last-known-good answers a guard keeps: the store is an LRU
#: over call fingerprints (a stale-serve refreshes an entry's recency)
STALE_STORE_LIMIT = 1024

#: outcome statuses, from healthiest to most degraded
STATUS_OK = "ok"
STATUS_RETRIED = "retried"
STATUS_STALE = "served-stale"
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
        "stale",
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
        self.stale = status == STATUS_STALE
        self.breaker_state = breaker_state
        #: "<ErrorClass>: <message>" of the last failure (None on ok)
        self.error = error

    def as_dict(self):
        return {
            "source": self.source,
            "class": self.class_name,
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "stale": self.stale,
            "breaker_state": self.breaker_state,
            "error": self.error,
        }

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
        #: concurrent calls under medpar fan-out; independent streams
        #: (string-seeded, stable across runs and platforms) keep the
        #: backoff sequence of every pair deterministic regardless of
        #: scheduling
        self._rngs: Dict[Tuple[str, str], random.Random] = {}
        self._cache = OrderedDict()
        self._lock = threading.Lock()
        #: failed attempts over all calls (retried, stale-served or
        #: raised): the chaos harness's faults-absorbed accounting
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

    def call(
        self, source, class_name, fn, cache_key=None, executor=None,
        deadline=None, outcomes=None,
    ):
        """Run ``fn()`` (one source call) under the policy.

        Args:
            source: source name (breaker / outcome / metric key).
            class_name: exported class being called.
            fn: zero-argument callable performing the source call.
            cache_key: hashable identity of the call for the
                ``serve_stale`` last-known-good cache (None disables
                staleness for this call).
            executor: optional
                :class:`~repro.parallel.ParallelExecutor`.  When one is
                given, the policy has a ``call_timeout``, and the
                policy runs on the real wall clock, each attempt is run
                through :meth:`~repro.parallel.ParallelExecutor.call`
                so the timeout truly abandons a hung attempt instead of
                only measuring it after the fact.
            deadline: the calling plan's deadline on the policy clock
                (None = unbounded); retries and backoff stop there.
            outcomes: list the call's :class:`CallOutcome` is appended
                to — on success, stale serving and failure alike (None
                = the outcome is dropped).

        Returns `fn`'s result — possibly a cached stale one.  Raises
        the last failure (normalized by the caller's boundary) when
        retries are exhausted and no stale answer may be served, or a
        :class:`~repro.errors.BreakerOpenError` when the breaker
        rejects the call outright.
        """
        policy = self.policy
        if outcomes is None:
            outcomes = []
        # wall-clock enforcement only under the real clock: a virtual
        # clock (chaos harness) keeps the deterministic measured-
        # elapsed check below
        enforce = (
            executor is not None
            and policy.call_timeout is not None
            and policy.wall_clock
        )
        breaker = self.breakers.get(source, class_name)
        now = policy.clock()
        if not breaker.allow(now):
            obs.count("resilience.breaker_open", source=source)
            obs.event(
                "resilience.breaker_open", source=source, class_name=class_name
            )
            stale = self._stale_lookup(
                source, class_name, cache_key, outcomes, "open"
            )
            if stale is not None:
                return stale
            outcomes.append(
                CallOutcome(
                    source,
                    class_name,
                    STATUS_BREAKER_OPEN,
                    0,
                    "open",
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
                if enforce:
                    result = executor.call(fn, timeout=policy.call_timeout)
                else:
                    result = fn()
            except (SourceError, XMLTransportError) as exc:
                last_exc = exc
                if isinstance(exc, SourceTimeoutError):
                    obs.count("resilience.timeout", source=source)
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
                    if policy.serve_stale and cache_key is not None:
                        self._store_stale((source, class_name, cache_key), result)
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

        stale = self._stale_lookup(
            source,
            class_name,
            cache_key,
            outcomes,
            breaker.state(policy.clock()),
            attempts=attempts,
            error=_error_text(last_exc),
        )
        if stale is not None:
            return stale
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

    def _store_stale(self, key, rows):
        with self._lock:
            self._cache[key] = rows
            self._cache.move_to_end(key)
            while len(self._cache) > STALE_STORE_LIMIT:
                self._cache.popitem(last=False)

    def _stale_lookup(
        self, source, class_name, cache_key, outcomes, breaker_state,
        attempts=0, error=None,
    ):
        if not self.policy.serve_stale or cache_key is None:
            return None
        key = (source, class_name, cache_key)
        with self._lock:
            cached = self._cache.get(key)
            if cached is None:
                return None
            self._cache.move_to_end(key)
        obs.count("resilience.stale_served", source=source)
        obs.event(
            "resilience.stale_served", source=source, class_name=class_name
        )
        outcomes.append(
            CallOutcome(
                source,
                class_name,
                STATUS_STALE,
                attempts,
                breaker_state,
                error=error,
            )
        )
        return cached

    def __repr__(self):
        return "SourceGuard(%r, failed_attempts=%d)" % (
            self.policy,
            self.failed_attempts,
        )
