"""medguard policies: the per-source resilience configuration.

A :class:`ResiliencePolicy` bundles every knob of the resilience layer:

* **retries** — how many times a failed source call is re-attempted,
  with deterministic exponential backoff and (optionally) seeded
  jitter, so two runs with the same seed sleep the same delays;
* **timeouts** — a per-call timeout (an attempt that takes longer
  counts as failed) and a whole-plan *deadline budget* shared by every
  call a query plan makes;
* **circuit breaking** — consecutive-failure threshold and cooldown
  of the closed/open/half-open breaker kept per ``(source, class)``.

A guarded retrieval failure always degrades the answer (recorded, the
plan continues) instead of aborting the plan.

Time and sleeping are injectable (``clock`` / ``sleep``) so the fault
injection harness can drive the whole state machine on a virtual clock
and reproduce runs byte-for-byte.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

#: factor applied to the backoff per further retry
BACKOFF_MULTIPLIER = 2.0
#: upper bound on a single backoff sleep, in seconds
BACKOFF_CAP = 2.0


class ResiliencePolicy:
    """Configuration of the medguard resilience layer.

    Args:
        max_retries: re-attempts after the first failed call (so a
            call makes at most ``1 + max_retries`` attempts).
        backoff_base: seconds slept before the first retry; each
            further retry multiplies it by :data:`BACKOFF_MULTIPLIER`,
            up to :data:`BACKOFF_CAP`.
        jitter: fraction of the delay randomized (0.0 = none); drawn
            from a generator seeded with `seed`, so jitter is
            deterministic per guard instance.
        seed: RNG seed for the jitter stream.
        call_timeout: seconds one attempt may take; an attempt
            measured longer (by `clock`) is treated as a
            :class:`~repro.errors.SourceTimeoutError` failure.
        plan_deadline: seconds of budget for all source calls of one
            query plan; once exhausted, no further retries or backoff
            sleeps are attempted (calls fail fast and degrade).
        breaker_threshold: consecutive failures of a ``(source,
            class)`` pair that open its circuit breaker (None
            disables breaking).
        breaker_cooldown: seconds an open breaker waits before letting
            one half-open probe through.
        clock: monotonic time source (injectable for determinism).
        sleep: sleeper for backoff delays (injectable; the chaos
            harness advances a virtual clock instead of blocking).
    """

    __slots__ = (
        "max_retries",
        "backoff_base",
        "jitter",
        "seed",
        "call_timeout",
        "plan_deadline",
        "breaker_threshold",
        "breaker_cooldown",
        "clock",
        "sleep",
    )

    def __init__(
        self,
        max_retries=2,
        backoff_base=0.05,
        jitter=0.0,
        seed=0,
        call_timeout=None,
        plan_deadline=None,
        breaker_threshold=5,
        breaker_cooldown=30.0,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        if breaker_threshold is not None and breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1 (or None)")
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.jitter = jitter
        self.seed = seed
        self.call_timeout = call_timeout
        self.plan_deadline = plan_deadline
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.clock = clock if clock is not None else time.monotonic
        self.sleep = sleep if sleep is not None else time.sleep

    def backoff_delay(self, retry_number, rng=None):
        """The backoff before retry `retry_number` (1-based), jittered
        from `rng` when the policy asks for jitter."""
        delay = min(
            self.backoff_base * BACKOFF_MULTIPLIER ** (retry_number - 1),
            BACKOFF_CAP,
        )
        if self.jitter and rng is not None:
            # symmetric jitter: delay * (1 ± jitter), deterministic
            # given the rng's seed and draw position
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

    def __repr__(self):
        return (
            "ResiliencePolicy(max_retries=%d, breaker_threshold=%r)"
            % (self.max_retries, self.breaker_threshold)
        )
