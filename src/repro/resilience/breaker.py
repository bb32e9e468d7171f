"""The medguard circuit breaker: closed / open / half-open per key.

One :class:`CircuitBreaker` guards one ``(source, class)`` pair (a
source may export several classes with very different health).  The
state machine is the classic one:

* **closed** — calls flow; `threshold` *consecutive* failures open it;
* **open** — calls are rejected without contacting the source until
  `cooldown` seconds (by the policy's clock) have passed;
* **half-open** — after the cooldown one probe call is let through
  and the cooldown restarts, so the calls that follow wait for the
  probe: success closes the breaker, failure re-opens it.  A probe
  that never reports back does not wedge the breaker; the next probe
  goes through one cooldown later.

All time comes from the caller (``now`` arguments), so the breaker is
fully deterministic under the fault harness's virtual clock.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker for one ``(source, class)`` pair.

    State transitions are guarded by a lock: concurrent calls to one
    source record successes and failures from several caller threads,
    and an unlocked failure streak could both
    lose counts and double-fire the "opened" edge.
    """

    __slots__ = (
        "threshold", "cooldown", "failures", "_state", "opened_at", "_lock",
    )

    def __init__(self, threshold, cooldown):
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self._state = CLOSED
        self.opened_at: Optional[float] = None
        self._lock = threading.Lock()

    def state(self, now=None):
        """Current state; an open breaker past its cooldown reports
        half-open (the next call is the probe)."""
        with self._lock:
            if (
                self._state == OPEN
                and now is not None
                and self.opened_at is not None
                and now - self.opened_at >= self.cooldown
            ):
                return HALF_OPEN
            return self._state

    def allow(self, now):
        """May a call proceed now?  Past the cooldown, an open or
        half-open breaker admits one probe, turns half-open and
        restarts the cooldown."""
        with self._lock:
            if self._state == CLOSED:
                return True
            if now - self.opened_at < self.cooldown:
                return False
            self._state = HALF_OPEN
            self.opened_at = now
            return True

    def record_success(self):
        with self._lock:
            self.failures = 0
            self._state = CLOSED
            self.opened_at = None

    def record_failure(self, now):
        """Count one failure; returns True when this failure opened
        (or re-opened) the breaker."""
        with self._lock:
            self.failures += 1
            if self._state == HALF_OPEN or (
                self.threshold is not None and self.failures >= self.threshold
            ):
                self._state = OPEN
                self.opened_at = now
                return True
            return False

    def __repr__(self):
        return "CircuitBreaker(%s, failures=%d)" % (self._state, self.failures)


class BreakerRegistry:
    """The breakers of one guard, keyed by ``(source, class)``."""

    __slots__ = ("threshold", "cooldown", "_breakers", "_lock")

    def __init__(self, threshold, cooldown):
        self.threshold = threshold
        self.cooldown = cooldown
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}
        self._lock = threading.Lock()

    def get(self, source, class_name):
        # locked get-or-create: two caller threads racing the first
        # call of a pair must share one breaker, not shadow each other
        key = (source, class_name)
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(self.threshold, self.cooldown)
                self._breakers[key] = breaker
            return breaker

    def state_for_source(self, source, now=None):
        """The worst state among a source's breakers (open > half-open
        > closed); `closed` when the source has none."""
        order = {OPEN: 0, HALF_OPEN: 1, CLOSED: 2}
        states = [
            breaker.state(now)
            for (name, _cls), breaker in self._breakers.items()
            if name == source
        ]
        if not states:
            return CLOSED
        return min(states, key=order.__getitem__)

    def __repr__(self):
        return "BreakerRegistry(%d breakers)" % len(self._breakers)
