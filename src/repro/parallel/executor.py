"""The medpar executor: bounded, deterministic source fan-out.

A :class:`ParallelExecutor` wraps one
:class:`concurrent.futures.ThreadPoolExecutor` behind the two
primitives plan execution needs:

* :meth:`map_ordered` — run one callable per item concurrently and
  return the outcomes **in input order** (the deterministic merge: the
  caller sees results ordered by source name, never by completion
  time, so golden traces, EXPLAIN output and ``repro chaos``
  byte-determinism survive parallelism);
* :meth:`call` — run one callable under a true wall-clock timeout,
  enforced by a dedicated watcher thread (a hung wrapper is abandoned,
  not waited out — the per-call timeout of a
  :class:`~repro.resilience.policy.ResiliencePolicy` becomes real).

Both primitives adopt the submitting thread's current medtrace span as
the worker's parent, so ``plan.step`` trees stay well-nested across
threads.

The layer follows the house discipline: ``Mediator(parallel=...)``
defaults to off, costing the sequential path a single ``is None``
check, and a fan-out of one item runs inline on the calling thread —
byte-identical to the sequential code it replaces.

Fan-out activity is metered by the ``fanout.*`` counter family
(``fanout.batches``, ``fanout.tasks``, ``fanout.timeouts``) — see
``docs/parallelism.md``.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional

from .. import obs
from ..errors import SourceTimeoutError

#: default worker-pool width (bounded: fan-out is per plan step, and
#: sources are typically few; a small pool keeps thread churn low)
DEFAULT_MAX_WORKERS = 4


class FanoutOutcome:
    """The result of one fanned-out task: a value or an error.

    Args:
        value: the callable's return value (None when it raised).
        error: the exception the callable raised (None on success).
    """

    __slots__ = ("value", "error")

    def __init__(self, value=None, error=None):
        self.value = value
        self.error = error

    @property
    def ok(self):
        return self.error is None

    @classmethod
    def capture(cls, fn, item):
        """Run ``fn(item)`` on the calling thread, capturing either
        outcome (the inline, no-fan-out path)."""
        try:
            return cls(value=fn(item))
        except Exception as exc:
            return cls(error=exc)

    @classmethod
    def from_future(cls, future):
        """Wait for `future` and wrap its result or exception."""
        try:
            return cls(value=future.result())
        except Exception as exc:
            return cls(error=exc)

    def __repr__(self):
        if self.ok:
            return "FanoutOutcome(ok)"
        return "FanoutOutcome(error=%s)" % type(self.error).__name__


def _trace_adopting(fn):
    """Wrap `fn` so the worker thread adopts the submitting thread's
    current span as its parent (spans opened by the task nest under
    the plan step that fanned it out, not under a foreign root)."""
    tracer = obs.active()
    if not tracer.enabled:
        return fn
    parent = tracer.current

    def adopted(*args):
        with tracer.adopt(parent):
            return fn(*args)

    return adopted


class ParallelExecutor:
    """A bounded thread-pool fanning independent source calls out.

    Args:
        max_workers: pool width — concurrent tasks beyond it queue
            (must be >= 1; defaults to :data:`DEFAULT_MAX_WORKERS`).
        name: thread-name prefix, visible in trace dumps and debuggers.
    """

    def __init__(self, max_workers=DEFAULT_MAX_WORKERS, name="medpar"):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.name = name
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self):
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix=self.name,
                )
            return self._pool

    def shutdown(self):
        """Stop the worker threads (idempotent; the executor lazily
        restarts its pool if used again)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.shutdown()
        return False

    # -- deterministic fan-out ---------------------------------------------

    def map_ordered(self, items, fn, kind="fanout"):
        """Run ``fn(item)`` for every item; outcomes in *input* order.

        The deterministic merge: the returned list of
        :class:`FanoutOutcome` is positionally aligned with `items`
        regardless of completion order.  Every task runs even when an
        earlier one fails — error policy (skip, degrade, raise first
        in order) stays with the caller.  A single item runs inline on
        the calling thread (no fan-out, identical traces to the
        sequential path).

        Args:
            items: the work list (e.g. selected source names, already
                sorted by the caller).
            fn: one-argument callable applied to each item.
            kind: label for the ``fanout.batches`` / ``fanout.tasks``
                counters.
        """
        items = list(items)
        if not items:
            return []
        if len(items) == 1:
            return [FanoutOutcome.capture(fn, items[0])]
        pool = self._ensure_pool()
        obs.count("fanout.batches", kind=kind)
        obs.count("fanout.tasks", len(items), kind=kind)
        adopted = _trace_adopting(fn)
        futures = [pool.submit(adopted, item) for item in items]
        return [FanoutOutcome.from_future(future) for future in futures]

    # -- wall-clock timeout ------------------------------------------------

    def call(self, fn, timeout=None):
        """Run ``fn()``, abandoning it after `timeout` wall seconds.

        The callable runs on a dedicated daemon thread (never a pool
        worker: a guarded call may itself be running inside the pool,
        and borrowing a second worker per timed call could deadlock a
        saturated pool).  On expiry a
        :class:`~repro.errors.SourceTimeoutError` is raised and the
        hung thread is abandoned — its eventual result is discarded.
        With ``timeout=None`` this is just ``fn()``.

        Args:
            fn: zero-argument callable (one source-call attempt).
            timeout: wall-clock seconds to wait (None = unbounded).
        """
        if timeout is None:
            return fn()
        box: Dict[str, object] = {}
        adopted = _trace_adopting(lambda: fn())

        def run():
            try:
                box["value"] = adopted()
            except BaseException as exc:  # delivered to the caller
                box["error"] = exc

        thread = threading.Thread(
            target=run, name="%s-timed" % self.name, daemon=True
        )
        thread.start()
        thread.join(timeout)
        if thread.is_alive():
            obs.count("fanout.timeouts")
            raise SourceTimeoutError(
                "call abandoned after %.3fs wall-clock timeout" % timeout
            )
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box["value"]

    def __repr__(self):
        return "ParallelExecutor(max_workers=%d)" % self.max_workers
