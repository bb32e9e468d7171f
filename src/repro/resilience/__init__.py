"""medguard: the source-resilience layer of the mediator.

Real federated sources flake, hang, and return garbage; medguard makes
the mediator survive them deterministically and observably:

* :class:`ResiliencePolicy` — retries with deterministic exponential
  backoff (seeded jitter), per-call timeout, whole-plan deadline
  budget and circuit-breaker knobs;
* :class:`SourceGuard` — executes every
  :meth:`~repro.core.mediator.Mediator.source_query` under the policy,
  keeping a closed/open/half-open :class:`CircuitBreaker` per
  ``(source, class)``;
* :class:`DegradedAnswer` — the structured degradation report carried
  by correlation results and ``EXPLAIN`` output (the degraded-answer
  contract);
* :class:`FaultInjectingWrapper` / :class:`FaultSchedule` — the
  deterministic fault-injection harness behind ``repro chaos``.

Attach a policy at construction time (``Mediator(dm,
resilience=ResiliencePolicy(...))``); without one the retrieval hot
path is untouched (a single ``is None`` check, same discipline as the
medtrace no-op default).  See ``docs/resilience.md``.
"""

from .breaker import BreakerRegistry, CircuitBreaker
from .faults import (
    FAULT_KINDS,
    Fault,
    FaultInjectingWrapper,
    FaultSchedule,
    VirtualClock,
)
from .guard import (
    CallOutcome,
    STATUS_BREAKER_OPEN,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RETRIED,
    SourceGuard,
)
from .policy import ResiliencePolicy
from .report import DegradedAnswer, SourceReport, build_degraded_answer

__all__ = [
    "BreakerRegistry",
    "CallOutcome",
    "CircuitBreaker",
    "DegradedAnswer",
    "FAULT_KINDS",
    "Fault",
    "FaultInjectingWrapper",
    "FaultSchedule",
    "ResiliencePolicy",
    "STATUS_BREAKER_OPEN",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_RETRIED",
    "SourceGuard",
    "SourceReport",
    "VirtualClock",
    "build_degraded_answer",
]
