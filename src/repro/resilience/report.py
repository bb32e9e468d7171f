"""The degraded-answer contract: structured per-source degradation.

A federated answer is *degraded* when any selected source could not
contribute normally — it was skipped after exhausted retries, or its
breaker was open.  The contract of the resilience layer is that such
answers are never silent: :class:`DegradedAnswer` names every source
the plan touched, what happened to it, and how hard the mediator
tried.

Statuses (worst wins when aggregating a source's calls):

* ``breaker-open`` — at least one call was shed by an open breaker;
* ``skipped`` — the source failed for good and its contribution is
  missing from the answer;
* ``retried`` — transient failures, recovered by retrying;
* ``ok`` — every call succeeded first try.

Rendering (:meth:`DegradedAnswer.format`) is deterministic — no
timings, sorted sources — so identical fault schedules reproduce
identical reports byte-for-byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .guard import (
    STATUS_BREAKER_OPEN,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RETRIED,
)

#: aggregation priority: the worst status of a source's calls wins
_STATUS_RANK = {
    STATUS_BREAKER_OPEN: 0,
    "skipped": 1,
    STATUS_FAILED: 1,  # a failed call that degraded the plan == skipped
    STATUS_RETRIED: 2,
    STATUS_OK: 3,
}


class SourceReport:
    """Aggregated resilience record of one source across a plan."""

    __slots__ = (
        "source",
        "status",
        "calls",
        "attempts",
        "retries",
        "breaker_state",
        "error",
    )

    def __init__(self, source):
        self.source = source
        self.status = STATUS_OK
        self.calls = 0
        self.attempts = 0
        self.retries = 0
        self.breaker_state = "closed"
        self.error: Optional[str] = None

    def absorb_status(self, status):
        if _STATUS_RANK[status] < _STATUS_RANK[self.status]:
            self.status = (
                "skipped" if status == STATUS_FAILED else status
            )

    def as_dict(self):
        return {
            "source": self.source,
            "status": self.status,
            "calls": self.calls,
            "attempts": self.attempts,
            "retries": self.retries,
            "breaker_state": self.breaker_state,
            "error": self.error,
        }

    def format_line(self):
        parts = [
            "%-12s %-13s" % (self.source, self.status),
            "calls=%d attempts=%d retries=%d" % (
                self.calls, self.attempts, self.retries,
            ),
            "breaker=%s" % self.breaker_state,
        ]
        if self.error:
            parts.append("error=%s" % self.error)
        return "  ".join(parts)

    def __repr__(self):
        return "SourceReport(%r, %s)" % (self.source, self.status)


class DegradedAnswer:
    """The per-source degradation report of one correlation answer."""

    def __init__(self, sources):
        #: :class:`SourceReport` records, sorted by source name
        self.sources: List[SourceReport] = sorted(
            sources, key=lambda r: r.source
        )

    @property
    def degraded(self):
        """True when any source's contribution is missing."""
        return any(
            report.status in ("skipped", STATUS_BREAKER_OPEN)
            for report in self.sources
        )

    def report_for(self, source):
        for report in self.sources:
            if report.source == source:
                return report
        return None

    def as_dict(self):
        return {
            "degraded": self.degraded,
            "sources": [report.as_dict() for report in self.sources],
        }

    def format(self):
        """Deterministic human-readable report."""
        if not self.sources:
            return "answer complete: no guarded source calls"
        lines = [
            "answer %s (%d sources)"
            % ("DEGRADED" if self.degraded else "complete", len(self.sources))
        ]
        for report in self.sources:
            lines.append("  " + report.format_line())
        return "\n".join(lines)

    def __bool__(self):
        return self.degraded

    def __repr__(self):
        return "DegradedAnswer(degraded=%r, sources=%d)" % (
            self.degraded,
            len(self.sources),
        )


def build_degraded_answer(outcomes, skip_records, guard=None, now=None):
    """Assemble a :class:`DegradedAnswer` from a plan's guard-call
    outcomes and its skip records (``PlanContext.errors``).

    A skip record with no guarded call behind it is a source the
    retrieve step gave up on before calling it (say, its capabilities
    cannot serve the query): it yields one ``skipped`` entry with one
    attempt.
    """
    reports: Dict[str, SourceReport] = {}

    def report_of(source):
        report = reports.get(source)
        if report is None:
            report = SourceReport(source)
            reports[source] = report
        return report

    for outcome in outcomes:
        report = report_of(outcome.source)
        report.calls += 1
        report.attempts += outcome.attempts
        report.retries += outcome.retries
        report.absorb_status(outcome.status)
        if outcome.error is not None:
            report.error = outcome.error

    for source, exc in skip_records:
        report = report_of(source)
        report.absorb_status(STATUS_FAILED)
        report.error = "%s: %s" % (type(exc).__name__, exc)
        if report.calls == 0:
            # no guarded call ran (a pre-call capability skip): the
            # one attempt is the skip itself
            report.calls = 1
            report.attempts = 1

    if guard is not None:
        if now is None:
            now = guard.policy.clock()
        for report in reports.values():
            report.breaker_state = guard.breakers.state_for_source(
                report.source, now
            )

    return DegradedAnswer(reports.values())
