"""The ``repro chaos`` harness: deterministic chaos runs + contract.

Two modes, both seeded and exactly reproducible:

* **scenario mode** (:func:`run_chaos_scenario`) — the shipped KIND
  scenario runs its Section 5 query over the XML dialogue while a
  seeded :class:`~repro.resilience.faults.FaultSchedule` injects a
  transient fault into the seed source and *kills* the retrieval
  source mid-plan.  The run must complete with a degraded (not
  raised) answer whose :class:`~repro.resilience.report.DegradedAnswer`
  names the dead source, its attempt counts, and its breaker state —
  the degraded-answer contract.  Identical seeds produce
  byte-identical reports (virtual clock, seeded jitter, seeded
  schedule).
* **script mode** (:func:`run_chaos_script`) — any deployment script
  runs with every registered wrapper transparently decorated by a
  :class:`~repro.resilience.faults.FaultInjectingWrapper` injecting
  *recoverable* faults, and every mediator given a default
  :class:`~repro.resilience.policy.ResiliencePolicy`.  The contract:
  the script still completes, and every raising fault is absorbed by
  the resilience layer (counted as failed attempts by the guards —
  nothing slips past it).
"""

from __future__ import annotations

import contextlib
import io
import random
import runpy
from typing import Dict, List, Optional, Tuple

from .faults import (
    Fault,
    FaultInjectingWrapper,
    FaultSchedule,
    KIND_ERROR,
    KIND_LATENCY,
    KIND_MALFORMED,
    KIND_TRANSPORT,
    MALFORMED_VARIANTS,
    VirtualClock,
)
from .guard import STATUS_OK, STATUS_RETRIED, SourceGuard
from .policy import ResiliencePolicy

#: the retrieval source the Section 5 plan depends on (killed mid-plan)
SCENARIO_KILL_SOURCE = "NCMIR"
#: the seed source of the Section 5 plan (recovers via retries)
SCENARIO_SEED_SOURCE = "SENSELAB"


class ContractCheck:
    """One pass/fail assertion of the degraded-answer contract."""

    __slots__ = ("name", "passed", "detail")

    def __init__(self, name, passed, detail):
        self.name = name
        self.passed = bool(passed)
        self.detail = detail

    def as_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}

    def format_line(self):
        return "[%s] %s: %s" % (
            "PASS" if self.passed else "FAIL",
            self.name,
            self.detail,
        )


class ChaosReport:
    """The deterministic outcome of one seeded chaos run."""

    def __init__(
        self,
        mode,
        seed,
        schedule_lines,
        checks,
        degraded_answer=None,
        answers=(),
        injected=None,
        virtual_slept=None,
        target=None,
    ):
        self.mode = mode
        self.seed = seed
        self.schedule_lines = list(schedule_lines)
        self.checks: List[ContractCheck] = list(checks)
        self.degraded_answer = degraded_answer
        self.answers = list(answers)
        self.injected = dict(injected or {})
        self.virtual_slept = virtual_slept
        self.target = target

    @property
    def ok(self):
        return all(check.passed for check in self.checks)

    def as_dict(self):
        return {
            "mode": self.mode,
            "seed": self.seed,
            "target": self.target,
            "schedule": self.schedule_lines,
            "injected": self.injected,
            "degraded_answer": (
                self.degraded_answer.as_dict()
                if self.degraded_answer is not None
                else None
            ),
            "answers": self.answers,
            "virtual_slept_s": self.virtual_slept,
            "contract": [check.as_dict() for check in self.checks],
            "ok": self.ok,
        }

    def format(self):
        header = "repro chaos — seed=%s" % self.seed
        if self.target is not None:
            header += " target=%s" % self.target
        lines = [header]
        if self.schedule_lines:
            lines.append("fault schedule:")
            lines.extend("  %s" % line for line in self.schedule_lines)
        if self.injected:
            lines.append(
                "injected: "
                + ", ".join(
                    "%s=%d" % (kind, count)
                    for kind, count in sorted(self.injected.items())
                )
            )
        if self.degraded_answer is not None:
            lines.append(self.degraded_answer.format())
        if self.answers:
            lines.append("answers:")
            lines.extend(
                "  %-22s %8.3f" % (group, total)
                for group, total in self.answers
            )
        elif self.mode == "scenario":
            lines.append("answers: none (retrieval source lost)")
        if self.virtual_slept is not None:
            lines.append(
                "virtual time slept in backoff: %.4fs" % self.virtual_slept
            )
        lines.append("contract:")
        lines.extend("  %s" % check.format_line() for check in self.checks)
        lines.append("contract: %s" % ("OK" if self.ok else "VIOLATED"))
        return "\n".join(lines)

    def __repr__(self):
        return "ChaosReport(%s, seed=%s, ok=%r)" % (
            self.mode,
            self.seed,
            self.ok,
        )


# ---------------------------------------------------------------------------
# scenario mode
# ---------------------------------------------------------------------------


def _scenario_schedule(seed):
    """The Section 5 chaos schedule: one transient fault on the seed
    source, latency plus a mid-plan kill on the retrieval source."""
    rng = random.Random(seed)
    kind = (KIND_ERROR, KIND_TRANSPORT, KIND_MALFORMED)[rng.randrange(3)]
    variant = (
        MALFORMED_VARIANTS[rng.randrange(len(MALFORMED_VARIANTS))]
        if kind == KIND_MALFORMED
        else None
    )
    schedule = FaultSchedule()
    schedule.add(SCENARIO_SEED_SOURCE, 1, Fault(kind, variant=variant))
    schedule.add(
        SCENARIO_KILL_SOURCE, 1, Fault(KIND_LATENCY, latency=0.25)
    )
    # the kill lands *mid-plan*: the source answers its first retrieval
    # call, then dies for good
    schedule.kill(SCENARIO_KILL_SOURCE, after=1)
    return schedule


def run_chaos_scenario(seed, max_retries=2):
    """Run the Section 5 scenario under the seeded fault schedule and
    check the degraded-answer contract; returns a :class:`ChaosReport`.

    The report is byte-identical across runs of the same `seed`: the
    fault schedule is positional, jitter streams are per
    ``(source, class)``, and the policy runs on a virtual clock, so
    backoff sleeps and breaker cooldowns advance virtual time only.
    The policy sets no call timeout: the injected latency costs
    virtual time without failing an attempt.
    """
    from ..neuro import build_scenario, section5_query

    clock = VirtualClock()
    policy = ResiliencePolicy(
        max_retries=max_retries,
        backoff_base=0.05,
        jitter=0.1,
        seed=seed,
        breaker_threshold=max_retries + 1,
        breaker_cooldown=120.0,
        clock=clock.now,
        sleep=clock.sleep,
    )
    schedule = _scenario_schedule(seed)

    scenario = build_scenario(eager=False, include_anatom_source=True)
    mediator = scenario.mediator
    mediator.dialogue_via_xml = True  # exercise the full XML wire path
    mediator.resilience = SourceGuard(policy)
    for name in mediator.source_names():
        record = mediator._sources[name]
        record.wrapper = FaultInjectingWrapper(
            record.wrapper, schedule, clock=clock, mode="xml"
        )

    checks = []
    result = None
    error = None
    try:
        result = mediator.correlate(section5_query())
    except Exception as exc:  # the contract forbids raising
        error = exc
    checks.append(
        ContractCheck(
            "completed",
            error is None,
            "correlate returned a degraded answer instead of raising"
            if error is None
            else "raised %s: %s" % (type(error).__name__, error),
        )
    )

    degraded_answer = None
    answers = []
    if result is not None:
        degraded_answer = result.degraded_answer()
        answers = [
            (group, distribution.total())
            for group, distribution in result.answers
        ]
        checks.append(
            ContractCheck(
                "degraded",
                result.degraded and degraded_answer.degraded,
                "the answer is marked degraded on the result itself",
            )
        )
        killed = degraded_answer.report_for(SCENARIO_KILL_SOURCE)
        checks.append(
            ContractCheck(
                "names-dead-source",
                killed is not None and killed.status == "skipped",
                "report names %s as skipped" % SCENARIO_KILL_SOURCE
                if killed is not None
                else "report lacks %s" % SCENARIO_KILL_SOURCE,
            )
        )
        if killed is not None:
            checks.append(
                ContractCheck(
                    "attempt-counts",
                    killed.attempts >= 1 + max_retries,
                    "%s attempts=%d retries=%d (budget 1+%d per call)"
                    % (
                        SCENARIO_KILL_SOURCE,
                        killed.attempts,
                        killed.retries,
                        max_retries,
                    ),
                )
            )
            checks.append(
                ContractCheck(
                    "breaker-state",
                    killed.breaker_state == "open",
                    "%s breaker is %s"
                    % (SCENARIO_KILL_SOURCE, killed.breaker_state),
                )
            )
        seeded = degraded_answer.report_for(SCENARIO_SEED_SOURCE)
        checks.append(
            ContractCheck(
                "transient-recovered",
                seeded is not None
                and seeded.status in (STATUS_OK, STATUS_RETRIED),
                "%s recovered via retries (status=%s)"
                % (
                    SCENARIO_SEED_SOURCE,
                    seeded.status if seeded is not None else "absent",
                ),
            )
        )

    injected: Dict[str, int] = {}
    for record in mediator._sources.values():
        for kind, count in record.wrapper.injected_counts().items():
            injected[kind] = injected.get(kind, 0) + count

    return ChaosReport(
        "scenario",
        seed,
        schedule.describe(),
        checks,
        degraded_answer=degraded_answer,
        answers=answers,
        injected=injected,
        virtual_slept=clock.slept,
    )


# ---------------------------------------------------------------------------
# script mode
# ---------------------------------------------------------------------------


class ChaosHarness:
    """Patches :class:`~repro.core.mediator.Mediator` so that, for the
    duration of :meth:`activate`, every registered wrapper misbehaves
    on a seeded recoverable schedule and every mediator carries a
    default resilience policy."""

    def __init__(self, seed, rate=0.2, calls=60, max_retries=3):
        self.seed = seed
        self.rate = rate
        self.calls = calls
        self.max_retries = max_retries
        self.clock = VirtualClock()
        self.wrapped: List[FaultInjectingWrapper] = []
        self.mediators = []

    def make_policy(self):
        return ResiliencePolicy(
            max_retries=self.max_retries,
            backoff_base=0.02,
            seed=self.seed,
            breaker_threshold=2 * self.max_retries + 2,
            breaker_cooldown=60.0,
            clock=self.clock.now,
            sleep=self.clock.sleep,
        )

    def make_schedule(self, source):
        # recoverable by construction: at most max_retries - 1
        # consecutive faulted call indices per source
        schedule = FaultSchedule.from_seed(
            self.seed,
            [source],
            calls=self.calls,
            rate=self.rate,
            kinds=(KIND_ERROR, KIND_TRANSPORT, KIND_LATENCY),
            max_consecutive=max(1, self.max_retries - 1),
        )
        # the seeded draw may leave a short-lived source untouched;
        # always fault the first data-plane call so every script that
        # queries a source exercises the resilience layer (worst case
        # this lengthens a faulted run to max_retries consecutive
        # failures, still within the 1 + max_retries attempt budget)
        if not any(
            fault.kind != KIND_LATENCY
            for fault in schedule.faults_for(source, 1)
        ):
            schedule.add(source, 1, Fault(KIND_ERROR))
        return schedule

    @contextlib.contextmanager
    def activate(self):
        from ..core.mediator import Mediator

        harness = self
        original_init = Mediator.__init__
        original_register = Mediator.register

        def chaos_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            if self.resilience is None:
                self.resilience = SourceGuard(harness.make_policy())
            harness.mediators.append(self)

        def chaos_register(self, wrapper, *args, **kwargs):
            facade = FaultInjectingWrapper(
                wrapper,
                harness.make_schedule(wrapper.name),
                clock=harness.clock,
                mode="xml" if self.dialogue_via_xml else "direct",
            )
            harness.wrapped.append(facade)
            return original_register(self, facade, *args, **kwargs)

        Mediator.__init__ = chaos_init
        Mediator.register = chaos_register
        try:
            yield self
        finally:
            Mediator.__init__ = original_init
            Mediator.register = original_register

    # -- contract ----------------------------------------------------------

    def injected_counts(self):
        counts: Dict[str, int] = {}
        for facade in self.wrapped:
            for kind, count in facade.injected_counts().items():
                counts[kind] = counts.get(kind, 0) + count
        return dict(sorted(counts.items()))

    def raising_faults_injected(self):
        """Faults that make an attempt fail (latency alone does not)."""
        counts = self.injected_counts()
        return sum(
            counts.get(kind, 0)
            for kind in (KIND_ERROR, KIND_TRANSPORT, KIND_MALFORMED)
        )

    def failed_attempts_absorbed(self):
        """Failed attempts the guards saw (retried or degraded)."""
        return sum(
            mediator.resilience.failed_attempts
            for mediator in self.mediators
            if mediator.resilience is not None
        )

    def contract_checks(self, error):
        checks = [
            ContractCheck(
                "completed",
                error is None,
                "script completed under fault injection"
                if error is None
                else "raised %s: %s" % (type(error).__name__, error),
            )
        ]
        raising = self.raising_faults_injected()
        absorbed = self.failed_attempts_absorbed()
        checks.append(
            ContractCheck(
                "faults-absorbed",
                absorbed == raising,
                "%d raising faults injected, %d failed attempts absorbed "
                "by the resilience layer" % (raising, absorbed),
            )
        )
        return checks


def run_chaos_script(path, seed, rate=0.2, keep_output=False):
    """Run one deployment script under the chaos harness; returns a
    :class:`ChaosReport` (script mode)."""
    harness = ChaosHarness(seed, rate=rate)
    error: Optional[BaseException] = None
    with harness.activate():
        try:
            if keep_output:
                runpy.run_path(path, run_name="__main__")
            else:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink):
                    runpy.run_path(path, run_name="__main__")
        except Exception as exc:
            error = exc
    schedule_lines = [
        "%s: seeded recoverable faults (rate=%.2f)" % (facade.name, rate)
        for facade in harness.wrapped
    ]
    return ChaosReport(
        "script",
        seed,
        schedule_lines,
        harness.contract_checks(error),
        injected=harness.injected_counts(),
        virtual_slept=harness.clock.slept,
        target=path,
    )
