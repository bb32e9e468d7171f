"""Tests for source-failure tolerance during plan execution."""

import pytest

from repro.errors import SourceError
from repro.neuro import build_scenario, section5_query
from repro.neuro.ncmir import LOCATION_CONCEPTS
from repro.resilience import ResiliencePolicy, SourceGuard
from repro.sources import AnchorSpec, Column, RelStore, Wrapper


class FlakyWrapper(Wrapper):
    """A protein_amount source whose query endpoint always fails."""

    def query(self, source_query):
        raise SourceError("connection to %s lost" % self.name)


def flaky_protein_source():
    store = RelStore("FLAKY")
    store.create_table(
        "protein_amount",
        [
            Column("id", "int"),
            Column("protein", "str"),
            Column("location", "str"),
            Column("amount", "float"),
        ],
        key="id",
    ).insert(
        {"id": 1, "protein": "Calbindin", "location": "Purkinje Cell", "amount": 9.9}
    )
    wrapper = FlakyWrapper("FLAKY", store)
    # declare exports through the parent class (query stays broken)
    Wrapper.export_class(
        wrapper,
        "protein_amount",
        "protein_amount",
        "id",
        methods={
            "protein_name": "protein",
            "location": "location",
            "amount": "amount",
        },
        anchor=AnchorSpec(column="location", mapping=dict(LOCATION_CONCEPTS)),
        selectable={"location", "protein_name", "organism"}
        & {"location", "protein_name"},
    )
    return wrapper


def guarded(mediator):
    """`mediator` under a guard that never retries: a failing source
    is skipped and the plan goes on without it."""
    mediator.resilience = SourceGuard(ResiliencePolicy(max_retries=0))
    return mediator


@pytest.fixture
def scenario_with_flaky():
    scenario = build_scenario(eager=False)
    scenario.mediator.register(flaky_protein_source(), eager=False)
    return scenario


class TestFailureHandling:
    def test_failure_aborts_by_default(self, scenario_with_flaky):
        mediator = scenario_with_flaky.mediator
        with pytest.raises(SourceError):
            mediator.correlate(section5_query())

    def test_guard_skips_failed_sources_and_continues(self, scenario_with_flaky):
        mediator = guarded(scenario_with_flaky.mediator)
        plan, context = mediator.correlate(section5_query())
        # the flaky source was selected (it anchors at Purkinje concepts)
        assert "FLAKY" in context.selected_sources
        # ... failed ...
        assert [source for source, _exc in context.errors] == ["FLAKY"]
        # ... and the healthy source still answered
        proteins = {group for group, _d in context.answers}
        assert "Ryanodine Receptor" in proteins

    def test_no_errors_recorded_when_all_healthy(self):
        mediator = guarded(build_scenario(eager=False).mediator)
        _plan, context = mediator.correlate(section5_query())
        assert context.errors == []
        assert not context.degraded

    def test_skipped_sources_exposed_on_context(self, scenario_with_flaky):
        mediator = guarded(scenario_with_flaky.mediator)
        _plan, context = mediator.correlate(section5_query())
        assert [source for source, _exc in context.errors] == ["FLAKY"]
        assert context.degraded

    def test_unexpected_wrapper_exceptions_normalize_to_source_error(self):
        # a buggy wrapper raising KeyError must surface as SourceError
        # at the mediator boundary, with the original as __cause__
        class BuggyWrapper(Wrapper):
            def query(self, source_query):
                raise KeyError("oops, wrong column")

        store = RelStore("BUGGY")
        store.create_table(
            "t", [Column("id", "int"), Column("v", "str")], key="id"
        ).insert({"id": 1, "v": "x"})
        wrapper = BuggyWrapper("BUGGY", store)
        Wrapper.export_class(
            wrapper, "thing", "t", "id", methods={"v": "v"}
        )
        mediator = build_scenario(eager=False).mediator
        mediator.register(wrapper, eager=False)
        from repro.sources.wrapper import SourceQuery

        with pytest.raises(SourceError) as excinfo:
            mediator.source_query("BUGGY", SourceQuery("thing", {}, None))
        assert "BUGGY" in str(excinfo.value)
        assert "KeyError" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, KeyError)

    def test_correlate_result_surfaces_degradation(self, scenario_with_flaky):
        result = guarded(scenario_with_flaky.mediator).correlate(
            section5_query()
        )
        # tuple compatibility is preserved ...
        plan, context = result
        assert context is result.context
        # ... and degradation is visible on the result itself
        assert result.degraded
        report = result.degraded_answer().report_for("FLAKY")
        assert report is not None
        assert report.status == "skipped"
        assert result.answers == context.answers

    def test_healthy_correlate_result_is_not_degraded(self):
        result = build_scenario(eager=False).mediator.correlate(
            section5_query()
        )
        assert not result.degraded
        assert not result.degraded_answer()
        assert not result.degraded_answer().degraded

    def test_skip_is_traced_as_span_event(self, scenario_with_flaky):
        from repro import obs

        mediator = guarded(scenario_with_flaky.mediator)
        with obs.capture("flaky") as tracer:
            mediator.correlate(section5_query())
        events = [
            event
            for span in tracer.iter_spans()
            for event in span.events
            if event.name == "plan.source_skipped"
        ]
        assert [e.attrs["source"] for e in events] == ["FLAKY"]
        assert events[0].attrs["error"] == "CapabilityError"
        assert tracer.metrics.counter_total("planner.sources_skipped") == 1
        # the skip lands inside the retrieve plan step
        retrieve = next(
            s for s in tracer.find_spans("plan.step")
            if s.attrs["kind"] == "retrieve"
        )
        assert any(e.name == "plan.source_skipped" for e in retrieve.events)


class TestMediatorResilience:
    def make_policy(self, **kwargs):
        from repro.resilience import ResiliencePolicy, VirtualClock

        clock = VirtualClock()
        kwargs.setdefault("backoff_base", 0.01)
        return ResiliencePolicy(clock=clock.now, sleep=clock.sleep, **kwargs)

    def test_policy_degrades_instead_of_raising(self):
        # under a guard a source dying mid-plan is retried, then
        # skipped
        from repro.resilience import (
            FaultInjectingWrapper,
            FaultSchedule,
            SourceGuard,
        )

        mediator = build_scenario(eager=False).mediator
        mediator.resilience = SourceGuard(self.make_policy(max_retries=1))
        record = mediator._sources["NCMIR"]
        record.wrapper = FaultInjectingWrapper(
            record.wrapper, FaultSchedule().kill("NCMIR", after=1)
        )
        result = mediator.correlate(section5_query())  # does not raise
        assert result.degraded
        report = result.degraded_answer().report_for("NCMIR")
        assert report.status == "skipped"
        assert report.attempts >= 2  # the retry happened
        assert "NCMIR" in [source for source, _exc in result.context.errors]

    def test_transient_failure_is_invisible_in_the_answer(self):
        # one injected outage, absorbed by a retry: same answers as a
        # healthy run, degraded stays False, but the report shows it
        from repro.resilience import (
            Fault,
            FaultInjectingWrapper,
            FaultSchedule,
            SourceGuard,
        )

        healthy = build_scenario(eager=False).mediator.correlate(
            section5_query()
        )
        mediator = build_scenario(eager=False).mediator
        mediator.resilience = SourceGuard(self.make_policy(max_retries=1))
        record = mediator._sources["NCMIR"]
        record.wrapper = FaultInjectingWrapper(
            record.wrapper, FaultSchedule().add("NCMIR", 1, Fault("error"))
        )
        result = mediator.correlate(section5_query())
        assert not result.degraded
        assert [(g, d.total()) for g, d in result.answers] == [
            (g, d.total()) for g, d in healthy.answers
        ]
        report = result.degraded_answer().report_for("NCMIR")
        assert report.status == "retried"
        assert report.retries == 1

    def test_mediator_accepts_policy_at_construction(self):
        from repro.core.mediator import Mediator
        from repro.neuro.anatom import build_anatom

        policy = self.make_policy()
        mediator = Mediator(build_anatom(), resilience=policy)
        assert mediator.resilience is not None
        assert mediator.resilience.policy is policy

    def test_mediator_rejects_bad_resilience_argument(self):
        from repro.errors import MediatorError
        from repro.core.mediator import Mediator
        from repro.neuro.anatom import build_anatom
        from repro.resilience import SourceGuard

        with pytest.raises(MediatorError):
            Mediator(build_anatom(), resilience="retry hard, please")
        # a guard is assigned, not passed: the policy is the one form
        with pytest.raises(MediatorError):
            Mediator(build_anatom(), resilience=SourceGuard(self.make_policy()))

    def test_degraded_answer_covers_only_this_plan(self):
        # two consecutive plans on one mediator: each report slices out
        # its own guard outcomes
        from repro.resilience import SourceGuard

        mediator = build_scenario(eager=False).mediator
        mediator.resilience = SourceGuard(self.make_policy(max_retries=1))
        mediator.register(flaky_protein_source(), eager=False)
        first = mediator.correlate(section5_query())
        second = mediator.correlate(section5_query())
        for result in (first, second):
            report = result.degraded_answer().report_for("FLAKY")
            assert report is not None
            # one plan's worth of calls, not the running total
            assert report.calls <= 2
