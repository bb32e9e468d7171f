"""Tests for query EXPLAIN: Mediator.explain on a CorrelationQuery."""

import json

import pytest

from repro import obs
from repro.core.planner import QueryExplain
from repro.neuro import build_scenario, section5_query

from .test_failure_handling import flaky_protein_source, guarded


@pytest.fixture(scope="module")
def explained():
    mediator = build_scenario(eager=False).mediator
    return mediator.explain(section5_query())


class TestQueryExplain:
    def test_correlation_query_dispatches_to_planner(self, explained):
        assert isinstance(explained, QueryExplain)

    def test_steps_carry_timing_and_cardinality(self, explained):
        kinds = [step["kind"] for step in explained.steps]
        assert kinds == [
            "push-selection",
            "select-sources",
            "retrieve",
            "compute-lub",
            "aggregate",
        ]
        assert [step["index"] for step in explained.steps] == [1, 2, 3, 4, 5]
        for step in explained.steps:
            assert step["seconds"] >= 0
            assert step["cardinality"] >= 1
        aggregate = explained.steps[-1]
        assert aggregate["cardinality"] == len(explained.context.answers)

    def test_explain_actually_executes(self, explained):
        proteins = {group for group, _d in explained.context.answers}
        assert "Calbindin" in proteins

    def test_metrics_recorded(self, explained):
        assert explained.metrics.counter_total("datalog.rule_firings") > 0
        assert explained.metrics.counter_total("source.queries") > 0

    def test_format_masked_is_deterministic(self, explained):
        text = explained.format(mask_timings=True)
        assert text == explained.format(mask_timings=True)
        assert text.startswith("EXPLAIN correlation plan (5 steps)")
        assert "time=--" in text
        assert "cardinality=" in text
        assert "degraded" not in text

    def test_as_dict_is_json_ready(self, explained):
        document = explained.as_dict(mask_timings=True)
        json.dumps(document)
        assert document["degraded"] is False
        assert document["skipped_sources"] == []
        assert all(step["seconds"] is None for step in document["steps"])

    def test_explain_leaves_no_tracer_installed(self):
        mediator = build_scenario(eager=False).mediator
        mediator.explain(section5_query())
        assert obs.active() is obs.NOOP

    def test_explain_nested_under_outer_tracer(self):
        """explain() uses a private tracer; the outer one is restored."""
        mediator = build_scenario(eager=False).mediator
        with obs.capture("outer") as outer:
            explained = mediator.explain(section5_query())
            assert obs.active() is outer
        assert explained.metrics.counter_total("planner.steps") == 5

    def test_degraded_explain_reports_skips(self):
        scenario = build_scenario(eager=False)
        scenario.mediator.register(flaky_protein_source(), eager=False)
        explained = guarded(scenario.mediator).explain(section5_query())
        assert [source for source, _exc in explained.context.errors] == ["FLAKY"]
        retrieve = next(
            step for step in explained.steps if step["kind"] == "retrieve"
        )
        assert retrieve["events"][0]["source"] == "FLAKY"
        text = explained.format(mask_timings=True)
        assert "! FLAKY:" in text
        # the DegradedAnswer block has FLAKY's row, with its status
        rows = [line.split()[:2] for line in text.splitlines()]
        assert ["FLAKY", "skipped"] in rows

    def test_degraded_explain_carries_the_degraded_answer(self):
        scenario = build_scenario(eager=False)
        scenario.mediator.register(flaky_protein_source(), eager=False)
        explained = guarded(scenario.mediator).explain(section5_query())
        report = explained.degraded_answer().report_for("FLAKY")
        assert report is not None
        assert report.status == "skipped"
        text = explained.format(mask_timings=True)
        assert "answer DEGRADED" in text
        assert "FLAKY" in text
        document = explained.as_dict(mask_timings=True)
        json.dumps(document)
        assert document["degraded_answer"]["degraded"] is True
        sources = {
            entry["source"]: entry
            for entry in document["degraded_answer"]["sources"]
        }
        assert sources["FLAKY"]["status"] == "skipped"

    def test_healthy_explain_degraded_answer_is_complete(self, explained):
        assert not explained.degraded_answer().degraded
        document = explained.as_dict(mask_timings=True)
        assert document["degraded_answer"]["degraded"] is False

    def test_explain_under_resilience_counts_guarded_calls(self):
        from repro.resilience import ResiliencePolicy, SourceGuard

        mediator = build_scenario(eager=False).mediator
        mediator.resilience = SourceGuard(ResiliencePolicy())
        explained = mediator.explain(section5_query())
        reports = explained.degraded_answer().sources
        assert {r.source for r in reports} == {"NCMIR", "SENSELAB"}
        assert all(r.status == "ok" for r in reports)
        # healthy guarded runs keep the EXPLAIN text clean
        assert "degraded" not in explained.format(mask_timings=True)

    def test_flogic_query_still_returns_derivation(self):
        mediator = build_scenario().mediator
        obj = sorted(
            row["X"]
            for row in mediator.ask("X : 'Compartment'")
            if str(row["X"]).startswith("NCMIR")
        )[0]
        derivation = mediator.explain("'%s' : 'Compartment'" % obj)
        assert not isinstance(derivation, QueryExplain)
        assert derivation is not None and derivation.format()
