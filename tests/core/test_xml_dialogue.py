"""Tests for the XML query/answer dialogue inside the mediator."""

import pytest

from repro import obs
from repro.core import Mediator
from repro.neuro import (
    build_anatom,
    build_ncmir,
    build_senselab,
    build_synapse,
    section5_query,
)
from repro.sources import SourceQuery


def make_mediator(dialogue_via_xml):
    mediator = Mediator(
        build_anatom(), name="KIND", dialogue_via_xml=dialogue_via_xml
    )
    for wrapper in (build_synapse(2001), build_ncmir(2002), build_senselab(2003)):
        mediator.register(wrapper, eager=False)
    return mediator


class TestXMLDialogue:
    def test_source_query_equivalent(self):
        direct = make_mediator(False)
        wired = make_mediator(True)
        query = SourceQuery("neurotransmission", {"organism": "rat"})
        direct_rows = direct.source_query("SENSELAB", query)
        wired_rows = wired.source_query("SENSELAB", query)
        assert wired_rows == direct_rows
        # what crossed the wire lifts to the same facts
        wrapper = wired.wrapper("SENSELAB")
        assert wrapper.lift_rows(query.class_name, wired_rows) == (
            wrapper.lift_rows(query.class_name, direct_rows)
        )

    def test_each_source_call_runs_once(self):
        wired = make_mediator(True)
        with obs.capture("t") as tracer:
            wired.correlate(section5_query())
        metrics = tracer.metrics
        queries = metrics.counter_total("source.queries")
        assert queries > 0
        assert queries == metrics.counter_value("wire.messages", kind="query")

    def test_query_messages_logged(self):
        wired = make_mediator(True)
        wired.source_query(
            "SENSELAB", SourceQuery("neurotransmission", {"organism": "rat"})
        )
        kinds = [name for name, _size in wired.wire_log]
        assert "query:SENSELAB.neurotransmission" in kinds

    def test_plan_answers_identical_over_the_wire(self):
        direct = make_mediator(False)
        wired = make_mediator(True)
        _p1, c1 = direct.correlate(section5_query())
        _p2, c2 = wired.correlate(section5_query())
        assert [(g, d.total()) for g, d in c1.answers] == [
            (g, d.total()) for g, d in c2.answers
        ]

    def test_lazy_ask_over_the_wire(self):
        direct = make_mediator(False)
        wired = make_mediator(True)
        query = "X : neurotransmission[organism -> rat; receiving_neuron -> N]"
        assert wired.ask_lazy(query)[0] == direct.ask_lazy(query)[0]


class TestPlanVsEagerData:
    def test_plan_filters_not_undone_by_eager_data(self):
        from repro.neuro import build_scenario

        eager = build_scenario().mediator
        lazy = build_scenario(eager=False).mediator
        _pe, ce = eager.correlate(section5_query())
        _pl, cl = lazy.correlate(section5_query())
        assert [(g, d.total()) for g, d in ce.answers] == [
            (g, d.total()) for g, d in cl.answers
        ]

    def test_only_retrieved_locations_contribute(self):
        from repro.neuro import build_scenario

        mediator = build_scenario().mediator
        _plan, context = mediator.correlate(section5_query())
        for _group, distribution in context.answers:
            concepts_with_values = {
                row.concept
                for row in distribution.rows
                if row.direct is not None
            }
            assert concepts_with_values <= {
                "Purkinje_Cell",
                "Purkinje_Dendrite",
            }

    def test_organism_filter_applied(self):
        from repro.neuro import build_scenario

        mediator = build_scenario().mediator
        _plan, context = mediator.correlate(section5_query())
        assert all(
            row["organism"] == "rat" for _source, row in context.retrieved
        )
