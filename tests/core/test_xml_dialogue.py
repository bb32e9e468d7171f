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
from repro.sources import SourceQuery, Wrapper
from repro.sources.relstore import RelStore


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


def padded_wrapper():
    """A source whose string values carry surrounding whitespace."""
    store = RelStore("PAD")
    store.create_table("item", ["id", "name", "note"], key="id").insert_many(
        [(1, " padded ", "   "), (2, " rat", "tab\there\n"), (3, "rat", "x\r\ny")]
    )
    wrapper = Wrapper("PAD", store)
    wrapper.export_class(
        "item",
        "item",
        "id",
        {"id": "id", "name": "name", "note": "note"},
        selectable=["name"],
    )
    return wrapper


class TestWhitespaceOverTheWire:
    """The XML dialogue answers as the direct one does for string
    values with surrounding whitespace."""

    @pytest.mark.parametrize("selections", [{}, {"name": " rat"}, {"name": "rat"}])
    def test_source_query_equivalent(self, selections):
        answers = []
        for via_xml in (False, True):
            mediator = Mediator(build_anatom(), dialogue_via_xml=via_xml)
            mediator.register(padded_wrapper(), eager=False)
            answers.append(
                mediator.source_query("PAD", SourceQuery("item", selections))
            )
        direct, wired = answers
        assert wired == direct
        assert direct

    def test_eager_registration_facts_equal(self):
        answers = []
        for via_xml in (False, True):
            mediator = Mediator(build_anatom())
            mediator.register(padded_wrapper(), via_xml=via_xml)
            answers.append(mediator.ask("X : item[name -> N; note -> M]"))
        direct, wired = answers
        assert wired == direct
        assert {answer["M"] for answer in direct} == {"   ", "tab\there\n", "x\r\ny"}


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
