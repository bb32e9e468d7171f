"""Tests for navigation-driven (lazy) query evaluation."""

import pytest

from repro.core.lazy import ground_selections, referenced_class_names
from repro.flogic.parser import parse_fl_body
from repro.neuro import build_scenario


@pytest.fixture(scope="module")
def lazy_mediator():
    return build_scenario(eager=False).mediator


@pytest.fixture(scope="module")
def eager_mediator():
    return build_scenario(eager=True).mediator


class TestQueryAnalysis:
    def test_referenced_classes(self):
        items = parse_fl_body("X : neuron[age -> A], Y : 'Spine'")
        assert referenced_class_names(items) == {"neuron", "Spine"}

    def test_references_inside_an_aggregate(self):
        items = parse_fl_body("X : a, N = count{V; V : c[m -> W]}")
        assert referenced_class_names(items) == {"a", "c"}

    def test_variable_tags_ignored(self):
        items = parse_fl_body("X : C")
        assert referenced_class_names(items) == set()

    def test_ground_selections(self):
        items = parse_fl_body("X : sample[kind -> spine; value -> V]")
        assert ground_selections(items, "sample") == {"kind": "spine"}

    def test_ground_selections_only_for_named_class(self):
        items = parse_fl_body("X : sample[kind -> spine]")
        assert ground_selections(items, "other") == {}

    def test_multivalued_not_pushed(self):
        items = parse_fl_body("X : sample[tags ->> {a, b}]")
        assert ground_selections(items, "sample") == {}


class TestLazyAnswers:
    def test_pushes_declared_selection(self, lazy_mediator):
        answers, fetches = lazy_mediator.ask_lazy(
            "X : neurotransmission[organism -> rat]"
        )
        assert fetches == [("SENSELAB", "neurotransmission", {"organism": "rat"})]
        assert len(answers) == 4

    def test_unpushable_selection_still_answered(self, lazy_mediator):
        # epsp_mv is not in any binding pattern: scan + local filter
        answers, fetches = lazy_mediator.ask_lazy(
            "X : neurotransmission[organism -> rat; epsp_mv -> E], E > 0"
        )
        assert fetches[0][2] == {"organism": "rat"}
        assert len(answers) == 4

    def test_concept_query_resolves_sources(self, lazy_mediator):
        answers, fetches = lazy_mediator.ask_lazy("X : 'Pyramidal_Spine'")
        sources = {source for source, _cls, _sel in fetches}
        assert sources == {"SYNAPSE"}
        assert answers

    def test_view_query_expands_dependencies(self, lazy_mediator):
        answers, fetches = lazy_mediator.ask_lazy(
            "X : calcium_binding_protein[name -> N]"
        )
        assert ("NCMIR", "protein_amount", {}) in fetches
        assert all(source == "NCMIR" for source, _c, _s in fetches)
        assert answers

    def test_irrelevant_sources_not_contacted(self, lazy_mediator):
        _answers, fetches = lazy_mediator.ask_lazy(
            "X : reconstruction[condition -> enriched]"
        )
        sources = {source for source, _cls, _sel in fetches}
        assert sources == {"SYNAPSE"}

    def test_equivalent_to_eager(self, lazy_mediator, eager_mediator):
        queries = [
            "X : neurotransmission[organism -> rat; receiving_neuron -> N]",
            "X : calcium_binding_protein[name -> N]",
            "X : 'Purkinje_Dendrite'",
            "X : spine_change[condition -> enriched; length_um -> L]",
        ]
        for text in queries:
            lazy_answers, _fetches = lazy_mediator.ask_lazy(text)
            assert lazy_answers == eager_mediator.ask(text), text

    def test_no_referenced_classes_returns_empty_fetches(self, lazy_mediator):
        answers, fetches = lazy_mediator.ask_lazy("subclass(X, 'Compartment')")
        assert fetches == []
        assert answers  # DM facts answer without any source contact
