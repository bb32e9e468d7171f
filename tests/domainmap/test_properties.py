"""Property-based tests (hypothesis) for domain-map operations."""

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.domainmap import (
    DomainMap,
    deductive_closure,
    downward_closure,
    has_a_star,
    isa_closure,
    least_upper_bounds,
    navigation_graph,
    part_tree,
    transitive_closure,
    upper_bounds,
)
from repro.errors import NoUpperBoundError

# -- random acyclic domain maps ----------------------------------------

CONCEPTS = ["C%d" % i for i in range(8)]


@st.composite
def acyclic_dms(draw):
    """Random DAG-shaped domain maps: isa and has edges only go from
    lower to higher index, so no cycles arise."""
    dm = DomainMap("random")
    dm.add_concepts(CONCEPTS)
    dm.add_role("has")
    n_edges = draw(st.integers(0, 14))
    for _ in range(n_edges):
        a = draw(st.integers(0, 6))
        b = draw(st.integers(a + 1, 7))
        kind = draw(st.sampled_from(["isa", "has"]))
        if kind == "isa":
            dm.isa(CONCEPTS[a], CONCEPTS[b])
        else:
            dm.ex(CONCEPTS[a], "has", CONCEPTS[b])
    return dm


class TestClosureProperties:
    @given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=15))
    def test_transitive_closure_is_transitive_and_minimal(self, pairs):
        closure = transitive_closure(pairs)
        # transitivity
        for a, b in closure:
            for c, d in closure:
                if b == c:
                    assert (a, d) in closure
        # soundness: every closure pair has a path in the base graph
        graph = nx.DiGraph()
        graph.add_edges_from(pairs)
        for a, b in closure:
            assert nx.has_path(graph, a, b)

    @settings(max_examples=40, deadline=None)
    @given(acyclic_dms())
    def test_isa_closure_contains_base_and_is_transitive(self, dm):
        closure = isa_closure(dm, reflexive=False)
        assert dm.isa_pairs() <= closure | {(a, a) for a in dm.concepts}
        for a, b in closure:
            for c, d in closure:
                if b == c:
                    assert (a, d) in closure

    @settings(max_examples=40, deadline=None)
    @given(acyclic_dms())
    def test_dc_modes_nest(self, dm):
        down = deductive_closure(dm, "has", mode="down")
        paper = deductive_closure(dm, "has", mode="paper")
        full = deductive_closure(dm, "has", mode="full")
        assert down <= paper <= full

    @settings(max_examples=40, deadline=None)
    @given(acyclic_dms())
    def test_dc_contains_base_links(self, dm):
        base = {(s, d) for s, r, d in dm.role_triples() if r == "has"}
        assert base <= deductive_closure(dm, "has", mode="down")

    @settings(max_examples=40, deadline=None)
    @given(acyclic_dms())
    def test_full_dc_closed_under_isa_rewriting(self, dm):
        # if (x, y) in full dc, x' v x, y v y', then (x', y') in full dc
        full = deductive_closure(dm, "has", mode="full")
        rtc = isa_closure(dm, reflexive=True)
        for x, y in full:
            for sub, sup in rtc:
                if sup == x:
                    for y_sub, y_sup in rtc:
                        if y_sub == y:
                            assert (sub, y_sup) in full

    @settings(max_examples=30, deadline=None)
    @given(acyclic_dms())
    def test_datalog_backend_agrees(self, dm):
        from repro.datalog import evaluate
        from repro.domainmap import closure_program

        result = evaluate(closure_program(dm))
        datalog_star = {
            (a.args[0].value, a.args[1].value)
            for a in result.store.iter_atoms("has_a_star")
        }
        assert datalog_star == has_a_star(dm, "has")


class TestLubProperties:
    @settings(max_examples=40, deadline=None)
    @given(acyclic_dms(), st.sets(st.sampled_from(CONCEPTS), min_size=1, max_size=3))
    def test_lubs_are_upper_bounds(self, dm, concepts):
        try:
            lubs = least_upper_bounds(dm, concepts)
        except NoUpperBoundError:
            return
        bounds = upper_bounds(dm, concepts)
        assert set(lubs) <= bounds

    @settings(max_examples=40, deadline=None)
    @given(acyclic_dms(), st.sets(st.sampled_from(CONCEPTS), min_size=1, max_size=3))
    def test_lubs_are_minimal(self, dm, concepts):
        try:
            lubs = least_upper_bounds(dm, concepts)
        except NoUpperBoundError:
            return
        bounds = upper_bounds(dm, concepts)
        nav = nx.DiGraph(navigation_graph(dm, "isa"))
        for candidate in lubs:
            below = nx.descendants(nav, candidate)
            assert not (below & bounds - {candidate} & below)
            for other in bounds:
                if other != candidate:
                    # no other bound strictly below a lub
                    assert candidate not in nx.descendants(nav, other) or (
                        other not in below
                    )

    @settings(max_examples=30, deadline=None)
    @given(acyclic_dms(), st.sampled_from(CONCEPTS))
    def test_single_concept_lub_is_itself(self, dm, concept):
        assert least_upper_bounds(dm, [concept]) == [concept]

    @settings(max_examples=30, deadline=None)
    @given(acyclic_dms(), st.sets(st.sampled_from(CONCEPTS), min_size=1, max_size=3))
    def test_role_lub_contains_all_anchors(self, dm, concepts):
        try:
            lubs = least_upper_bounds(dm, concepts, order="has")
        except NoUpperBoundError:
            return
        for root in lubs:
            region = downward_closure(dm, root, "has")
            assert set(concepts) <= region


class TestTraversalProperties:
    @settings(max_examples=40, deadline=None)
    @given(acyclic_dms(), st.sampled_from(CONCEPTS))
    def test_part_tree_nodes_reachable(self, dm, root):
        tree = nx.DiGraph(part_tree(dm, root, "has"))
        assert root in tree.nodes
        for node in tree.nodes:
            assert node == root or nx.has_path(tree, root, node)

    @settings(max_examples=40, deadline=None)
    @given(acyclic_dms(), st.sampled_from(CONCEPTS))
    def test_downward_closure_monotone_in_edges(self, dm, root):
        before = downward_closure(dm, root, "has")
        dm.ex(root, "has", "Extra")
        after = downward_closure(dm, root, "has")
        assert before <= after
        assert "Extra" in after


class TestRegistrationProperties:
    @settings(max_examples=30, deadline=None)
    @given(acyclic_dms())
    def test_registration_only_extends(self, dm):
        from repro.domainmap import register_concepts

        assume(dm.concepts)
        base_concepts = set(dm.concepts)
        base_axioms = list(dm.axioms)
        anchor = sorted(base_concepts)[0]
        register_concepts(dm, "Fresh < '%s'" % anchor)
        assert base_concepts <= dm.concepts
        assert all(axiom in dm.axioms for axiom in base_axioms)
        assert "Fresh" in dm.concepts
