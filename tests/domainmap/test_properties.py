"""Property-based tests (hypothesis) for domain-map operations."""

import copy
import pickle
from unittest import mock

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.domainmap import (
    Disj,
    DomainMap,
    Exists,
    Named,
    Sub,
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
from repro.domainmap.graphops import _navigation_up
from repro.errors import NoUpperBoundError
from tests.conftest import examples

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
        nav = nx.DiGraph(dict(navigation_graph(dm, "isa")))
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
        tree = nx.DiGraph(dict(part_tree(dm, root, "has")))
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


# -- the revision memo ---------------------------------------------------


def adjacency(graph):
    """An adjacency mapping as comparable nested lists, in order."""
    return [(node, list(succs.items())) for node, succs in graph.items()]


#: every derivation memoized on DomainMap.revision, as a comparable value
MEMOIZED = {
    "edges": lambda dm, root: [edge.as_tuple() for edge in dm.edges()],
    "isa_pairs": lambda dm, root: dm.isa_pairs(),
    "role_triples": lambda dm, root: dm.role_triples(),
    "all_triples": lambda dm, root: dm.all_triples(),
    "eqv_pairs": lambda dm, root: dm.eqv_pairs(),
    "rtc": lambda dm, root: isa_closure(dm, reflexive=True),
    "tc": lambda dm, root: isa_closure(dm, reflexive=False),
    "dc_full": lambda dm, root: deductive_closure(dm, "has", mode="full"),
    "dc_paper": lambda dm, root: deductive_closure(dm, "has", mode="paper"),
    "dc_down": lambda dm, root: deductive_closure(dm, "has", mode="down"),
    "nav_isa": lambda dm, root: adjacency(navigation_graph(dm, "isa")),
    "nav_has": lambda dm, root: adjacency(navigation_graph(dm, "has")),
    "up_has": lambda dm, root: adjacency(_navigation_up(dm, "has")),
    "part_tree": lambda dm, root: adjacency(part_tree(dm, root, "has")),
}


def recompute(read, dm, root):
    """`read` from scratch: every derivation runs, none is kept."""
    with mock.patch.object(
        DomainMap, "derived", lambda self, key, compute: compute()
    ):
        return read(dm, root)


def random_axiom(draw, concepts):
    a, b, c = (draw(st.sampled_from(concepts)) for _ in range(3))
    kind = draw(st.sampled_from(["isa", "has", "all", "eqv", "or", "some-or"]))
    if kind == "isa":
        return Sub(Named(a), Named(b))
    if kind == "has":
        return Sub(Named(a), Exists("has", Named(b)))
    if kind == "all":
        return "%s < all has.%s" % (a, b)
    if kind == "eqv":
        return "%s = %s" % (a, b)
    if kind == "or":  # a synthetic OR node
        return Sub(Named(a), Disj([Named(b), Named(c)]))
    return Sub(Named(a), Exists("has", Disj([Named(b), Named(c)])))


class TestRevisionMemo:
    @settings(max_examples=examples(60), deadline=None)
    @given(st.data())
    def test_memo_equals_recompute(self, data):
        dm = DomainMap("memo")
        dm.add_concepts(CONCEPTS[:4])
        dm.add_role("has")
        concepts = list(CONCEPTS[:4])
        for _ in range(data.draw(st.integers(1, 25))):
            step = data.draw(st.sampled_from(
                ["read"] * 4 + ["axiom", "concept", "role", "rule", "copy"]
            ))
            if step == "read":
                name = data.draw(st.sampled_from(sorted(MEMOIZED)))
                root = data.draw(st.sampled_from(concepts))
                value = MEMOIZED[name](dm, root)
                assert value == recompute(MEMOIZED[name], dm, root)
                # a second read is a hit and returns the same
                assert MEMOIZED[name](dm, root) == value
            elif step == "axiom":
                dm.add_axiom(random_axiom(data.draw, concepts))
                concepts = sorted(dm.concepts)
            elif step == "concept":
                concepts.append("N%d" % len(concepts))
                dm.add_concept(concepts[-1])
            elif step == "role":
                dm.add_role("r%d" % len(dm.roles))
            elif step == "rule":
                dm.add_rule("isa(%s, %s)." % (concepts[0], concepts[-1]))
            else:
                dm = dm.copy()

    @settings(max_examples=examples(30), deadline=None)
    @given(acyclic_dms(), st.sampled_from(CONCEPTS))
    def test_returned_values_are_read_only(self, dm, root):
        sets = [
            dm.isa_pairs(), dm.role_triples(), dm.all_triples(), dm.eqv_pairs(),
            isa_closure(dm), isa_closure(dm, reflexive=False),
            deductive_closure(dm, "has"), deductive_closure(dm, "has", "down"),
        ]
        for value in sets:
            with pytest.raises(AttributeError):
                value.add(("x", "y"))
        graphs = [
            navigation_graph(dm, "isa"), navigation_graph(dm, "has"),
            _navigation_up(dm, "has"), part_tree(dm, root, "has"),
        ]
        for graph in graphs:
            with pytest.raises(TypeError):
                graph["x"] = {}
            with pytest.raises(TypeError):
                graph[root]["x"] = "isa"
        dm.edges().clear()  # a new list each call: the drawing is untouched
        assert MEMOIZED["edges"](dm, root) == recompute(MEMOIZED["edges"], dm, root)

    def test_copy_never_sees_the_parents_memo(self):
        dm = DomainMap("parent")
        dm.isa("a", "b")
        dm.ex("b", "has", "c")
        parent_tree = part_tree(dm, "b", "has")
        parent_closure = isa_closure(dm)
        clone = dm.copy()
        assert isa_closure(clone) == parent_closure
        assert isa_closure(clone) is not parent_closure
        assert part_tree(clone, "b", "has") is not parent_tree
        clone.ex("c", "has", "d")
        assert set(part_tree(clone, "b", "has")) == {"a", "b", "c", "d"}
        assert set(part_tree(dm, "b", "has")) == {"a", "b", "c"}
        assert part_tree(dm, "b", "has") is parent_tree

    def test_deepcopy_and_pickle_skip_the_memo(self):
        dm = DomainMap("memoized")
        dm.isa("a", "b")
        dm.ex("b", "has", "c")
        tree = part_tree(dm, "b", "has")  # read-only graphs in the memo
        navigation_graph(dm, "has")
        for clone in (copy.deepcopy(dm), pickle.loads(pickle.dumps(dm))):
            assert clone.revision == dm.revision
            assert part_tree(clone, "b", "has") == tree
            assert part_tree(clone, "b", "has") is not tree
        assert part_tree(dm, "b", "has") is tree

    def test_a_hit_opens_no_span(self):
        from repro import obs

        dm = DomainMap("spans")
        dm.isa("a", "b")
        dm.ex("b", "has", "c")
        with obs.capture("cold") as cold:
            part_tree(dm, "b", "has")
        with obs.capture("warm") as warm:
            part_tree(dm, "b", "has")
            isa_closure(dm)
        assert "dm.part_tree" in obs.render_tree(cold, mask_timings=True)
        assert "dm." not in obs.render_tree(warm, mask_timings=True)
