"""Oracle tests for the adjacency-dict graph module: networkx is the
reference for reachability, component order and stratification."""

import networkx as nx
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datalog import parse_program, stratify
from repro.datalog.ast import AggregateLiteral, Literal
from repro.datalog.stratify import (
    _merge_independent_strata,
    analyze_stratification,
    build_dependency_graph,
)
from repro.graph import add_edge, components_bottom_up, reachable, reverse, subgraph

from .datalog.test_properties import edges_strategy

# -- random digraphs -----------------------------------------------------

#: an edge (u, v) or, with v None, an isolated node u; nodes 0..7 so
#: cycles and self-loops are frequent
steps = st.lists(
    st.tuples(st.integers(0, 7), st.one_of(st.none(), st.integers(0, 7))),
    max_size=24,
)


def _build(steps):
    """The same graph twice, inserted in the same order: as an
    adjacency dict and as a networkx DiGraph."""
    adj, graph = {}, nx.DiGraph()
    for u, v in steps:
        if v is None:
            adj.setdefault(u, {})
            graph.add_node(u)
        else:
            add_edge(adj, u, v)
            graph.add_edge(u, v)
    return adj, graph


def _reference_order(graph):
    condensed = nx.condensation(graph)
    return [
        condensed.nodes[i]["members"]
        for i in reversed(list(nx.topological_sort(condensed)))
    ]


#: two chains, p -> q and r -> s: any order with q before p and s before
#: r is bottom-up, but only one is the reference's (a textbook recursive
#: Tarjan gives q, p, s, r)
TWO_CHAINS = [("p", "q"), ("r", "s")]


class TestGraphOracle:
    @settings(max_examples=300, deadline=None)
    @given(steps)
    def test_insertion_order_matches_networkx(self, steps):
        adj, graph = _build(steps)
        assert list(adj) == list(graph)
        assert [list(succs) for succs in adj.values()] == [
            list(graph.successors(node)) for node in graph
        ]

    @settings(max_examples=300, deadline=None)
    @given(steps)
    def test_reachable_is_descendants_plus_start_on_cycle(self, steps):
        adj, graph = _build(steps)
        for node in graph:
            on_cycle = any(
                succ == node or node in nx.descendants(graph, succ)
                for succ in graph.successors(node)
            )
            expected = nx.descendants(graph, node) | ({node} if on_cycle else set())
            assert reachable(adj, [node]) == expected

    @settings(max_examples=200, deadline=None)
    @given(steps, st.sets(st.integers(0, 8), max_size=3))
    def test_reachable_from_many_starts_is_the_union(self, steps, starts):
        adj, _graph = _build(steps)
        union = set()
        for start in starts:
            union |= reachable(adj, [start])
        assert reachable(adj, starts) == union

    @settings(max_examples=200, deadline=None)
    @given(steps)
    def test_reverse_and_subgraph(self, steps):
        adj, graph = _build(steps)
        assert nx.DiGraph(reverse(adj)).edges == graph.reverse().edges
        keep = set(list(adj)[::2])
        assert set(nx.DiGraph(subgraph(adj, keep)).edges) == set(
            graph.subgraph(keep).edges
        )

    @settings(max_examples=500, deadline=None)
    @given(steps)
    @example(TWO_CHAINS)
    def test_bottom_up_components_in_the_reference_order(self, steps):
        adj, graph = _build(steps)
        assert components_bottom_up(adj) == _reference_order(graph)

    def test_two_chains_order(self):
        adj, _graph = _build(TWO_CHAINS)
        assert components_bottom_up(adj) == [{"s"}, {"q"}, {"r"}, {"p"}]


# -- stratification against a networkx-built reference -----------------


def _reference_strata(program):
    """The stratification as computed over a networkx DiGraph."""
    graph = nx.DiGraph()
    for rule in program:
        head = rule.head.signature
        graph.add_node(head)
        for item in rule.body:
            if isinstance(item, Literal):
                graph.add_edge(head, item.atom.signature)
            elif isinstance(item, AggregateLiteral):
                for inner in item.body:
                    if isinstance(inner, Literal):
                        graph.add_edge(head, inner.atom.signature)
    return _merge_independent_strata(
        [set(members) for members in _reference_order(graph)],
        build_dependency_graph(program),
    )


PREDICATES = ["p%d" % i for i in range(6)]

#: one rule: head, a positive guard, and up to three further subgoals
#: that are positive, negated or aggregated
rules = st.tuples(
    st.sampled_from(PREDICATES),
    st.sampled_from(PREDICATES + ["e"]),
    st.lists(
        st.tuples(st.sampled_from(["+", "not", "count"]), st.sampled_from(PREDICATES)),
        max_size=3,
    ),
)


def _rule_text(rule):
    head, guard, subgoals = rule
    body = ["%s(X)" % guard]
    for kind, pred in subgoals:
        if kind == "+":
            body.append("%s(X)" % pred)
        elif kind == "not":
            body.append("not %s(X)" % pred)
        else:
            body.append("N = count{Y; %s(Y)}" % pred)
    return "%s(X) :- %s." % (head, ", ".join(body))


class TestStratifyOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(rules, min_size=1, max_size=8))
    def test_random_programs(self, rules):
        program = parse_program(
            "e(a). e(b).\n" + "\n".join(_rule_text(rule) for rule in rules)
        )
        report = analyze_stratification(program)
        if report.strata is not None:
            assert stratify(program) == _reference_strata(program)

    @settings(max_examples=60, deadline=None)
    @given(edges_strategy, st.booleans())
    def test_property_suite_programs(self, edges, negated):
        facts = "".join("edge(%d, %d). " % edge for edge in edges)
        rules = "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y)."
        if negated:
            rules += " far(X, Y) :- tc(X, Y), not edge(X, Y)."
        program = parse_program(facts + rules)
        assert stratify(program) == _reference_strata(program)
