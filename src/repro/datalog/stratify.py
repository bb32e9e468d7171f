"""Predicate dependency analysis and stratification.

Builds the dependency graph over relation signatures: an edge
``head -> body`` for every body reference, labelled *negative* when the
reference is under ``not`` and *aggregated* when it occurs inside an
aggregate subgoal (aggregation behaves like negation for stratification
purposes: the aggregated relation must be fully computed first).

A program is *stratifiable* when no negative/aggregated edge lies inside
a strongly connected component.  Stratified programs are split into an
ordered list of strata (each a set of signatures) evaluated bottom-up;
programs with negation through recursion fall back to the well-founded
evaluation, and aggregation through recursion is rejected outright.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..errors import StratificationError
from ..graph import add_edge, components_bottom_up
from .ast import AggregateLiteral, Literal, Program

Signature = Tuple[str, int]

#: diagnostic codes of the two recursion-through-special-edge defects
CODE_NEGATION_RECURSION = "MBM005"
CODE_AGGREGATE_RECURSION = "MBM006"


class DependencyInfo:
    """Result of dependency analysis over a program: `graph` is the
    adjacency dict ``{head: {dependency: None}}``."""

    def __init__(self, graph, negative_edges, aggregate_edges):
        self.graph = graph
        self.negative_edges = negative_edges
        self.aggregate_edges = aggregate_edges


def build_dependency_graph(program):
    """Construct the signature-level dependency graph of `program`."""
    graph: Dict[Signature, Dict[Signature, None]] = {}
    negative_edges: Set[Tuple[Signature, Signature]] = set()
    aggregate_edges: Set[Tuple[Signature, Signature]] = set()

    for rule in program:
        head_sig = rule.head.signature
        graph.setdefault(head_sig, {})
        for item in rule.body:
            if isinstance(item, Literal):
                dep = item.atom.signature
                add_edge(graph, head_sig, dep)
                if not item.positive:
                    negative_edges.add((head_sig, dep))
            elif isinstance(item, AggregateLiteral):
                for inner in item.body:
                    if isinstance(inner, Literal):
                        dep = inner.atom.signature
                        add_edge(graph, head_sig, dep)
                        aggregate_edges.add((head_sig, dep))
    return DependencyInfo(graph, negative_edges, aggregate_edges)


class StratificationReport:
    """The full stratification picture of one program.

    ``negative_recursive`` / ``aggregate_recursive`` list the
    (head, dependency) signature pairs whose special edge lies inside a
    strongly connected component; ``strata`` holds the bottom-up strata
    when the program is stratifiable (None otherwise).
    """

    def __init__(self, info, negative_recursive, aggregate_recursive, strata):
        self.info = info
        self.negative_recursive = negative_recursive
        self.aggregate_recursive = aggregate_recursive
        self.strata = strata

    @property
    def stratifiable(self):
        return not self.negative_recursive and not self.aggregate_recursive

    @property
    def aggregate_stratified(self):
        return not self.aggregate_recursive


def analyze_stratification(program):
    """Dependency analysis without raising: a :class:`StratificationReport`.

    Both :func:`stratify` and the static analyzer are built on this, so
    the raised error and the lint diagnostic are guaranteed to agree.
    """
    info = build_dependency_graph(program)
    # bottom-up: a component's dependencies (head -> body) come first
    components = components_bottom_up(info.graph)
    scc_of: Dict[Signature, int] = {
        sig: scc_id for scc_id, members in enumerate(components) for sig in members
    }

    negative_recursive = sorted(
        edge for edge in info.negative_edges if scc_of[edge[0]] == scc_of[edge[1]]
    )
    aggregate_recursive = sorted(
        edge for edge in info.aggregate_edges if scc_of[edge[0]] == scc_of[edge[1]]
    )
    strata = None
    if not negative_recursive and not aggregate_recursive:
        strata = _merge_independent_strata(
            [set(members) for members in components], info
        )
    return StratificationReport(
        info, negative_recursive, aggregate_recursive, strata
    )


def negation_recursion_message(head_sig, dep_sig):
    return (
        "negation through recursion: %s/%d depends negatively on "
        "%s/%d inside a cycle" % (head_sig[0], head_sig[1], dep_sig[0], dep_sig[1])
    )


def aggregate_recursion_message(head_sig, dep_sig):
    return (
        "aggregation through recursion: %s/%d aggregates over "
        "%s/%d inside a cycle" % (head_sig[0], head_sig[1], dep_sig[0], dep_sig[1])
    )


def stratify(program):
    """Compute strata for `program`.

    Returns a list of sets of signatures, ordered bottom-up: stratum 0
    must be evaluated first.  Raises :class:`StratificationError` when a
    negative or aggregated dependency is recursive.  Callers that can
    handle recursive *negation* (via the well-founded semantics) should
    catch the error and inspect :func:`is_aggregate_stratified` first.
    """
    report = analyze_stratification(program)
    if report.negative_recursive:
        head_sig, dep_sig = report.negative_recursive[0]
        raise StratificationError(
            negation_recursion_message(head_sig, dep_sig),
            code=CODE_NEGATION_RECURSION,
        )
    if report.aggregate_recursive:
        head_sig, dep_sig = report.aggregate_recursive[0]
        raise StratificationError(
            aggregate_recursion_message(head_sig, dep_sig),
            code=CODE_AGGREGATE_RECURSION,
        )
    return report.strata


def _merge_independent_strata(strata, info):
    """Collapse consecutive strata with no cross negative/aggregate edges.

    Evaluating fewer, larger strata lets semi-naive iteration share work;
    correctness only requires that negative/aggregated dependencies point
    to strictly earlier strata.
    """
    special = info.negative_edges | info.aggregate_edges
    merged: List[Set[Signature]] = []
    for stratum in strata:
        if merged:
            candidate = merged[-1]
            conflict = any(
                (head, dep) in special
                for head in stratum
                for dep in candidate
            )
            if not conflict:
                candidate |= stratum
                continue
        merged.append(set(stratum))
    return merged


def is_aggregate_stratified(program):
    """True when no aggregate edge is recursive (negation may still be)."""
    return analyze_stratification(program).aggregate_stratified


def is_stratifiable(program):
    """True when the program has no negation/aggregation through recursion."""
    return analyze_stratification(program).stratifiable
