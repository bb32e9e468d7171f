"""medlint pass 2: static analysis of domain maps.

Checks the semantic-net structure of a :class:`~repro.domainmap.model.
DomainMap` without compiling or evaluating it:

* **dangling references** — edge endpoints and roles that name
  undeclared vocabulary;
* **isa cycles** — a cycle of isa edges collapses the concepts it
  passes through into one, which is nearly always an authoring error
  (an intentional equivalence should use ``eqv``);
* **circular definitions** — ``eqv`` definitions whose right-hand
  sides lead back to the defined concept (directly or through AND/OR
  decompositions), which the restricted reasoner cannot unfold;
* **isolated concepts** — declared but participating in no axiom and
  no anchor: unreachable from every query;
* **anchor points** — source anchors referencing concepts missing from
  the map.
"""

from __future__ import annotations

from typing import List, Set

from ..domainmap.dl import Eqv, Named
from ..domainmap.model import EQV, ISA, _is_synthetic
from ..errors import Span
from ..graph import add_edge, components_bottom_up
from .catalog import diagnostic


def analyze_domain_map(dm, anchors=(), origin=None):
    """All domain-map diagnostics; returns a plain diagnostic list.

    Args:
        dm: the :class:`DomainMap` to inspect.
        anchors: (source, class_name, concept) triples to validate
            against the map (a mediator's registered anchor points).
        origin: span unit label; defaults to ``domain map <name>``.
    """
    origin = origin or "domain map %s" % dm.name
    out: List = []
    edges = dm.edges()

    # -- dangling vocabulary in the drawn edges -------------------------
    for edge in edges:
        for node in (edge.src, edge.dst):
            if not _is_synthetic(node) and node not in dm.concepts:
                out.append(
                    diagnostic(
                        "MBM020",
                        "edge %s references concept %r which is not "
                        "declared in the domain map" % (edge, node),
                        span=Span(origin, detail=str(edge)),
                    )
                )
        if edge.role is not None and edge.role not in dm.roles:
            out.append(
                diagnostic(
                    "MBM025",
                    "edge %s references role %r which is not declared "
                    "in the domain map" % (edge, edge.role),
                    span=Span(origin, detail=str(edge)),
                )
            )

    # -- isa cycles ------------------------------------------------------
    isa_graph = {}
    for edge in edges:
        if edge.kind == ISA and not _is_synthetic(edge.src) and not _is_synthetic(edge.dst):
            add_edge(isa_graph, edge.src, edge.dst)
    for cycle in _cycles(isa_graph):
        out.append(
            diagnostic(
                "MBM021",
                "isa cycle: %s; the concepts collapse into one class "
                "(declare an eqv edge if that is intended)"
                % " -> ".join(cycle + cycle[:1]),
                span=Span(origin, detail=", ".join(cycle)),
            )
        )

    # -- circular eqv definitions ---------------------------------------
    def_graph = {}
    for axiom in dm.axioms:
        if isinstance(axiom, Eqv) and isinstance(axiom.lhs, Named):
            for name in axiom.rhs.named_concepts():
                add_edge(def_graph, axiom.lhs.name, name)
    for cycle in _cycles(def_graph):
        out.append(
            diagnostic(
                "MBM023",
                "circular definition: %s are defined in terms of each "
                "other through eqv/and edges; the definitions cannot "
                "be unfolded" % ", ".join(cycle),
                span=Span(origin, detail=", ".join(cycle)),
            )
        )

    # -- isolated concepts -----------------------------------------------
    touched: Set[str] = set()
    for edge in edges:
        touched.add(edge.src)
        touched.add(edge.dst)
    anchored = {concept for _src, _cls, concept in anchors}
    for concept in sorted(dm.concepts - touched - anchored):
        out.append(
            diagnostic(
                "MBM022",
                "concept %r participates in no axiom and no anchor; "
                "no query can reach it" % concept,
                span=Span(origin, detail=concept),
            )
        )

    # -- anchor points ----------------------------------------------------
    for source, class_name, concept in anchors:
        if concept not in dm.concepts:
            out.append(
                diagnostic(
                    "MBM024",
                    "anchor of %s.%s references concept %r which is "
                    "missing from the domain map"
                    % (source, class_name, concept),
                    span=Span("source %s" % source, detail=class_name),
                )
            )
    return out


def _cycles(graph):
    """Non-trivial SCCs (plus self-loops) as sorted member lists."""
    cycles = []
    for component in components_bottom_up(graph):
        members = sorted(component)
        if len(members) > 1 or members[0] in graph[members[0]]:
            cycles.append(members)
    cycles.sort()
    return cycles
