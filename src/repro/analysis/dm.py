"""medlint pass 2: static analysis of domain maps.

Checks the semantic-net structure of a :class:`~repro.domainmap.model.
DomainMap` without compiling or evaluating it:

* **dangling references** — edge endpoints, roles, and concept
  constants in attached logic rules that name undeclared vocabulary;
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

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..datalog.ast import Literal
from ..datalog.parser import parse_program
from ..domainmap.dl import Eqv, Named
from ..domainmap.model import EQV, ISA, _is_synthetic
from ..errors import ParseError, Span
from ..graph import add_edge, components_bottom_up
from .catalog import diagnostic

#: rule predicates whose constant arguments name DM vocabulary:
#: predicate -> (role argument positions, concept argument positions)
_VOCABULARY_PREDICATES = {
    "concept": ((), (0,)),
    "isa": ((), (0, 1)),
    "role_edge": ((0,), (1, 2)),
    "all_edge": ((0,), (1, 2)),
}


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

    # -- dangling vocabulary in attached logic rules --------------------
    for text in dm.rules_text:
        out.extend(_rule_text_diagnostics(dm, text, origin))

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


def _rule_text_diagnostics(dm, text, origin):
    out = []
    try:
        rules = list(parse_program(text))
    except ParseError as exc:
        exc.span = Span(origin, detail=text.strip()[:60])
        return [exc.to_diagnostic()]
    for rule in rules:
        atoms = [rule.head]
        for item in rule.body:
            if isinstance(item, Literal):
                atoms.append(item.atom)
        for atom in atoms:
            spec = _VOCABULARY_PREDICATES.get(atom.pred)
            if spec is None:
                continue
            role_positions, concept_positions = spec
            for index, arg in enumerate(atom.args):
                value = getattr(arg, "value", None)
                if not isinstance(value, str):
                    continue
                if index in concept_positions and value not in dm.concepts:
                    out.append(
                        diagnostic(
                            "MBM020",
                            "rule %s references concept %r which is not "
                            "declared in the domain map" % (rule, value),
                            span=Span(origin, detail=str(rule)),
                        )
                    )
                elif index in role_positions and value not in dm.roles:
                    out.append(
                        diagnostic(
                            "MBM025",
                            "rule %s references role %r which is not "
                            "declared in the domain map" % (rule, value),
                            span=Span(origin, detail=str(rule)),
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
