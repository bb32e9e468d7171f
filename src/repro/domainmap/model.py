"""Domain maps: semantic nets of concepts and roles (Definition 1).

A domain map is "a finite set comprising (i) description logic facts,
and (ii) logic rules, both involving finite sets C (concepts) and R
(roles)", visualized as an edge-labeled digraph.  :class:`DomainMap`
stores the axioms (the DL facts) and derives the *edge view* used for
drawing and for the graph operations; component (ii) is not
represented (no deployment attaches a rule to its map, and the map's
closures are derived by :mod:`~repro.domainmap.graphops`):

* ``isa`` edges from ``C v D`` and the conjunctive parts of definitions,
* ``ex`` edges ``C -r-> D`` from ``C v exists r.D``,
* ``all`` edges ``C -ALL:r-> D`` from ``C v all r.D``,
* ``eqv`` edges from ``C == D``,
* synthetic AND/OR nodes for conjunctions/disjunctions that cannot be
  decomposed into the simple edges above (e.g. Figure 3's
  ``Medium_Spiny_Neuron v exists proj.(GPE t GPI t SNpr t SNpc)``).

Decomposition follows the DL semantics: ``C v D1 u D2`` yields both
``C v D1`` and ``C v D2``; an equivalence contributes its necessary
direction (``C v rhs``) to the edge view, while the sufficient direction
is used by the reasoner and by registration.
"""

from __future__ import annotations

import threading
from typing import FrozenSet, List, Tuple

from ..errors import DomainMapError, UnknownConceptError
from .dl import (
    Axiom,
    Conj,
    Disj,
    Eqv,
    Exists,
    Forall,
    Named,
    Sub,
    parse_axiom,
    parse_axioms,
)

#: edge kinds of Definition 1
ISA = "isa"
EX = "ex"
ALL = "all"
EQV = "eqv"
AND = "and"
OR = "or"

# one drawing at a time: synthetic node numbers come from a per-map counter
_DRAWING = threading.Lock()


class Edge:
    """One edge of the drawn domain map.

    ``src``/``dst`` are node identifiers: concept names, or synthetic
    AND/OR node ids of the form ``AND#n`` / ``OR#n``.  ``role`` is set
    for (ex)/(all) edges and None for isa/eqv/and/or membership edges.
    """

    __slots__ = ("kind", "src", "dst", "role")

    def __init__(self, kind, src, dst, role=None):
        self.kind = kind
        self.src = src
        self.dst = dst
        self.role = role

    def as_tuple(self):
        return (self.kind, self.src, self.role, self.dst)

    def __eq__(self, other):
        return isinstance(other, Edge) and self.as_tuple() == other.as_tuple()

    def __hash__(self):
        return hash(("Edge",) + self.as_tuple())

    def __repr__(self):
        return "Edge(%r, %r, %r, role=%r)" % (self.kind, self.src, self.dst, self.role)

    def label(self):
        """The label drawn on the edge (Figure 1 conventions)."""
        if self.kind == ISA:
            return ""  # unlabeled gray edges are isa
        if self.kind == EX:
            return self.role
        if self.kind == ALL:
            return "ALL: %s" % self.role
        if self.kind == EQV:
            return "="
        return self.kind

    def __str__(self):
        label = self.label()
        arrow = "-[%s]->" % label if label else "->"
        return "%s %s %s" % (self.src, arrow, self.dst)


class DomainMap:
    """A mutable domain map: concepts, roles and DL axioms."""

    def __init__(self, name="domain_map"):
        self.name = name
        # read-only to callers (see the properties below): each add_*
        # method replaces a field and bumps the revision together
        self._concepts: FrozenSet[str] = frozenset()
        self._roles: FrozenSet[str] = frozenset()
        self._axioms: Tuple[Axiom, ...] = ()
        #: bumped by every change (add_concept/add_axiom), so
        #: derived state can tell it is stale
        self.revision = 0
        # (revision, {key: value}) of what was derived from the map at
        # that revision, see derived()
        self._derived = (-1, {})
        self._synthetic_counter = 0

    # -- declaration -----------------------------------------------------

    @property
    def concepts(self):
        return self._concepts

    @property
    def roles(self):
        return self._roles

    @property
    def axioms(self):
        return self._axioms

    def add_concept(self, name):
        self._concepts = self._concepts | {name}
        self.revision += 1
        return self

    def add_concepts(self, names):
        for name in names:
            self.add_concept(name)
        return self

    def has_concept(self, name):
        return name in self.concepts

    def require_concept(self, name):
        if name not in self.concepts:
            raise UnknownConceptError(
                "concept %r is not declared in domain map %r" % (name, self.name)
            )

    # -- axioms ------------------------------------------------------------

    def add_axiom(self, axiom):
        """Add one axiom (an :class:`Axiom` or concrete-syntax text).

        Concepts and roles mentioned by the axiom are auto-declared —
        a domain map's vocabulary is exactly what its axioms use.
        """
        if isinstance(axiom, str):
            axiom = parse_axiom(axiom)
        for expr in (axiom.lhs, axiom.rhs):
            self._concepts = self._concepts.union(expr.named_concepts())
            self._roles = self._roles.union(expr.roles())
        self._axioms += (axiom,)
        self.revision += 1
        return axiom

    def add_axioms(self, text_or_axioms):
        """Add several axioms (multi-line text or an iterable)."""
        if isinstance(text_or_axioms, str):
            axioms = parse_axioms(text_or_axioms)
        else:
            axioms = list(text_or_axioms)
        for axiom in axioms:
            self.add_axiom(axiom)
        return self

    # convenience constructors for the common edge forms
    def isa(self, sub, sup):
        """Add ``sub v sup`` (an isa edge)."""
        return self.add_axiom(Sub(Named(sub), Named(sup)))

    def ex(self, src, role, dst):
        """Add ``src v exists role.dst`` (an (ex) edge)."""
        return self.add_axiom(Sub(Named(src), Exists(role, Named(dst))))

    # -- derived state -----------------------------------------------------

    def derived(self, key, compute):
        """``compute()``, derived once per :attr:`revision` and kept
        under `key` until the map changes.

        Every caller shares the value, so it must be read-only
        (a frozenset, a tuple, a ``MappingProxyType``).  The revision is
        read *before* computing and the value is stored under it: a
        value computed while a mutator ran sits under a revision that
        mutator has made stale, so no later read returns it.  Two
        threads may compute the same value; either one is kept.
        """
        revision = self.revision
        memo_revision, values = self._derived
        if memo_revision == revision and key in values:
            return values[key]
        value = compute()
        memo_revision, values = self._derived
        if memo_revision != revision:
            if memo_revision > revision:
                return value  # the map changed meanwhile: keep the newer memo
            values = {}
            self._derived = (revision, values)
        values[key] = value
        return value

    # -- edge view -----------------------------------------------------------

    def edges(self):
        """The full drawn-edge view, including synthetic AND/OR nodes.

        Drawn once per :attr:`revision`; each call returns a new list.
        """
        return list(self.derived("edges", self._draw))

    def _draw(self):
        with _DRAWING:
            self._synthetic_counter = 0
            out: List[Edge] = []
            for axiom in self.axioms:
                out.extend(self._axiom_edges(axiom))
            return tuple(out)

    def _fresh_node(self, kind):
        self._synthetic_counter += 1
        return "%s#%d" % (kind.upper(), self._synthetic_counter)

    def _axiom_edges(self, axiom):
        edges: List[Edge] = []
        if not isinstance(axiom.lhs, Named):
            # Complex-lhs axioms exist only for the reasoner; they have
            # no canonical drawing.
            return edges
        src = axiom.lhs.name
        if isinstance(axiom, Eqv):
            if isinstance(axiom.rhs, Named):
                edges.append(Edge(EQV, src, axiom.rhs.name))
                return edges
            node = self._expr_node(axiom.rhs, edges)
            edges.append(Edge(EQV, src, node))
            # the necessary direction also contributes plain edges
            edges.extend(self._sub_edges(src, axiom.rhs))
            return edges
        edges.extend(self._sub_edges(src, axiom.rhs))
        return edges

    def _sub_edges(self, src, expr):
        """Edges for ``src v expr`` (necessary conditions only)."""
        edges: List[Edge] = []
        if isinstance(expr, Named):
            edges.append(Edge(ISA, src, expr.name))
        elif isinstance(expr, Conj):
            for part in expr.parts:
                edges.extend(self._sub_edges(src, part))
        elif isinstance(expr, Exists):
            if isinstance(expr.concept, Named):
                edges.append(Edge(EX, src, expr.concept.name, role=expr.role))
            else:
                node = self._expr_node(expr.concept, edges)
                edges.append(Edge(EX, src, node, role=expr.role))
        elif isinstance(expr, Forall):
            if isinstance(expr.concept, Named):
                edges.append(Edge(ALL, src, expr.concept.name, role=expr.role))
            else:
                node = self._expr_node(expr.concept, edges)
                edges.append(Edge(ALL, src, node, role=expr.role))
        elif isinstance(expr, Disj):
            node = self._expr_node(expr, edges)
            edges.append(Edge(ISA, src, node))
        else:  # pragma: no cover
            raise DomainMapError("cannot draw %r" % (expr,))
        return edges

    def _expr_node(self, expr, edges):
        """Render a complex expression as a synthetic AND/OR node."""
        if isinstance(expr, Named):
            return expr.name
        if isinstance(expr, Conj):
            node = self._fresh_node(AND)
            for part in expr.parts:
                edges.extend(self._sub_edges(node, part))
            return node
        if isinstance(expr, Disj):
            node = self._fresh_node(OR)
            for part in expr.parts:
                edges.extend(self._sub_edges(node, part))
            return node
        if isinstance(expr, (Exists, Forall)):
            node = self._fresh_node(AND)
            edges.extend(self._sub_edges(node, expr))
            return node
        raise DomainMapError("cannot render %r" % (expr,))

    # simple-edge accessors (concept-to-concept only), each a frozenset
    # derived once per revision

    def isa_pairs(self):
        """Direct (sub, sup) concept pairs from the necessary conditions
        (an equivalence counts in both directions)."""
        return self.derived("isa_pairs", lambda: frozenset(
            [(e.src, e.dst) for e in self._concept_edges(ISA)]
            + [pair for a, b in self.eqv_pairs() for pair in ((a, b), (b, a))]
        ))

    def role_triples(self):
        """Direct (src, role, dst) triples from (ex) edges between concepts."""
        return self.derived("role_triples", lambda: frozenset(
            (e.src, e.role, e.dst) for e in self._concept_edges(EX)
        ))

    def eqv_pairs(self):
        return self.derived("eqv_pairs", lambda: frozenset(
            (e.src, e.dst) for e in self._concept_edges(EQV)
        ))

    def _concept_edges(self, kind):
        return [
            e for e in self.edges()
            if e.kind == kind and not _is_synthetic(e.src) and not _is_synthetic(e.dst)
        ]

    def copy(self, name=None):
        """An independent copy (a source's "local copy of the DM",
        footnote 9 of the paper)."""
        clone = DomainMap(name or self.name)
        clone._concepts = self._concepts
        clone._roles = self._roles
        clone._axioms = self._axioms
        return clone

    def __getstate__(self):
        # deepcopy and pickle skip the memo: its read-only graphs
        # (MappingProxyType) cannot be copied, and a copy derives its own
        state = dict(self.__dict__)
        state["_derived"] = (-1, {})
        return state

    # -- summary --------------------------------------------------------------

    def __repr__(self):
        return "DomainMap(%r, concepts=%d, axioms=%d)" % (
            self.name,
            len(self.concepts),
            len(self.axioms),
        )


def _is_synthetic(node):
    return node.startswith("AND#") or node.startswith("OR#")
