"""Restricted reasoning about domain-map concepts.

Proposition 1 of the paper: subsumption and satisfiability are
*undecidable* for unrestricted GCM domain maps (the rule language can
express all FO queries and more).  "In our experience, in a typical
mediator system, reasoning about the DM may be required only to a
limited extent" — and restricted, decidable fragments "are often
sufficient".

This module implements classic structural subsumption for exactly such
a fragment:

* axioms have a *named* left-hand side,
* right-hand sides use names, conjunction and existential restrictions
  (no disjunction, no value restriction),
* definitions (``==`` axioms) are acyclic.

Anything outside the fragment — disjunction, ``all``, complex left-hand
sides, cyclic definitions — raises
:class:`~repro.errors.UndecidableFragmentError`, making the boundary of
Proposition 1 explicit in the API.  Within the fragment every concept
is trivially satisfiable (there is no negation or bottom), and
subsumption is sound and complete via definition unfolding.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import UndecidableFragmentError
from .dl import Conj, Disj, Eqv, Exists, Forall, Named, Sub
from .model import DomainMap


def check_fragment(dm):
    """Verify `dm` lies in the decidable structural fragment.

    Raises :class:`UndecidableFragmentError` naming the first offending
    construct; returns True otherwise.
    """
    for axiom in dm.axioms:
        if not isinstance(axiom.lhs, Named):
            raise UndecidableFragmentError(
                "axiom %s has a complex left-hand side" % axiom
            )
        _check_expr(axiom.rhs)
    _check_acyclic(dm)
    return True


def _check_expr(expr):
    if isinstance(expr, Named):
        return
    if isinstance(expr, Conj):
        for part in expr.parts:
            _check_expr(part)
        return
    if isinstance(expr, Exists):
        _check_expr(expr.concept)
        return
    if isinstance(expr, Disj):
        raise UndecidableFragmentError(
            "disjunction (%s) is outside the structural fragment" % expr
        )
    if isinstance(expr, Forall):
        raise UndecidableFragmentError(
            "value restriction (%s) is outside the structural fragment" % expr
        )
    raise UndecidableFragmentError("unsupported expression %r" % (expr,))


def _definitions(dm):
    """name -> list of rhs expressions, per axiom kind."""
    sub_rhs: Dict[str, List] = {}
    eqv_rhs: Dict[str, List] = {}
    for axiom in dm.axioms:
        if not isinstance(axiom.lhs, Named):
            continue
        target = eqv_rhs if isinstance(axiom, Eqv) else sub_rhs
        target.setdefault(axiom.lhs.name, []).append(axiom.rhs)
    return sub_rhs, eqv_rhs


def _check_acyclic(dm):
    sub_rhs, eqv_rhs = _definitions(dm)

    def visit(name, path):
        if name in path:
            raise UndecidableFragmentError(
                "cyclic definition through %r; structural subsumption "
                "requires acyclic unfolding" % name
            )
        path = path | {name}
        for rhs_list in (sub_rhs.get(name, ()), eqv_rhs.get(name, ())):
            for rhs in rhs_list:
                for mentioned in rhs.named_concepts():
                    visit(mentioned, path)

    for name in sorted(dm.concepts):
        visit(name, frozenset())


class _Normal:
    """Normal form: entailed/required atom names + (role, expr) pairs."""

    __slots__ = ("names", "existentials")

    def __init__(self, names, existentials):
        self.names = frozenset(names)
        self.existentials = frozenset(existentials)


class Reasoner:
    """Structural subsumption over the decidable fragment of one map."""

    def __init__(self, dm):
        check_fragment(dm)
        self.dm = dm
        self._sub_rhs, self._eqv_rhs = _definitions(dm)
        self._entailed_cache: Dict = {}

    # -- normal forms -----------------------------------------------------

    def _entailed(self, expr):
        """Everything a member of `expr` is entailed to satisfy."""
        key = expr
        cached = self._entailed_cache.get(key)
        if cached is not None:
            return cached
        names: Set[str] = set()
        existentials: Set[Tuple[str, object]] = set()
        self._collect_entailed(expr, names, existentials)
        normal = _Normal(names, existentials)
        self._entailed_cache[key] = normal
        return normal

    def _collect_entailed(self, expr, names, existentials):
        if isinstance(expr, Named):
            if expr.name in names:
                return
            names.add(expr.name)
            for rhs in self._sub_rhs.get(expr.name, ()):
                self._collect_entailed(rhs, names, existentials)
            for rhs in self._eqv_rhs.get(expr.name, ()):
                self._collect_entailed(rhs, names, existentials)
        elif isinstance(expr, Conj):
            for part in expr.parts:
                self._collect_entailed(part, names, existentials)
        elif isinstance(expr, Exists):
            existentials.add((expr.role, expr.concept))
        else:  # pragma: no cover - fragment checked at construction
            raise UndecidableFragmentError("unexpected %r" % (expr,))

    def _required(self, expr):
        """The conjuncts that suffice for membership in `expr`.

        Only equivalence definitions may be unfolded on the general
        side: plain subsumption axioms give necessary, not sufficient,
        conditions.
        """
        names: Set[str] = set()
        existentials: Set[Tuple[str, object]] = set()
        self._collect_required(expr, names, existentials, frozenset())
        return _Normal(names, existentials)

    def _collect_required(self, expr, names, existentials, visiting):
        if isinstance(expr, Named):
            definitions = self._eqv_rhs.get(expr.name, ())
            if definitions and expr.name not in visiting:
                for rhs in definitions:
                    self._collect_required(
                        rhs, names, existentials, visiting | {expr.name}
                    )
            else:
                names.add(expr.name)
        elif isinstance(expr, Conj):
            for part in expr.parts:
                self._collect_required(part, names, existentials, visiting)
        elif isinstance(expr, Exists):
            existentials.add((expr.role, expr.concept))
        else:  # pragma: no cover
            raise UndecidableFragmentError("unexpected %r" % (expr,))

    # -- queries ---------------------------------------------------------------

    def subsumes(self, general, specific):
        """Does membership in `specific` imply membership in `general`?

        Both arguments may be concept names or expressions.
        """
        general = Named(general) if isinstance(general, str) else general
        specific = Named(specific) if isinstance(specific, str) else specific
        required = self._required(general)
        entailed = self._entailed(specific)
        for name in required.names:
            if name not in entailed.names:
                return False
        for role, concept in required.existentials:
            if not any(
                have_role == role and self.subsumes(concept, have_concept)
                for have_role, have_concept in entailed.existentials
            ):
                return False
        return True

    def equivalent(self, left, right):
        return self.subsumes(left, right) and self.subsumes(right, left)
