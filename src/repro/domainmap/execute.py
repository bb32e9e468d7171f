"""Executing domain maps: compiling DL edges into mediator rules.

Section 4 gives two executable readings of an edge ``C -r-> D``:

* as an **integrity constraint** (the mediated object base must be
  data-complete w.r.t. the edge): a missing r-successor yields an `ic`
  witness ``w_edge(C, r, D, X)``;
* as an **assertion** (the successor exists in the real world even if
  not in the object base): a *placeholder object* ``f(C, r, D, x)`` is
  created whenever no witness is stored.

Object-level data sits in generic triple relations so the same rules
serve every role:

* ``instance(X, C)`` — anchored objects (shared with the GCM core),
* ``role_fact(R, X, Y)`` — role links stated by sources,
* ``role_asserted(R, X, Y)`` — placeholder links created by assertions,
* ``role_inst(R, X, Y)`` — the union view queries should read.

The assertion rules guard on ``role_fact`` (source-stated links only),
not on ``role_inst``; this is the stratified reading of the paper's
rule whose literal form is a self-defeating odd loop (see the F-logic
tests).  The guard still consults derived `instance` facts, which makes
the program formally non-stratifiable at the predicate level; the
engine's well-founded fallback computes the intended *total* model
because placeholders never occur as targets of ``role_fact``.
"""

from __future__ import annotations

import hashlib
from typing import List

from ..errors import DomainMapError
from ..datalog.ast import Atom, Literal, Rule
from ..datalog.parser import parse_program
from ..datalog.terms import Const, Struct, Var
from ..gcm.constraints import IC_CLASS

#: functor of placeholder objects f_{C,r,D}(x)
PLACEHOLDER_FUNCTOR = "f"

_BASE_RULES = """
role_inst(R, X, Y) :- role_fact(R, X, Y).
role_inst(R, X, Y) :- role_asserted(R, X, Y).
"""


def base_rules():
    """The role_fact/role_asserted -> role_inst union view."""
    return list(parse_program(_BASE_RULES))


def dm_facts(dm):
    """GCM class/subclass facts for the map's concepts and isa pairs,
    so anchored objects propagate up the concept hierarchy (the Table 1
    axioms read them)."""
    rules: List[Rule] = []
    for concept in sorted(dm.concepts):
        rules.append(Rule(Atom("class", (Const(concept),))))
    for sub, sup in sorted(dm.isa_pairs()):
        rules.append(Rule(Atom("subclass", (Const(sub), Const(sup)))))
    return rules


def _guard_name(source, role, target):
    digest = hashlib.sha1(
        ("%s|%s|%s" % (source, role, target)).encode("utf-8")
    ).hexdigest()[:10]
    return "_dmfill_%s" % digest


def edge_constraint_rules(source, role, target):
    """The (ex) edge as an integrity constraint (Section 4)::

        w_edge(C,r,D,X) : ic :- X : C, not (Y : D, r(X,Y)).
    """
    x, y = Var("X"), Var("Y")
    guard = _guard_name(source, role, target)
    witness_rule = Rule(
        Atom(guard, (x,)),
        (
            Literal(Atom("role_inst", (Const(role), x, y))),
            Literal(Atom("instance", (y, Const(target)))),
        ),
    )
    denial = Rule(
        Atom(
            "instance",
            (
                Struct("w_edge", (Const(source), Const(role), Const(target), x)),
                Const(IC_CLASS),
            ),
        ),
        (
            Literal(Atom("instance", (x, Const(source)))),
            Literal(Atom(guard, (x,)), positive=False),
        ),
    )
    return [witness_rule, denial]


def edge_assertion_rules(source, role, target):
    """The (ex) edge as an assertion creating placeholder objects::

        Y : D, r(X,Y) :- X : C, not (Z : D, r(X,Z)), Y = f(C,r,D,X).

    Guarded on source-stated ``role_fact`` links (see module docstring).
    """
    x, y = Var("X"), Var("Y")
    guard = _guard_name(source, role, target)
    placeholder = Struct(
        PLACEHOLDER_FUNCTOR, (Const(source), Const(role), Const(target), x)
    )
    witness_rule = Rule(
        Atom(guard, (x,)),
        (
            Literal(Atom("role_fact", (Const(role), x, y))),
            Literal(Atom("instance", (y, Const(target)))),
        ),
    )
    make_instance = Rule(
        Atom("instance", (placeholder, Const(target))),
        (
            Literal(Atom("instance", (x, Const(source)))),
            Literal(Atom(guard, (x,)), positive=False),
        ),
    )
    make_link = Rule(
        Atom("role_asserted", (Const(role), x, placeholder)),
        (
            Literal(Atom("instance", (x, Const(source)))),
            Literal(Atom(guard, (x,)), positive=False),
        ),
    )
    return [witness_rule, make_instance, make_link]


def _select_edges(dm, spec):
    if spec is None:
        return []
    triples = dm.role_triples()
    if spec == "all":
        return sorted(triples)
    chosen = []
    for triple in spec:
        src, role, dst = triple
        if (src, role, dst) not in triples:
            raise DomainMapError(
                "edge (%s, %s, %s) is not a ex-edge of the domain map"
                % (src, role, dst)
            )
        chosen.append((src, role, dst))
    return chosen


def compile_domain_map(dm, assertions_for=None):
    """Compile a domain map to a Datalog rule list for the mediator.

    Args:
        dm: the :class:`DomainMap`.
        assertions_for: ``"all"`` or an iterable of (C, role, D)
            (ex)-edges to execute as placeholder-creating assertions.

    The map's closures (``tc``/``dc``/``has_a_star``) are not part of
    the program: :mod:`~repro.domainmap.graphops` derives them once per
    map revision for every reader.  The constraint reading of an edge
    is added by the caller, phase 2 of an integrity check
    (:func:`edge_constraint_rules`).
    """
    rules: List[Rule] = []
    rules.extend(dm_facts(dm))
    rules.extend(base_rules())
    for src, role, dst in _select_edges(dm, assertions_for):
        rules.extend(edge_assertion_rules(src, role, dst))
    return rules
