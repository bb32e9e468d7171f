"""Integrity constraints as denials with `ic` failure witnesses.

The paper (Section 3, requirement IC): a logic integrity constraint
``phi`` is expressed as a denial; when a violation is derivable, a
*failure witness* object is inserted into the distinguished
inconsistency class ``ic``.  Witnesses are Skolem structs like
``wrc(class, subclass, x)`` that carry the violating context, so a
report can explain *what* failed and *why*.

:class:`Constraint` pairs a name/description with the denial rules;
:func:`check` evaluates a rule base and collects the witnesses
(:func:`check_model` checks a model evaluated elsewhere);
:class:`ConstraintReport` presents them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import ConstraintViolation
from ..datalog.ast import Atom, Program, Rule
from ..datalog.engine import evaluate
from ..datalog.parser import parse_program
from ..datalog.terms import Const, Struct, term_sort_key
from ..flogic.engine import FLogicEngine

#: the distinguished inconsistency class
IC_CLASS = "ic"


class Constraint:
    """A named integrity constraint backed by denial rules.

    The rules must derive ``instance(<witness>, ic)`` atoms, where the
    witness is typically a Skolem struct whose functor identifies the
    constraint kind and whose arguments identify the violation.
    """

    def __init__(self, name, rules, description=""):
        self.name = name
        self.description = description
        self._rules = list(rules)

    def rules(self):
        return list(self._rules)

    def __repr__(self):
        return "Constraint(%r)" % self.name


def constraint_from_text(name, datalog_text, description=""):
    """Build a constraint from Datalog source text."""
    return Constraint(name, parse_program(datalog_text), description)


class Witness:
    """One failure witness pulled out of the `ic` class."""

    __slots__ = ("term",)

    def __init__(self, term):
        self.term = term

    @property
    def kind(self):
        """The witness functor (e.g. ``wrc``, ``wtc``, ``was``)."""
        if isinstance(self.term, Struct):
            return self.term.functor
        if isinstance(self.term, Const):
            return str(self.term.value)
        return str(self.term)

    @property
    def context(self):
        """The witness arguments as plain Python values."""
        if isinstance(self.term, Struct):
            return tuple(
                arg.value if isinstance(arg, Const) else arg
                for arg in self.term.args
            )
        return ()

    def __eq__(self, other):
        return isinstance(other, Witness) and self.term == other.term

    def __hash__(self):
        return hash(("Witness", self.term))

    def __repr__(self):
        return "Witness(%s)" % self.term

    def __str__(self):
        return str(self.term)


class ConstraintReport:
    """The outcome of integrity checking: all `ic` witnesses found."""

    def __init__(self, witnesses):
        self.witnesses: List[Witness] = sorted(
            witnesses, key=lambda w: term_sort_key(w.term)
        )

    @property
    def ok(self):
        return not self.witnesses

    def by_kind(self):
        """Witnesses grouped by their functor."""
        grouped: Dict[str, List[Witness]] = {}
        for witness in self.witnesses:
            grouped.setdefault(witness.kind, []).append(witness)
        return grouped

    def kinds(self):
        return sorted(self.by_kind())

    def __len__(self):
        return len(self.witnesses)

    def __iter__(self):
        return iter(self.witnesses)

    def __str__(self):
        if self.ok:
            return "consistent (no ic witnesses)"
        lines = ["%d ic witness(es):" % len(self.witnesses)]
        for witness in self.witnesses:
            lines.append("  %s" % witness)
        return "\n".join(lines)


def witnesses_from_store(store):
    """Extract `ic` members from an evaluated fact store."""
    found = []
    for args in store.rows(("instance", 2)):
        if args[1] == Const(IC_CLASS):
            found.append(Witness(args[0]))
    return found


def check(rules, constraints=(), raise_on_violation=False):
    """Evaluate `rules` (+ constraint denials) and report `ic` witnesses.

    Checking runs in two phases, reflecting the *check* semantics of
    denials: first the rule base is evaluated to its model by an
    :class:`~repro.flogic.engine.FLogicEngine` (which links the Table 1
    axioms, ``*->`` value inheritance included), then the constraint
    denials run over the materialized model as facts (:func:`check_model`).
    This keeps denials stratified even when they aggregate over
    relations that (positively) depend on `instance` — e.g. cardinality
    checks over reified relation tuples.

    Args:
        rules: an iterable of Datalog rules (e.g. ``cm.all_rules()``) or
            a :class:`Program`.
        constraints: extra :class:`Constraint` objects to include.
        raise_on_violation: raise :class:`ConstraintViolation` when any
            witness is derived.
    """
    if hasattr(rules, "all_rules"):  # a ConceptualModel
        cm = rules
        constraints = list(constraints) + list(cm.constraints)
        rules = cm.all_rules(include_constraints=False)
    engine = FLogicEngine().tell_rules(rules)
    return check_model(
        engine.evaluate().store, constraints, raise_on_violation=raise_on_violation
    )


def check_model(store, constraints=(), raise_on_violation=False):
    """The second phase of :func:`check`: run the constraint denials
    over an already evaluated model and report its `ic` witnesses.

    Args:
        store: the model's fact store (e.g. an
            :class:`~repro.datalog.engine.EvaluationResult`'s ``store``).
        constraints: the :class:`Constraint` objects to check.
        raise_on_violation: raise :class:`ConstraintViolation` when any
            witness is derived.
    """
    checking = Program()
    for atom in store.iter_atoms():
        checking.add(Rule(atom))
    for constraint in constraints:
        checking.extend(constraint.rules())
    result = evaluate(checking)
    report = ConstraintReport(witnesses_from_store(result.store))
    if raise_on_violation and not report.ok:
        raise ConstraintViolation(
            "integrity violation: %d ic witness(es)" % len(report),
            witnesses=report.witnesses,
        )
    return report
