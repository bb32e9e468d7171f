"""Translation of F-logic to the Datalog core (Table 1).

GCM expression            F-logic syntax        Datalog relation
------------------------  --------------------  -----------------------
instance(X, C)            X : C                 instance(X, C)
subclass(C1, C2)          C1 :: C2              subclass(C1, C2)
method(C, M, CM)          C[M => CM]            method(C, M, CM)
methodinst(X, M, Y)       X[M -> Y]             method_inst(X, M, Y)
(inheritable default)     C[M *-> V]            default_val(C, M, V)

Reading and writing are asymmetric, mirroring F-logic systems: a data
frame in a rule *head* asserts `method_inst`, while the same frame in a
*body* reads the derived `method_val` relation, which is `method_inst`
plus nonmonotonically inherited defaults (see :mod:`.axioms`).

Negated conjunctions ``not (A, B)`` — used by the paper's assertion
rules — have no direct Datalog form; the translator introduces an
auxiliary predicate capturing the conjunction, named by a content hash
so repeated translation of the same text stays idempotent.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

from ..errors import FLogicTranslationError
from ..datalog.ast import (
    AggregateLiteral,
    Assignment,
    Atom,
    Comparison,
    Literal,
    Rule,
)
from ..datalog.terms import Term, Var
from .ast import (
    ARROW_DEFAULT,
    ARROW_MULTI,
    ARROW_SCALAR,
    ARROW_SIG_MULTI,
    ARROW_SIG_SCALAR,
    FLAggregate,
    FLNegation,
    FLPredicate,
    FLRule,
    Molecule,
)

#: relation names of the GCM core (reserved; plain FL predicates may not
#: shadow them with the wrong arity, but using them directly is allowed
#: and equivalent to the frame syntax).
PRED_INSTANCE = "instance"
PRED_SUBCLASS = "subclass"
PRED_METHOD = "method"
PRED_METHOD_INST = "method_inst"
PRED_METHOD_VAL = "method_val"
PRED_DEFAULT_VAL = "default_val"
PRED_CLASS = "class"


def molecule_atoms(molecule, mode):
    """Flatten a molecule into GCM atoms.

    `mode` is ``"head"`` (assert `method_inst`) or ``"body"`` (read
    `method_val`).
    """
    atoms = []
    subject = molecule.subject
    if molecule.tag_kind == ":":
        atoms.append(Atom(PRED_INSTANCE, (subject, molecule.tag)))
    elif molecule.tag_kind == "::":
        atoms.append(Atom(PRED_SUBCLASS, (subject, molecule.tag)))
    for spec in molecule.specs:
        if spec.arrow in (ARROW_SCALAR, ARROW_MULTI):
            pred = PRED_METHOD_INST if mode == "head" else PRED_METHOD_VAL
            for value in spec.values:
                atoms.append(Atom(pred, (subject, spec.method, value)))
        elif spec.arrow in (ARROW_SIG_SCALAR, ARROW_SIG_MULTI):
            for value in spec.values:
                atoms.append(Atom(PRED_METHOD, (subject, spec.method, value)))
        elif spec.arrow == ARROW_DEFAULT:
            for value in spec.values:
                atoms.append(Atom(PRED_DEFAULT_VAL, (subject, spec.method, value)))
        else:  # pragma: no cover - constructor already validates
            raise FLogicTranslationError("unknown arrow %r" % spec.arrow)
    if not atoms:
        raise FLogicTranslationError(
            "molecule %s has neither tag nor frame" % molecule
        )
    return atoms


class Translator:
    """Stateful FL→Datalog translator (collects auxiliary rules)."""

    def __init__(self):
        self.aux_rules: List[Rule] = []

    # -- public API -----------------------------------------------------

    def translate_rules(self, fl_rules):
        """Translate F-logic rules into a list of Datalog rules.

        One Datalog rule is produced per atom of each conjunctive head;
        auxiliary rules for negated conjunctions are appended at the end.
        """
        self.aux_rules = []
        out: List[Rule] = []
        for fl_rule in fl_rules:
            out.extend(self._translate_rule(fl_rule))
        out.extend(self.aux_rules)
        return out

    def translate_body(self, fl_items):
        """Translate a query conjunction; returns (body_items, aux_rules)."""
        self.aux_rules = []
        body = self._translate_body_items(fl_items, _sibling_variables(fl_items, ()))
        return body, list(self.aux_rules)

    # -- internals --------------------------------------------------------

    def _translate_rule(self, fl_rule):
        head_atoms: List[Atom] = []
        for head in fl_rule.heads:
            if isinstance(head, Molecule):
                head_atoms.extend(molecule_atoms(head, mode="head"))
            elif isinstance(head, FLPredicate):
                head_atoms.append(Atom(head.name, head.args))
            else:
                raise FLogicTranslationError(
                    "illegal head item %s" % (head,)
                )
        body = self._translate_body_items(
            fl_rule.body, _sibling_variables(fl_rule.body, fl_rule.heads)
        )
        return [Rule(atom, tuple(body)) for atom in head_atoms]

    def _translate_body_items(self, fl_items, sibling_vars):
        """Translate items; `sibling_vars[i]` is the variable set of every
        item except item i (plus any heads), used to scope negation."""
        body = []
        for item, outer in zip(fl_items, sibling_vars):
            body.extend(self._translate_body_item(item, outer))
        return body

    def _translate_body_item(self, item, rule_vars):
        if isinstance(item, Molecule):
            return [
                Literal(atom) for atom in molecule_atoms(item, mode="body")
            ]
        if isinstance(item, FLPredicate):
            return [Literal(Atom(item.name, item.args))]
        if isinstance(item, (Comparison, Assignment)):
            return [item]
        if isinstance(item, FLAggregate):
            inner = self._translate_body_items(
                item.body, _sibling_variables(item.body, ())
            )
            return [
                AggregateLiteral(
                    item.func, item.result, item.value, item.group_by, tuple(inner)
                )
            ]
        if isinstance(item, FLNegation):
            return [self._translate_negation(item, rule_vars)]
        raise FLogicTranslationError("unsupported body item %r" % (item,))

    def _translate_negation(self, negation, rule_vars):
        inner_siblings = [
            siblings | rule_vars
            for siblings in _sibling_variables(negation.items, ())
        ]
        inner = self._translate_body_items(negation.items, inner_siblings)
        if len(inner) == 1 and isinstance(inner[0], Literal) and inner[0].positive:
            return inner[0].negate()
        # Auxiliary predicate over the variables shared with the rest of
        # the rule; named by content hash for idempotent re-translation.
        inner_vars = set()
        for lit in inner:
            inner_vars |= set(lit.variables())
        outer_vars = {
            v for v in inner_vars
            if v in rule_vars and not v.name.startswith("_fl")
        }
        shared = sorted(outer_vars, key=lambda v: v.name)
        digest = hashlib.sha1(
            ("|".join(str(i) for i in inner) + "#" + ",".join(v.name for v in shared))
            .encode("utf-8")
        ).hexdigest()[:12]
        aux_pred = "_not_%s" % digest
        aux_head = Atom(aux_pred, tuple(shared))
        self.aux_rules.append(Rule(aux_head, tuple(inner)))
        return Literal(aux_head, positive=False)


def _sibling_variables(items, heads):
    """For each body item, the variables of every *other* item and of the
    heads.  A negated conjunction's auxiliary predicate must expose
    exactly the variables it shares with this sibling set."""
    item_vars = [_item_variables(item) for item in items]
    head_vars = set()
    for head in heads:
        head_vars |= _item_variables(head)
    siblings = []
    for index in range(len(items)):
        outer = set(head_vars)
        for other, variables in enumerate(item_vars):
            if other != index:
                outer |= variables
        siblings.append(outer)
    return siblings


def _item_variables(item):
    variables = set()
    if isinstance(item, Molecule):
        variables |= set(item.subject.variables())
        if item.tag is not None:
            variables |= set(item.tag.variables())
        for spec in item.specs:
            variables |= set(spec.method.variables())
            for value in spec.values:
                variables |= set(value.variables())
    elif isinstance(item, FLPredicate):
        for arg in item.args:
            variables |= set(arg.variables())
    elif isinstance(item, (Comparison, Assignment)):
        variables |= set(item.variables())
    elif isinstance(item, FLAggregate):
        variables |= set(item.result.variables())
        for g in item.group_by:
            variables |= set(g.variables())
        variables |= set(item.value.variables())
        for sub in item.body:
            variables |= _item_variables(sub)
    elif isinstance(item, FLNegation):
        for sub in item.items:
            variables |= _item_variables(sub)
    return variables
