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
"""

from __future__ import annotations

from typing import List

from ..errors import FLogicTranslationError
from ..datalog.ast import (
    AggregateLiteral,
    Assignment,
    Atom,
    Comparison,
    Literal,
    Rule,
)
from .ast import (
    ARROW_DEFAULT,
    ARROW_MULTI,
    ARROW_SCALAR,
    ARROW_SIG_MULTI,
    ARROW_SIG_SCALAR,
    FLAggregate,
    FLPredicate,
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


def translate_rules(fl_rules):
    """Translate F-logic rules into a list of Datalog rules.

    One Datalog rule is produced per atom of each conjunctive head.
    """
    out: List[Rule] = []
    for fl_rule in fl_rules:
        out.extend(_translate_rule(fl_rule))
    return out


def translate_body(fl_items):
    """Translate a query conjunction into Datalog body items."""
    body = []
    for item in fl_items:
        body.extend(_translate_body_item(item))
    return body


def _translate_rule(fl_rule):
    head_atoms: List[Atom] = []
    for head in fl_rule.heads:
        if isinstance(head, Molecule):
            head_atoms.extend(molecule_atoms(head, mode="head"))
        elif isinstance(head, FLPredicate):
            head_atoms.append(Atom(head.name, head.args))
        else:
            raise FLogicTranslationError("illegal head item %s" % (head,))
    body = translate_body(fl_rule.body)
    return [Rule(atom, tuple(body)) for atom in head_atoms]


def _translate_body_item(item):
    if isinstance(item, Molecule):
        return [Literal(atom) for atom in molecule_atoms(item, mode="body")]
    if isinstance(item, FLPredicate):
        return [Literal(Atom(item.name, item.args))]
    if isinstance(item, (Comparison, Assignment)):
        return [item]
    if isinstance(item, FLAggregate):
        inner = translate_body(item.body)
        return [
            AggregateLiteral(
                item.func, item.result, item.value, item.group_by, tuple(inner)
            )
        ]
    raise FLogicTranslationError("unsupported body item %r" % (item,))
