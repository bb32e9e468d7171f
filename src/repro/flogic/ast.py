"""Abstract syntax for the F-logic fragment of Table 1.

The fragment covers exactly what the paper uses as its concrete GCM:

* is-a assertions ``X : C``  (GCM `instance`)
* subclass assertions ``C1 :: C2``  (GCM `subclass`)
* signature frames ``C[M => CM]`` / ``C[M =>> CM]``  (GCM `method`)
* data frames ``X[M -> Y]`` / ``X[M ->> {Y1, ...}]``  (GCM `methodinst`)
* inheritable default frames ``C[M *-> V]`` (nonmonotonic value
  inheritance, Section 4 "nonmonotonic inheritance ... using FL with
  well-founded semantics")
* plain predicates ``p(t1, ..., tn)`` (e.g. GCM `relationinst`)
* rules ``head_1, ..., head_k :- body.`` with conjunctive heads (used by
  the paper's assertion rules), comparisons, arithmetic, and the
  aggregate syntax of Example 3 ``N = count{VA [VB]; ...}``.  Negation
  is stated in Datalog rules (well-founded semantics), not in F-logic
  bodies.

A *molecule* bundles a subject with an optional is-a/subclass tag and a
frame of method specifications; translation flattens each molecule into
one or more GCM atoms.

Comparisons and ``is`` assignments have no F-logic node: the parser
builds the Datalog :class:`~repro.datalog.ast.Comparison` and
:class:`~repro.datalog.ast.Assignment` for them.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..datalog.terms import Term, coerce_term

#: frame arrow kinds
ARROW_SCALAR = "->"
ARROW_MULTI = "->>"
ARROW_SIG_SCALAR = "=>"
ARROW_SIG_MULTI = "=>>"
ARROW_DEFAULT = "*->"

FRAME_ARROWS = (
    ARROW_DEFAULT,
    ARROW_MULTI,
    ARROW_SIG_MULTI,
    ARROW_SCALAR,
    ARROW_SIG_SCALAR,
)


class MethodSpec:
    """One ``method arrow value`` entry inside a frame.

    `values` always holds a tuple: multivalued arrows may list several
    values (``X[exp ->> {a, b}]`` produces two entries).
    """

    __slots__ = ("method", "arrow", "values")

    def __init__(self, method, arrow, values):
        if arrow not in FRAME_ARROWS:
            raise ValueError("unknown frame arrow %r" % arrow)
        self.method = coerce_term(method)
        self.arrow = arrow
        self.values = tuple(coerce_term(v) for v in values)

    def __eq__(self, other):
        return (
            isinstance(other, MethodSpec)
            and self.method == other.method
            and self.arrow == other.arrow
            and self.values == other.values
        )

    def __hash__(self):
        return hash(("MethodSpec", self.method, self.arrow, self.values))

    def __repr__(self):
        return "MethodSpec(%r, %r, %r)" % (self.method, self.arrow, self.values)

    def __str__(self):
        if len(self.values) == 1:
            value_text = str(self.values[0])
        else:
            value_text = "{%s}" % ", ".join(str(v) for v in self.values)
        return "%s %s %s" % (self.method, self.arrow, value_text)


class Molecule:
    """An F-logic molecule: subject, optional tag, optional frame.

    ``tag_kind`` is ``":"`` (is-a), ``"::"`` (subclass) or None; ``tag``
    is the class term when a tag is present.  The subject may be None
    for the paper's anonymous-tuple syntax ``: R[A -> X]`` (an unnamed
    instance of R) — the parser substitutes a fresh variable.
    """

    __slots__ = ("subject", "tag_kind", "tag", "specs")

    def __init__(self, subject, tag_kind=None, tag=None, specs=()):
        self.subject = coerce_term(subject)
        self.tag_kind = tag_kind
        self.tag = coerce_term(tag) if tag is not None else None
        self.specs = tuple(specs)
        if tag_kind not in (None, ":", "::"):
            raise ValueError("unknown molecule tag kind %r" % tag_kind)
        if (tag_kind is None) != (self.tag is None):
            raise ValueError("tag_kind and tag must be given together")

    def __eq__(self, other):
        return (
            isinstance(other, Molecule)
            and self.subject == other.subject
            and self.tag_kind == other.tag_kind
            and self.tag == other.tag
            and self.specs == other.specs
        )

    def __hash__(self):
        return hash(("Molecule", self.subject, self.tag_kind, self.tag, self.specs))

    def __repr__(self):
        return "Molecule(%r, %r, %r, %r)" % (
            self.subject,
            self.tag_kind,
            self.tag,
            self.specs,
        )

    def __str__(self):
        parts = [str(self.subject)]
        if self.tag_kind:
            parts.append(" %s %s" % (self.tag_kind, self.tag))
        if self.specs:
            parts.append("[%s]" % "; ".join(str(s) for s in self.specs))
        return "".join(parts)


class FLPredicate:
    """A plain predicate atom in F-logic syntax, e.g. ``r(X, Y)``."""

    __slots__ = ("name", "args")

    def __init__(self, name, args=()):
        self.name = name
        self.args = tuple(coerce_term(a) for a in args)

    def __eq__(self, other):
        return (
            isinstance(other, FLPredicate)
            and self.name == other.name
            and self.args == other.args
        )

    def __hash__(self):
        return hash(("FLPredicate", self.name, self.args))

    def __repr__(self):
        return "FLPredicate(%r, %r)" % (self.name, self.args)

    def __str__(self):
        if not self.args:
            return self.name
        return "%s(%s)" % (self.name, ", ".join(str(a) for a in self.args))


class FLAggregate:
    """``Result = func{Value [G1, ...]; body}`` in an F-logic body.

    The inner body is a sequence of F-logic body items (molecules,
    predicates, Datalog comparisons) that will itself be translated.
    """

    __slots__ = ("func", "result", "value", "group_by", "body")

    def __init__(self, func, result, value, group_by, body):
        self.func = func
        self.result = result
        self.value = coerce_term(value)
        self.group_by = tuple(coerce_term(g) for g in group_by)
        self.body = tuple(body)

    def __eq__(self, other):
        return (
            isinstance(other, FLAggregate)
            and self.func == other.func
            and self.result == other.result
            and self.value == other.value
            and self.group_by == other.group_by
            and self.body == other.body
        )

    def __hash__(self):
        return hash(
            ("FLAggregate", self.func, self.result, self.value, self.group_by, self.body)
        )

    def __repr__(self):
        return "FLAggregate(%r, %r, %r, %r, %r)" % (
            self.func,
            self.result,
            self.value,
            self.group_by,
            self.body,
        )

    def __str__(self):
        group = ""
        if self.group_by:
            group = " [%s]" % ", ".join(str(g) for g in self.group_by)
        return "%s = %s{%s%s; %s}" % (
            self.result,
            self.func,
            self.value,
            group,
            ", ".join(str(b) for b in self.body),
        )


class FLRule:
    """An F-logic rule with a conjunctive head.

    ``heads`` and ``body`` are sequences of F-logic items; a fact is a
    rule with an empty body.
    """

    __slots__ = ("heads", "body")

    def __init__(self, heads, body=()):
        self.heads = tuple(heads)
        self.body = tuple(body)

    def __eq__(self, other):
        return (
            isinstance(other, FLRule)
            and self.heads == other.heads
            and self.body == other.body
        )

    def __hash__(self):
        return hash(("FLRule", self.heads, self.body))

    def __repr__(self):
        return "FLRule(%r, %r)" % (self.heads, self.body)

    def __str__(self):
        head_text = ", ".join(str(h) for h in self.heads)
        if not self.body:
            return "%s." % head_text
        return "%s :- %s." % (head_text, ", ".join(str(b) for b in self.body))
