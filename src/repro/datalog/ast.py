"""Abstract syntax of the Datalog dialect.

A *program* is a set of rules ``head :- body`` where the body mixes:

* positive and negated relational literals (:class:`Literal`),
* comparison/arithmetic builtins (:class:`Comparison`, :class:`Assignment`),
* aggregate subgoals (:class:`AggregateLiteral`) in the style of the
  paper's Example 3::

      N = count{VA [VB]; R(VA, VB)}

  which groups the solutions of the subgoal conjunction by ``VB`` and
  counts the distinct ``VA`` per group.

Facts are rules with an empty body and a ground head.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .terms import Const, Struct, Term, Var, coerce_term, substitute

#: Builtin comparison operator names accepted by :class:`Comparison`.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: Aggregate function names accepted by :class:`AggregateLiteral`.
AGGREGATE_FUNCS = ("count", "sum", "min", "max", "avg")


class Atom:
    """A relational atom ``pred(t1, ..., tn)``."""

    __slots__ = ("pred", "args", "_hash")

    def __init__(self, pred, args=()):
        self.pred = pred
        self.args = tuple(coerce_term(a) for a in args)
        self._hash = hash(("Atom", pred, self.args))

    @property
    def arity(self):
        return len(self.args)

    @property
    def signature(self):
        """The (predicate, arity) pair identifying the relation."""
        return (self.pred, self.arity)

    def is_ground(self):
        return all(arg.is_ground() for arg in self.args)

    def variables(self):
        for arg in self.args:
            yield from arg.variables()

    def substitute(self, subst):
        return Atom(self.pred, tuple(substitute(a, subst) for a in self.args))

    def __eq__(self, other):
        return (
            isinstance(other, Atom)
            and self.pred == other.pred
            and self.args == other.args
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Atom(%r, %r)" % (self.pred, self.args)

    def __str__(self):
        if not self.args:
            return self.pred
        return "%s(%s)" % (self.pred, ", ".join(str(a) for a in self.args))


class BodyItem:
    """Abstract base for anything that may appear in a rule body."""

    __slots__ = ()


class Literal(BodyItem):
    """A possibly negated relational atom in a rule body."""

    __slots__ = ("atom", "positive", "_hash")

    def __init__(self, atom, positive=True):
        self.atom = atom
        self.positive = positive
        self._hash = hash(("Literal", atom, positive))

    def variables(self):
        return self.atom.variables()

    def substitute(self, subst):
        return Literal(self.atom.substitute(subst), self.positive)

    def __eq__(self, other):
        return (
            isinstance(other, Literal)
            and self.atom == other.atom
            and self.positive == other.positive
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Literal(%r, positive=%r)" % (self.atom, self.positive)

    def __str__(self):
        return str(self.atom) if self.positive else "not %s" % self.atom


class Comparison(BodyItem):
    """A builtin comparison ``left op right`` over ground values.

    ``=`` doubles as unification when one side is unbound; every other
    operator requires both sides bound at evaluation time (the safety
    checker enforces an ordering that guarantees this for safe rules).
    """

    __slots__ = ("op", "left", "right", "_hash")

    def __init__(self, op, left, right):
        if op not in COMPARISON_OPS:
            raise ValueError("unknown comparison operator: %r" % op)
        self.op = op
        self.left = coerce_term(left)
        self.right = coerce_term(right)
        self._hash = hash(("Comparison", op, self.left, self.right))

    def variables(self):
        yield from self.left.variables()
        yield from self.right.variables()

    def substitute(self, subst):
        return Comparison(self.op, substitute(self.left, subst), substitute(self.right, subst))

    def __eq__(self, other):
        return (
            isinstance(other, Comparison)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Comparison(%r, %r, %r)" % (self.op, self.left, self.right)

    def __str__(self):
        return "%s %s %s" % (self.left, self.op, self.right)


class Assignment(BodyItem):
    """An arithmetic assignment ``Var is Expr`` with `Expr` a
    :class:`Struct` tree over ``+ - * / mod`` and ground leaves."""

    __slots__ = ("target", "expr", "_hash")

    def __init__(self, target, expr):
        self.target = target
        self.expr = coerce_term(expr)
        self._hash = hash(("Assignment", target, self.expr))

    def variables(self):
        yield from self.target.variables()
        yield from self.expr.variables()

    def substitute(self, subst):
        return Assignment(substitute(self.target, subst), substitute(self.expr, subst))

    def __eq__(self, other):
        return (
            isinstance(other, Assignment)
            and self.target == other.target
            and self.expr == other.expr
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Assignment(%r, %r)" % (self.target, self.expr)

    def __str__(self):
        return "%s is %s" % (self.target, self.expr)


class AggregateLiteral(BodyItem):
    """An aggregate subgoal ``Result = func{Value [G1,...,Gk]; body}``.

    Semantics: evaluate `body` (a conjunction of positive literals and
    comparisons), group solutions by the grouping variables, apply
    `func` to the multiset of `value` instantiations per group (count
    uses the *set* of distinct values, matching the paper's use), and
    bind `result` per group.

    Grouping variables are the aggregate's join interface: they may be
    bound from the outer rule; `result` must be a fresh variable.
    """

    __slots__ = ("func", "result", "value", "group_by", "body", "_hash")

    def __init__(self, func, result, value, group_by, body):
        if func not in AGGREGATE_FUNCS:
            raise ValueError("unknown aggregate function: %r" % func)
        self.func = func
        self.result = result
        self.value = coerce_term(value)
        self.group_by = tuple(group_by)
        self.body = tuple(body)
        self._hash = hash(
            ("AggregateLiteral", func, result, self.value, self.group_by, self.body)
        )

    def variables(self):
        """Variables visible to the *outer* rule: result + grouping vars."""
        yield from self.result.variables()
        for g in self.group_by:
            yield from g.variables()

    def substitute(self, subst):
        return AggregateLiteral(
            self.func,
            substitute(self.result, subst),
            substitute(self.value, subst),
            tuple(substitute(g, subst) for g in self.group_by),
            tuple(item.substitute(subst) for item in self.body),
        )

    def __eq__(self, other):
        return (
            isinstance(other, AggregateLiteral)
            and self.func == other.func
            and self.result == other.result
            and self.value == other.value
            and self.group_by == other.group_by
            and self.body == other.body
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "AggregateLiteral(%r, %r, %r, %r, %r)" % (
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
        body = ", ".join(str(b) for b in self.body)
        return "%s = %s{%s%s; %s}" % (self.result, self.func, self.value, group, body)


class Rule:
    """A rule ``head :- body``.  A fact is a rule with an empty body."""

    __slots__ = ("head", "body", "_hash")

    def __init__(self, head, body=()):
        self.head = head
        self.body = tuple(body)
        self._hash = hash(("Rule", head, self.body))

    @property
    def is_fact(self):
        return not self.body

    def __eq__(self, other):
        return (
            isinstance(other, Rule)
            and self.head == other.head
            and self.body == other.body
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Rule(%r, %r)" % (self.head, self.body)

    def __str__(self):
        if self.is_fact:
            return "%s." % self.head
        return "%s :- %s." % (self.head, ", ".join(str(b) for b in self.body))


class Program:
    """An ordered, duplicate-free collection of rules and facts."""

    def __init__(self, rules=()):
        self._rules: List[Rule] = []
        self._seen = set()
        for rule in rules:
            self.add(rule)

    def add(self, rule):
        """Add one rule; duplicates are silently ignored."""
        if rule not in self._seen:
            self._seen.add(rule)
            self._rules.append(rule)
        return self

    def extend(self, rules):
        for rule in rules:
            self.add(rule)
        return self

    def add_fact(self, pred, *args):
        """Convenience: add a ground fact ``pred(args)``."""
        self.add(Rule(Atom(pred, args)))
        return self

    def proper_rules(self):
        return (r for r in self._rules if not r.is_fact)

    def idb_predicates(self):
        """Signatures defined by at least one proper rule."""
        return {rule.head.signature for rule in self.proper_rules()}

    def __iter__(self):
        return iter(self._rules)

    def __len__(self):
        return len(self._rules)

    def __contains__(self, rule):
        return rule in self._seen

    def __str__(self):
        return "\n".join(str(rule) for rule in self._rules)


def fact(pred, *args):
    """Build a ground fact rule ``pred(args).``"""
    return Rule(Atom(pred, args))
