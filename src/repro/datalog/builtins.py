"""Builtin evaluation: comparisons and arithmetic expressions.

Builtins operate on ground :class:`Const` values; the join kernel
(:mod:`.join`) applies them, and there ``=`` also matches a side not
bound yet against the other.  Arithmetic expression trees are
:class:`Struct` terms with functors ``+ - * / // mod abs min max``.
"""

from __future__ import annotations

import numbers

from ..errors import EvaluationError
from .terms import Const, Struct, Var, walk

_ARITH_BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "//": lambda a, b: a // b,
    "mod": lambda a, b: a % b,
    "min": min,
    "max": max,
}

_ARITH_UNARY = {
    "-": lambda a: -a,
    "abs": abs,
}


def evaluate_expression(term, subst):
    """Evaluate an arithmetic expression term to a Python value.

    Raises :class:`EvaluationError` when a leaf is unbound or a functor
    is not arithmetic.
    """
    term = walk(term, subst)
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        raise EvaluationError("unbound variable %s in arithmetic expression" % term)
    if isinstance(term, Struct):
        if len(term.args) == 2 and term.functor in _ARITH_BINARY:
            left = evaluate_expression(term.args[0], subst)
            right = evaluate_expression(term.args[1], subst)
            try:
                return _ARITH_BINARY[term.functor](left, right)
            except (TypeError, ZeroDivisionError) as exc:
                raise EvaluationError(
                    "arithmetic failure %s(%r, %r): %s"
                    % (term.functor, left, right, exc)
                ) from exc
        if len(term.args) == 1 and term.functor in _ARITH_UNARY:
            value = evaluate_expression(term.args[0], subst)
            try:
                return _ARITH_UNARY[term.functor](value)
            except TypeError as exc:
                raise EvaluationError(
                    "arithmetic failure %s(%r): %s" % (term.functor, value, exc)
                ) from exc
        raise EvaluationError("non-arithmetic functor %r in expression" % term.functor)
    raise EvaluationError("cannot evaluate %r" % (term,))


def _comparison_key(value):
    """Totally order mixed ground values so < never raises.

    Numbers order among themselves; otherwise values are grouped by type
    name and ordered by repr within a group.  This mirrors the behaviour
    of a database sort over a union-typed column.
    """
    if isinstance(value, bool):
        # bool is a numbers.Integral subclass; keep it with numbers so
        # 0/False comparisons behave arithmetically.
        return (0, float(value), "")
    if isinstance(value, numbers.Real):
        return (0, float(value), "")
    return (1, 0.0, (type(value).__name__, repr(value)))


def compare_values(op, left, right):
    """Apply a comparison operator to two ground Python values."""
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    lk, rk = _comparison_key(left), _comparison_key(right)
    if op == "<":
        return lk < rk
    if op == "<=":
        return lk <= rk
    if op == ">":
        return lk > rk
    if op == ">=":
        return lk >= rk
    raise EvaluationError("unknown comparison operator %r" % op)
