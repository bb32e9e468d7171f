"""Unit tests for builtin comparison/arithmetic evaluation."""

import pytest

from repro.datalog.ast import Assignment, Comparison
from repro.datalog.builtins import compare_values, evaluate_expression
from repro.datalog.join import _compile, _Stores
from repro.datalog.store import FactStore
from repro.datalog.terms import Const, Struct, Var
from repro.errors import EvaluationError


def solve(item, bindings=None):
    """The solutions of the body item `item`, compiled as a join, with
    the variables of `bindings` bound on entry."""
    bindings = bindings or {}
    join = _compile([item], bound=list(bindings))
    return [
        join.substitution(slots)
        for slots in join.run(_Stores(FactStore()), entry=list(bindings.values()))
    ]


class TestExpressionEvaluation:
    def test_constant(self):
        assert evaluate_expression(Const(5), {}) == 5

    def test_variable_lookup(self):
        assert evaluate_expression(Var("X"), {Var("X"): Const(7)}) == 7

    def test_unbound_variable_raises(self):
        with pytest.raises(EvaluationError):
            evaluate_expression(Var("X"), {})

    @pytest.mark.parametrize(
        "functor,args,expected",
        [
            ("+", (2, 3), 5),
            ("-", (2, 3), -1),
            ("*", (4, 3), 12),
            ("/", (7, 2), 3.5),
            ("//", (7, 2), 3),
            ("mod", (7, 3), 1),
            ("min", (7, 3), 3),
            ("max", (7, 3), 7),
        ],
    )
    def test_binary_operators(self, functor, args, expected):
        expr = Struct(functor, (Const(args[0]), Const(args[1])))
        assert evaluate_expression(expr, {}) == expected

    def test_unary_minus_and_abs(self):
        assert evaluate_expression(Struct("-", (Const(4),)), {}) == -4
        assert evaluate_expression(Struct("abs", (Const(-4),)), {}) == 4

    def test_nested_expression(self):
        expr = Struct("+", (Struct("*", (Const(2), Const(3))), Const(1)))
        assert evaluate_expression(expr, {}) == 7

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            evaluate_expression(Struct("/", (Const(1), Const(0))), {})

    def test_type_error_wrapped(self):
        with pytest.raises(EvaluationError):
            evaluate_expression(Struct("-", (Const("abc"),)), {})

    def test_unknown_functor(self):
        with pytest.raises(EvaluationError):
            evaluate_expression(Struct("pow", (Const(2), Const(3))), {})


class TestCompareValues:
    def test_numeric_order(self):
        assert compare_values("<", 1, 2)
        assert compare_values(">=", 2.0, 2)
        assert not compare_values(">", 1, 2)

    def test_string_order(self):
        assert compare_values("<", "abc", "abd")

    def test_mixed_types_total_order(self):
        # numbers sort before non-numbers; never raises
        assert compare_values("<", 5, "a")
        assert not compare_values("<", "a", 5)

    def test_equality_across_types(self):
        assert not compare_values("=", 1, "1")
        assert compare_values("!=", 1, "1")

    def test_bool_comparisons_numeric(self):
        assert compare_values("<", False, True)
        assert compare_values("=", 1, True)  # Python semantics preserved


class TestSolvers:
    def test_comparison_filters(self):
        item = Comparison("<", Var("X"), Const(5))
        assert solve(item, {Var("X"): Const(3)}) != []
        assert solve(item, {Var("X"): Const(9)}) == []

    def test_equality_unifies(self):
        item = Comparison("=", Var("X"), Const(3))
        results = solve(item)
        assert len(results) == 1
        assert results[0][Var("X")] == Const(3)

    def test_unbound_strict_comparison_raises(self):
        item = Comparison("<", Var("X"), Const(5))
        with pytest.raises(EvaluationError):
            solve(item)

    def test_assignment_binds(self):
        item = Assignment(Var("Y"), Struct("+", (Const(1), Const(2))))
        results = solve(item)
        assert results[0][Var("Y")] == Const(3)

    def test_assignment_as_check(self):
        item = Assignment(Var("Y"), Const(3))
        assert solve(item, {Var("Y"): Const(3)}) != []
        assert solve(item, {Var("Y"): Const(4)}) == []
