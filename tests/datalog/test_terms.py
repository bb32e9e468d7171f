"""Unit tests for terms, substitution, and unification."""

import pytest

from repro.datalog.terms import (
    Const,
    Struct,
    Var,
    coerce_term,
    occurs_in,
    struct,
    substitute,
    term_sort_key,
    unify,
    walk,
)


class TestTermBasics:
    def test_const_equality_by_value(self):
        assert Const("a") == Const("a")
        assert Const("a") != Const("b")
        assert Const(1) != Const("1")

    def test_const_is_ground(self):
        assert Const("a").is_ground()
        assert list(Const("a").variables()) == []

    def test_var_equality_by_name(self):
        assert Var("X") == Var("X")
        assert Var("X") != Var("Y")

    def test_var_not_ground(self):
        assert not Var("X").is_ground()
        assert list(Var("X").variables()) == [Var("X")]

    def test_anonymous_variable_detection(self):
        assert Var("_").is_anonymous
        assert Var("_G1").is_anonymous
        assert not Var("X").is_anonymous

    def test_struct_equality_structural(self):
        assert struct("f", Const(1)) == struct("f", Const(1))
        assert struct("f", Const(1)) != struct("g", Const(1))
        assert struct("f", Const(1)) != struct("f", Const(2))
        assert struct("f", Const(1)) != struct("f", Const(1), Const(2))

    def test_struct_groundness(self):
        assert struct("f", Const(1)).is_ground()
        assert not struct("f", Var("X")).is_ground()

    def test_struct_nested_variables(self):
        term = struct("f", struct("g", Var("X")), Var("Y"))
        assert set(term.variables()) == {Var("X"), Var("Y")}

    def test_terms_are_hashable(self):
        seen = {Const("a"), Var("X"), struct("f", Const(1))}
        assert Const("a") in seen
        assert Var("X") in seen
        assert struct("f", Const(1)) in seen

    def test_const_str_quotes_non_atoms(self):
        assert str(Const("abc")) == "abc"
        assert str(Const("Purkinje Cell")) == "'Purkinje Cell'"
        assert str(Const(42)) == "42"

    def test_coerce_term_passthrough_and_wrap(self):
        assert coerce_term(Var("X")) == Var("X")
        assert coerce_term("a") == Const("a")
        assert coerce_term(3.5) == Const(3.5)


class TestSubstitution:
    def test_walk_follows_chains(self):
        subst = {Var("X"): Var("Y"), Var("Y"): Const(1)}
        assert walk(Var("X"), subst) == Const(1)

    def test_walk_stops_at_unbound(self):
        assert walk(Var("X"), {}) == Var("X")

    def test_substitute_into_struct(self):
        subst = {Var("X"): Const("a")}
        term = struct("f", Var("X"), struct("g", Var("X")))
        assert substitute(term, subst) == struct("f", Const("a"), struct("g", Const("a")))

    def test_substitute_leaves_unbound(self):
        term = struct("f", Var("X"), Var("Y"))
        out = substitute(term, {Var("X"): Const(1)})
        assert out == struct("f", Const(1), Var("Y"))


class TestUnification:
    def test_unify_const_const(self):
        assert unify(Const(1), Const(1)) == {}
        assert unify(Const(1), Const(2)) is None

    def test_unify_var_binds(self):
        subst = unify(Var("X"), Const("a"))
        assert subst == {Var("X"): Const("a")}

    def test_unify_symmetric(self):
        assert unify(Const("a"), Var("X")) == {Var("X"): Const("a")}

    def test_unify_two_vars(self):
        subst = unify(Var("X"), Var("Y"))
        assert subst in ({Var("X"): Var("Y")}, {Var("Y"): Var("X")})

    def test_unify_structs(self):
        subst = unify(struct("f", Var("X"), Const(2)), struct("f", Const(1), Var("Y")))
        assert substitute(Var("X"), subst) == Const(1)
        assert substitute(Var("Y"), subst) == Const(2)

    def test_unify_struct_functor_mismatch(self):
        assert unify(struct("f", Var("X")), struct("g", Const(1))) is None

    def test_unify_struct_arity_mismatch(self):
        assert unify(struct("f", Var("X")), struct("f", Const(1), Const(2))) is None

    def test_unify_respects_existing_bindings(self):
        subst = {Var("X"): Const(1)}
        assert unify(Var("X"), Const(2), subst) is None
        assert unify(Var("X"), Const(1), subst) == subst

    def test_occurs_check_blocks_cyclic_binding(self):
        assert unify(Var("X"), struct("f", Var("X"))) is None

    def test_occurs_check_can_be_disabled(self):
        assert unify(Var("X"), struct("f", Var("X")), occurs_check=False) is not None

    def test_input_subst_not_mutated(self):
        original = {Var("Z"): Const(0)}
        result = unify(Var("X"), Const(1), original)
        assert original == {Var("Z"): Const(0)}
        assert result[Var("X")] == Const(1)

    def test_occurs_in_transitively(self):
        subst = {Var("Y"): struct("f", Var("X"))}
        assert occurs_in(Var("X"), Var("Y"), subst)


class TestOrderingAndFactories:
    def test_term_sort_key_total_over_mixed_types(self):
        terms = [Const(2), Const("a"), Const(1.5), struct("f", Const(1)), Const((1, 2))]
        ordered = sorted(terms, key=term_sort_key)
        assert len(ordered) == len(terms)
