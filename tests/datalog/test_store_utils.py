"""Tests for FactStore utilities and EvaluationResult accessors."""

import pytest

from repro.datalog import Atom, Const, FactStore, Var, evaluate, parse_atom, parse_program


def store_of(*facts):
    store = FactStore()
    for pred, *args in facts:
        store.add(Atom(pred, tuple(Const(a) for a in args)))
    return store


class TestFactStoreUtilities:
    def test_merge(self):
        left = store_of(("p", 1), ("p", 2))
        right = store_of(("p", 2), ("q", 3))
        left.merge(right)
        assert len(left) == 3
        assert left.contains(Atom("q", (Const(3),)))

    def test_same_facts_ignores_empty_relations(self):
        left = store_of(("p", 1))
        right = store_of(("p", 1))
        # touch an empty relation on one side only
        left.rows(("q", 1))
        assert left.same_facts(right)

    def test_count_and_signatures(self):
        store = store_of(("p", 1), ("p", 2), ("q", 1, 2))
        assert len(store.rows(("p", 1))) == 2
        assert len(store.rows(("q", 2))) == 1
        assert set(store.signatures()) == {("p", 1), ("q", 2)}

    def test_non_ground_fact_rejected(self):
        store = FactStore()
        with pytest.raises(ValueError):
            store.add(Atom("p", (Var("X"),)))

    def test_candidates_fall_back_to_scan(self):
        store = store_of(("p", 1, "a"), ("p", 2, "b"))
        goal = Atom("p", (Var("X"), Var("Y")))
        assert len(list(store.candidates(goal, {}))) == 2

    def test_sorted_atoms_filtered_by_pred(self):
        store = store_of(("p", 2), ("p", 1), ("q", 1))
        assert [str(a) for a in store.sorted_atoms("p")] == ["p(1)", "p(2)"]


class TestEvaluationResultAccessors:
    def test_is_true_and_is_undefined(self):
        program = parse_program(
            "move(a, b). move(b, a). win(X) :- move(X, Y), not win(Y)."
        )
        result = evaluate(program)
        assert not result.store.contains(parse_atom("win(a)"))
        assert result.undefined.contains(parse_atom("win(a)"))
        assert result.store.contains(parse_atom("move(a, b)"))
        assert not result.undefined.contains(parse_atom("move(a, b)"))

    def test_program_contains(self):
        program = parse_program("p(a).")
        rule = list(program)[0]
        assert rule in program
