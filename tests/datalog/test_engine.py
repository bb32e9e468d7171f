"""Unit tests for stratified and well-founded evaluation."""

import pytest

from repro.datalog import (
    Atom,
    Const,
    FactStore,
    Struct,
    Var,
    evaluate,
    parse_atom,
    parse_program,
    query,
    well_founded_model,
)
from repro.errors import EvaluationError, SafetyError, StratificationError


def answers(program_text, goal_text):
    return query(parse_program(program_text), parse_atom(goal_text))


class TestBasicEvaluation:
    def test_facts_only(self):
        assert answers("p(a). p(b).", "p(X)") == [{"X": "a"}, {"X": "b"}]

    def test_single_join(self):
        rows = answers(
            "parent(ann, bob). parent(bob, cal). "
            "grand(X, Z) :- parent(X, Y), parent(Y, Z).",
            "grand(X, Z)",
        )
        assert rows == [{"X": "ann", "Z": "cal"}]

    def test_ground_goal_success(self):
        rows = answers("p(a).", "p(a)")
        assert rows == [{}]

    def test_ground_goal_failure(self):
        assert answers("p(a).", "p(b)") == []

    def test_transitive_closure(self):
        rows = answers(
            """
            edge(1, 2). edge(2, 3). edge(3, 4).
            tc(X, Y) :- edge(X, Y).
            tc(X, Y) :- edge(X, Z), tc(Z, Y).
            """,
            "tc(1, Y)",
        )
        assert [r["Y"] for r in rows] == [2, 3, 4]

    def test_left_recursion(self):
        rows = answers(
            """
            edge(1, 2). edge(2, 3).
            tc(X, Y) :- edge(X, Y).
            tc(X, Y) :- tc(X, Z), edge(Z, Y).
            """,
            "tc(X, Y)",
        )
        assert len(rows) == 3

    def test_nonlinear_recursion(self):
        rows = answers(
            """
            edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5).
            tc(X, Y) :- edge(X, Y).
            tc(X, Y) :- tc(X, Z), tc(Z, Y).
            """,
            "tc(1, Y)",
        )
        assert [r["Y"] for r in rows] == [2, 3, 4, 5]

    def test_cyclic_graph_terminates(self):
        rows = answers(
            """
            edge(a, b). edge(b, a).
            tc(X, Y) :- edge(X, Y).
            tc(X, Y) :- edge(X, Z), tc(Z, Y).
            """,
            "tc(a, Y)",
        )
        assert sorted(r["Y"] for r in rows) == ["a", "b"]

    def test_mutual_recursion(self):
        rows = answers(
            """
            num(0). succ(0, 1). succ(1, 2). succ(2, 3).
            even(0).
            odd(Y) :- even(X), succ(X, Y).
            even(Y) :- odd(X), succ(X, Y).
            """,
            "even(X)",
        )
        assert [r["X"] for r in rows] == [0, 2]

    def test_repeated_variable_in_body_atom(self):
        rows = answers(
            "e(a, a). e(a, b). loop(X) :- e(X, X).",
            "loop(X)",
        )
        assert rows == [{"X": "a"}]

    def test_constants_in_rule_body(self):
        rows = answers(
            "p(a, 1). p(b, 2). q(X) :- p(X, 2).",
            "q(X)",
        )
        assert rows == [{"X": "b"}]

    def test_zero_arity_predicates(self):
        rows = answers("go. p(a) :- go.", "p(X)")
        assert rows == [{"X": "a"}]


class TestNegation:
    def test_stratified_negation(self):
        rows = answers(
            """
            node(a). node(b). node(c).
            edge(a, b).
            touched(X) :- edge(X, _).
            touched(Y) :- edge(_, Y).
            isolated(X) :- node(X), not touched(X).
            """,
            "isolated(X)",
        )
        assert rows == [{"X": "c"}]

    def test_negation_of_empty_predicate(self):
        rows = answers(
            "p(a). q(X) :- p(X), not missing(X).",
            "q(X)",
        )
        assert rows == [{"X": "a"}]

    def test_double_stratification(self):
        rows = answers(
            """
            a(1). a(2). a(3).
            b(X) :- a(X), not c(X).
            c(1).
            d(X) :- a(X), not b(X).
            """,
            "d(X)",
        )
        assert rows == [{"X": 1}]

    def test_set_difference(self):
        rows = answers(
            "s(a). s(b). t(b). diff(X) :- s(X), not t(X).",
            "diff(X)",
        )
        assert rows == [{"X": "a"}]


class TestWellFounded:
    def test_win_move_determined(self):
        program = parse_program(
            """
            move(a, b). move(b, c).
            win(X) :- move(X, Y), not win(Y).
            """
        )
        result = evaluate(program)
        assert result.used_well_founded
        assert result.is_true(parse_atom("win(b)"))
        assert not result.is_true(parse_atom("win(a)"))
        assert len(result.undefined) == 0

    def test_win_move_undefined_cycle(self):
        program = parse_program(
            """
            move(a, b). move(b, a).
            win(X) :- move(X, Y), not win(Y).
            """
        )
        true_store, undefined = well_founded_model(program)
        assert len(true_store.rows(("win", 1))) == 0
        undefined_atoms = {str(a) for a in undefined.sorted_atoms("win")}
        assert undefined_atoms == {"win(a)", "win(b)"}

    def test_cycle_with_escape(self):
        # a <-> b, b -> c (c is lost) so win(b) is true, win(a) false.
        program = parse_program(
            """
            move(a, b). move(b, a). move(b, c).
            win(X) :- move(X, Y), not win(Y).
            """
        )
        true_store, undefined = well_founded_model(program)
        assert {str(a) for a in true_store.sorted_atoms("win")} == {"win(b)"}
        assert len(undefined.rows(("win", 1))) == 0

    def test_stratified_program_agrees_with_wfs(self):
        text = """
        node(a). node(b). edge(a, b).
        touched(X) :- edge(X, _).
        isolated(X) :- node(X), not touched(X).
        """
        program = parse_program(text)
        stratified = evaluate(program)
        true_store, undefined = well_founded_model(program)
        assert len(undefined) == 0
        assert stratified.store.same_facts(true_store)

    def test_mutual_negation_both_undefined(self):
        program = parse_program(
            """
            seed.
            p :- seed, not q.
            q :- seed, not p.
            """
        )
        true_store, undefined = well_founded_model(program)
        assert not true_store.contains(Atom("p"))
        assert not true_store.contains(Atom("q"))
        assert undefined.contains(Atom("p"))
        assert undefined.contains(Atom("q"))

    def test_evaluate_reports_wf_fallback_flag(self):
        program = parse_program("p(a). q(X) :- p(X).")
        assert not evaluate(program).used_well_founded


class TestBuiltins:
    def test_comparison_filters(self):
        rows = answers("v(1). v(5). big(X) :- v(X), X > 3.", "big(X)")
        assert rows == [{"X": 5}]

    def test_equality_binds(self):
        rows = answers("v(1). p(X, Y) :- v(X), Y = X.", "p(X, Y)")
        assert rows == [{"X": 1, "Y": 1}]

    def test_inequality_on_strings(self):
        rows = answers(
            "c(a). c(b). pair(X, Y) :- c(X), c(Y), X != Y.",
            "pair(X, Y)",
        )
        assert len(rows) == 2

    def test_mixed_type_comparison_does_not_raise(self):
        rows = answers(
            "v(1). v(abc). small(X) :- v(X), X < zzz.",
            "small(X)",
        )
        # numbers sort before non-numbers in the engine's total order
        assert {r["X"] for r in rows} == {1, "abc"}

    def test_arithmetic_chain(self):
        rows = answers(
            "v(3). p(Z) :- v(X), Y is X * X, Z is Y + 1.",
            "p(Z)",
        )
        assert rows == [{"Z": 10}]

    def test_division_by_zero_raises(self):
        program = parse_program("v(1). p(Y) :- v(X), Y is X / 0.")
        with pytest.raises(EvaluationError):
            evaluate(program)

    def test_comparison_reordered_after_binding(self):
        # X > 3 written before v(X): the scheduler must defer it.
        rows = answers("v(1). v(5). big(X) :- X > 3, v(X).", "big(X)")
        assert rows == [{"X": 5}]

    def test_float_arithmetic(self):
        rows = answers("v(1). p(Y) :- v(X), Y is X / 2.", "p(Y)")
        assert rows == [{"Y": 0.5}]


class TestAggregates:
    def test_count_groups(self):
        rows = answers(
            """
            r(n1, a1). r(n1, a2). r(n2, a3).
            cnt(VB, N) :- r(VB, _), N = count{VA [VB]; r(VB, VA)}.
            """,
            "cnt(B, N)",
        )
        assert rows == [{"B": "n1", "N": 2}, {"B": "n2", "N": 1}]

    def test_count_distinct_semantics(self):
        rows = answers(
            """
            r(n1, a1). r(n1, a1).
            cnt(N) :- N = count{VA; r(_, VA)}.
            """,
            "cnt(N)",
        )
        assert rows == [{"N": 1}]

    def test_global_count(self):
        rows = answers("p(a). p(b). p(c). n(N) :- N = count{X; p(X)}.", "n(N)")
        assert rows == [{"N": 3}]

    def test_sum(self):
        rows = answers(
            "amount(x, 3). amount(x, 4). amount(y, 5). "
            "t(G, S) :- amount(G, _), S = sum{V [G]; amount(G, V)}.",
            "t(G, S)",
        )
        assert rows == [{"G": "x", "S": 7}, {"G": "y", "S": 5}]

    def test_min_max(self):
        program = "m(1). m(5). m(3). lo(X) :- X = min{V; m(V)}. hi(X) :- X = max{V; m(V)}."
        assert answers(program, "lo(X)") == [{"X": 1}]
        assert answers(program, "hi(X)") == [{"X": 5}]

    def test_avg(self):
        rows = answers("m(2). m(4). a(X) :- X = avg{V; m(V)}.", "a(X)")
        assert rows == [{"X": 3.0}]

    def test_empty_aggregate_yields_no_groups(self):
        rows = answers("seed. n(N) :- seed, N = count{X [X]; p(X)}.", "n(N)")
        assert rows == []

    def test_aggregate_with_inner_filter(self):
        rows = answers(
            "m(1). m(5). m(7). n(N) :- N = count{V; m(V), V > 2}.",
            "n(N)",
        )
        assert rows == [{"N": 2}]

    def test_sum_over_strings_raises(self):
        program = parse_program("m(a). s(X) :- X = sum{V; m(V)}.")
        with pytest.raises(EvaluationError):
            evaluate(program)

    def test_aggregate_over_derived_predicate(self):
        rows = answers(
            """
            e(a, b). e(b, c).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
            reach(X, N) :- e(X, _), N = count{Y [X]; tc(X, Y)}.
            """,
            "reach(a, N)",
        )
        assert rows == [{"N": 2}]

    def test_recursive_aggregate_rejected(self):
        program = parse_program(
            "p(a, 1). p(X, N) :- q(X), N = count{Y; p(Y, _)}. q(X) :- p(X, _)."
        )
        with pytest.raises(StratificationError):
            evaluate(program)


class TestSkolems:
    def test_struct_head_creates_object(self):
        program = parse_program("a(x1). a(x2). b(f(X)) :- a(X).")
        result = evaluate(program)
        facts = {str(atom) for atom in result.store.sorted_atoms("b")}
        assert facts == {"b(f(x1))", "b(f(x2))"}

    def test_struct_join(self):
        rows = answers(
            "holds(f(a), 1). key(f(a)). v(V) :- key(K), holds(K, V).",
            "v(V)",
        )
        assert rows == [{"V": 1}]

    def test_skolem_guarded_recursion_terminates(self):
        # One level of skolemization guarded by negation-free base.
        program = parse_program(
            """
            c(x).
            d(f(X)) :- c(X), not has(X).
            has_any(Y) :- d(Y).
            """
        )
        result = evaluate(program)
        assert result.store.contains(Atom("d", (Struct("f", (Const("x"),)),)))


class TestTerminationGuard:
    def test_unbounded_skolem_recursion_guarded(self):
        program = parse_program("n(z). n(s(X)) :- n(X).")
        with pytest.raises(EvaluationError, match="max_facts"):
            evaluate(program, max_facts=500)

    def test_guard_does_not_fire_on_terminating_programs(self):
        program = parse_program(
            """
            edge(a, b). edge(b, c).
            tc(X, Y) :- edge(X, Y).
            tc(X, Y) :- edge(X, Z), tc(Z, Y).
            """
        )
        result = evaluate(program, max_facts=100)
        assert len(result.store.rows(("tc", 2))) == 3

    def test_deeply_nested_terms_survive(self):
        # bounded skolem nesting well past the Python recursion limit
        program = parse_program(
            """
            n(0, z).
            n(M, s(X)) :- n(K, X), K < 2000, M is K + 1.
            """
        )
        result = evaluate(program, max_facts=10_000)
        assert len(result.store.rows(("n", 2))) == 2001


class TestSafetyIntegration:
    def test_unbound_head_var_rejected(self):
        with pytest.raises(SafetyError):
            evaluate(parse_program("p(X, Y) :- q(X)."))

    def test_negation_only_var_rejected(self):
        with pytest.raises(SafetyError):
            evaluate(parse_program("p(X) :- q(X), not r(Y)."))

    def test_comparison_only_var_rejected(self):
        with pytest.raises(SafetyError):
            evaluate(parse_program("p(X) :- q(X), Y > 3."))

    def test_equality_chain_is_safe(self):
        rows = answers("q(1). p(Y) :- q(X), Y = X.", "p(Y)")
        assert rows == [{"Y": 1}]

    def test_constant_equality_makes_safe(self):
        rows = answers("seed. p(X) :- seed, X = 5.", "p(X)")
        assert rows == [{"X": 5}]

    @pytest.mark.parametrize("strategy", ["seminaive", "naive"])
    def test_unchecked_unsafe_rule_fails_when_it_fires(self, strategy):
        # the unsafe rule fires in a recursive round, where the naive
        # strategy used to store the head unchecked (a ValueError)
        program = parse_program(
            "t(a). r(X, Y) :- s(X). s(X) :- t(X). s(X) :- r(X, _z)."
        )
        with pytest.raises(EvaluationError, match=r"derived non-ground fact r\(a, Y\)"):
            evaluate(program, check_safety=False, strategy=strategy)

    def test_unchecked_nonground_fact_fails(self):
        with pytest.raises(EvaluationError, match=r"stated non-ground fact p\(X\)"):
            evaluate(parse_program("q(a). p(X)."), check_safety=False)

    def test_unchecked_nonground_extra_fact_fails(self):
        base = evaluate(parse_program("q(a). r(X) :- q(X)."))
        with pytest.raises(EvaluationError, match=r"stated non-ground fact p\(X\)"):
            evaluate(parse_program("p(X)."), check_safety=False, base=base)
        assert [str(atom) for atom in base.store.iter_atoms()] == ["q(a)", "r(a)"]


class TestEvaluationResult:
    def test_facts_listing_deterministic(self):
        program = parse_program("p(b). p(a). p(c).")
        result = evaluate(program)
        assert [str(a) for a in result.facts("p")] == ["p(a)", "p(b)", "p(c)"]

    def test_strata_recorded(self):
        program = parse_program("e(a, b). t(X, Y) :- e(X, Y). u(X) :- t(X, _), not e(X, X).")
        result = evaluate(program)
        assert result.strata is not None
        assert len(result.strata) >= 2
