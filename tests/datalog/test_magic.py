"""Tests for the magic-set transformation and the naive-strategy ablation."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Const,
    Program,
    evaluate,
    fact,
    magic_query,
    magic_transform,
    parse_atom,
    parse_program,
)
from repro.errors import EvaluationError
from tests.conftest import query

TC_RULES = "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y)."


def chain(n):
    program = Program()
    for i in range(n):
        program.add(fact("edge", Const("a%d" % i), Const("a%d" % (i + 1))))
    program.extend(parse_program(TC_RULES))
    return program


class TestMagicTransform:
    def test_goal_with_bound_first_arg(self):
        program = chain(5)
        rewritten, goal = magic_transform(program, parse_atom("tc(a0, X)"))
        assert goal.pred == "tc__bf"
        preds = {rule.head.pred for rule in rewritten.proper_rules()}
        assert "tc__bf" in preds
        assert "_magic_tc__bf" in preds

    def test_seed_fact_emitted(self):
        rewritten, _goal = magic_transform(chain(3), parse_atom("tc(a0, X)"))
        facts = {str(rule) for rule in rewritten if rule.is_fact}
        assert "'_magic_tc__bf'(a0)." in facts or "_magic_tc__bf(a0)." in facts

    def test_free_goal_passthrough(self):
        program = chain(3)
        rewritten, goal = magic_transform(program, parse_atom("tc(X, Y)"))
        assert rewritten is program
        assert goal.pred == "tc"

    def test_edb_goal_passthrough(self):
        program = chain(3)
        rewritten, goal = magic_transform(program, parse_atom("edge(a0, X)"))
        assert goal.pred == "edge"

    def test_relevance_pruning(self):
        # only the suffix of the chain is derived
        program = chain(50)
        rewritten, goal = magic_transform(program, parse_atom("tc(a45, X)"))
        result = evaluate(rewritten)
        derived = result.store.rows(("tc__bf", 2))
        # only pairs within the relevant 5-node suffix (15 = C(6,2)),
        # vs. 1275 pairs for the full closure
        assert 0 < len(derived) <= 15


class TestMagicAnswers:
    def test_bf_goal(self):
        assert magic_query(chain(20), parse_atom("tc(a5, X)")) == query(
            chain(20), parse_atom("tc(a5, X)")
        )

    def test_fb_goal(self):
        assert magic_query(chain(20), parse_atom("tc(X, a5)")) == query(
            chain(20), parse_atom("tc(X, a5)")
        )

    def test_bb_goal(self):
        assert magic_query(chain(20), parse_atom("tc(a3, a9)")) == [{}]
        assert magic_query(chain(20), parse_atom("tc(a9, a3)")) == []

    def test_left_recursive_variant(self):
        program = Program()
        for i in range(15):
            program.add(fact("edge", Const(i), Const(i + 1)))
        program.extend(
            parse_program(
                "tc(X, Y) :- edge(X, Y). tc(X, Y) :- tc(X, Z), edge(Z, Y)."
            )
        )
        goal = parse_atom("tc(3, X)")
        assert magic_query(program, goal) == query(program, goal)

    def test_nonlinear_variant(self):
        program = Program()
        for i in range(12):
            program.add(fact("edge", Const(i), Const(i + 1)))
        program.extend(
            parse_program(
                "tc(X, Y) :- edge(X, Y). tc(X, Y) :- tc(X, Z), tc(Z, Y)."
            )
        )
        goal = parse_atom("tc(2, X)")
        assert magic_query(program, goal) == query(program, goal)

    def test_same_generation(self):
        program = Program()
        edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "e"), ("d", "f")]
        for parent, child in edges:
            program.add(fact("par", Const(parent), Const(child)))
        program.extend(
            parse_program(
                """
                sg(X, X) :- par(_, X).
                sg(X, X) :- par(X, _).
                sg(X, Y) :- par(XP, X), sg(XP, YP), par(YP, Y).
                """
            )
        )
        goal = parse_atom("sg(b, Y)")
        assert magic_query(program, goal) == query(program, goal)

    def test_through_comparisons(self):
        program = parse_program(
            """
            v(1). v(2). v(3). v(4).
            big(X) :- v(X), X > 2.
            double(X, Y) :- big(X), Y is X * 2.
            """
        )
        goal = parse_atom("double(3, Y)")
        assert magic_query(program, goal) == query(program, goal)

    def test_with_negation_unrestricted(self):
        program = parse_program(
            """
            node(a). node(b). node(c). edge(a, b).
            touched(X) :- edge(X, _).
            touched(Y) :- edge(_, Y).
            isolated(X) :- node(X), not touched(X).
            """
        )
        goal = parse_atom("isolated(c)")
        assert magic_query(program, goal) == query(program, goal) == [{}]

    def test_with_aggregate_unrestricted(self):
        program = parse_program(
            """
            r(n1, a1). r(n1, a2). r(n2, a3).
            cnt(B, N) :- r(B, _), N = count{A [B]; r(B, A)}.
            wrap(B, N) :- cnt(B, N).
            """
        )
        goal = parse_atom("wrap(n1, N)")
        assert magic_query(program, goal) == query(program, goal)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=0,
            max_size=18,
        ),
        st.integers(0, 6),
    )
    def test_equivalence_property(self, edges, start):
        program = Program()
        for a, b in edges:
            program.add(fact("edge", Const(a), Const(b)))
        program.extend(parse_program(TC_RULES))
        goal = parse_atom("tc(%d, X)" % start)
        assert magic_query(program, goal) == query(program, goal)


class TestNaiveStrategy:
    def test_same_model_as_seminaive(self):
        program = chain(30)
        semi = evaluate(program)
        naive = evaluate(program, strategy="naive")
        assert semi.store.same_facts(naive.store)

    def test_naive_with_negation_strata(self):
        program = parse_program(
            """
            node(a). node(b). edge(a, b).
            touched(X) :- edge(X, _).
            isolated(X) :- node(X), not touched(X).
            """
        )
        semi = evaluate(program)
        naive = evaluate(program, strategy="naive")
        assert semi.store.same_facts(naive.store)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate(chain(2), strategy="bogus")
