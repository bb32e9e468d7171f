"""Unit tests for the Datalog parser."""

import pytest

from repro.datalog import (
    AggregateLiteral,
    Assignment,
    Atom,
    Comparison,
    Const,
    Literal,
    Struct,
    Var,
    parse_atom,
    parse_program,
)
from repro.errors import FLogicParseError, ParseError
from tests.conftest import parse_rule, parse_term


class TestTerms:
    def test_symbol_becomes_const(self):
        assert parse_term("abc") == Const("abc")

    def test_uppercase_becomes_var(self):
        assert parse_term("X") == Var("X")
        assert parse_term("Foo") == Var("Foo")

    def test_underscore_prefixed_is_var(self):
        assert parse_term("_x") == Var("_x")

    def test_bare_underscore_is_fresh_anonymous(self):
        term = parse_term("_")
        assert isinstance(term, Var)
        assert term.is_anonymous

    def test_integer(self):
        assert parse_term("42") == Const(42)

    def test_negative_integer(self):
        assert parse_term("-7") == Const(-7)

    def test_float(self):
        assert parse_term("3.25") == Const(3.25)

    def test_double_quoted_string(self):
        assert parse_term('"Purkinje Cell"') == Const("Purkinje Cell")

    def test_single_quoted_string(self):
        assert parse_term("'Pyramidal Cell dendrite'") == Const("Pyramidal Cell dendrite")

    def test_escaped_quote(self):
        assert parse_term(r"'it\'s'") == Const("it's")

    def test_struct_term(self):
        assert parse_term("f(a, X)") == Struct("f", (Const("a"), Var("X")))

    def test_nested_struct(self):
        assert parse_term("f(g(X), 1)") == Struct(
            "f", (Struct("g", (Var("X"),)), Const(1))
        )

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_term("a b")


class TestAtomsAndRules:
    def test_fact(self):
        rule = parse_rule("edge(a, b).")
        assert rule.is_fact
        assert rule.head == Atom("edge", (Const("a"), Const("b")))

    def test_zero_arity_atom(self):
        rule = parse_rule("ok.")
        assert rule.head == Atom("ok")

    def test_quoted_predicate_name(self):
        atom = parse_atom("'NCMIR'(X)")
        assert atom.pred == "NCMIR"

    def test_rule_with_body(self):
        rule = parse_rule("tc(X, Y) :- edge(X, Z), tc(Z, Y).")
        assert rule.head.pred == "tc"
        assert len(rule.body) == 2
        assert all(isinstance(item, Literal) for item in rule.body)

    def test_negated_literal(self):
        rule = parse_rule("p(X) :- q(X), not r(X).")
        assert rule.body[1] == Literal(Atom("r", (Var("X"),)), positive=False)

    def test_comparison(self):
        rule = parse_rule("p(X) :- q(X), X != 3.")
        assert rule.body[1] == Comparison("!=", Var("X"), Const(3))

    def test_all_comparison_operators(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            rule = parse_rule("p(X) :- q(X), X %s 3." % op)
            assert isinstance(rule.body[1], Comparison)
            assert rule.body[1].op == op

    def test_assignment(self):
        rule = parse_rule("p(X, Y) :- q(X), Y is X + 1.")
        item = rule.body[1]
        assert isinstance(item, Assignment)
        assert item.target == Var("Y")
        assert item.expr == Struct("+", (Var("X"), Const(1)))

    def test_arithmetic_precedence(self):
        rule = parse_rule("p(Y) :- q(X), Y is X + 2 * 3.")
        expr = rule.body[1].expr
        assert expr == Struct("+", (Var("X"), Struct("*", (Const(2), Const(3)))))

    def test_arithmetic_parentheses(self):
        rule = parse_rule("p(Y) :- q(X), Y is (X + 2) * 3.")
        expr = rule.body[1].expr
        assert expr == Struct("*", (Struct("+", (Var("X"), Const(2))), Const(3)))

    def test_unary_minus_in_expression(self):
        rule = parse_rule("p(Y) :- q(X), Y is -X + 1.")
        expr = rule.body[1].expr
        assert expr == Struct("+", (Struct("-", (Var("X"),)), Const(1)))

    def test_mod_operator(self):
        rule = parse_rule("p(Y) :- q(X), Y is X mod 2.")
        assert rule.body[1].expr == Struct("mod", (Var("X"), Const(2)))

    def test_missing_period_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("p(X) :- q(X)")

    def test_parse_error_reports_line_and_column(self):
        try:
            parse_program("p(a).\nq(b) :- .")
        except ParseError as exc:
            assert exc.line == 2
            assert exc.column is not None
        else:
            pytest.fail("expected ParseError")


class TestAggregates:
    def test_count_with_grouping(self):
        rule = parse_rule("w(VB, N) :- rel(VB), N = count{VA [VB]; r(VA, VB)}.")
        agg = rule.body[1]
        assert isinstance(agg, AggregateLiteral)
        assert agg.func == "count"
        assert agg.result == Var("N")
        assert agg.value == Var("VA")
        assert agg.group_by == (Var("VB"),)

    def test_count_without_grouping(self):
        rule = parse_rule("total(N) :- N = count{X; p(X)}.")
        agg = rule.body[0]
        assert agg.group_by == ()

    def test_sum_aggregate(self):
        rule = parse_rule("t(G, S) :- g(G), S = sum{V [G]; amount(G, V)}.")
        assert rule.body[1].func == "sum"

    def test_aggregate_body_with_comparison(self):
        rule = parse_rule("big(N) :- N = count{X; p(X), X > 3}.")
        agg = rule.body[0]
        assert len(agg.body) == 2

    def test_equals_non_aggregate_still_comparison(self):
        rule = parse_rule("p(X) :- q(X, Y), X = Y.")
        assert isinstance(rule.body[1], Comparison)

    def test_unknown_aggregate_function_is_plain_comparison(self):
        # 'median' is not an aggregate keyword, so `N = median` parses as
        # a comparison with the constant `median` and then `{` fails.
        with pytest.raises(ParseError):
            parse_rule("p(N) :- N = median{X; q(X)}.")


class TestPrograms:
    def test_empty_program(self):
        assert len(parse_program("")) == 0

    def test_comments_ignored(self):
        program = parse_program(
            """
            % transitive closure
            edge(a, b).  % a fact
            tc(X, Y) :- edge(X, Y).
            """
        )
        assert len(program) == 2

    def test_duplicate_clauses_deduped(self):
        program = parse_program("p(a). p(a). p(b).")
        assert len(program) == 2

    def test_predicates_classification(self):
        program = parse_program(
            """
            edge(a, b).
            tc(X, Y) :- edge(X, Y).
            """
        )
        assert program.idb_predicates() == {("tc", 2)}

    def test_roundtrip_through_str(self):
        text = """
        edge(a, b).
        tc(X, Y) :- edge(X, Y), not bad(X), X != b.
        """
        program = parse_program(text)
        reparsed = parse_program(str(program))
        assert set(program) == set(reparsed)

    def test_illegal_character(self):
        with pytest.raises(ParseError):
            parse_program("p(a) ?")

    @pytest.mark.parametrize(
        "text, token",
        [
            ("p(X) :- X : c.", ":"),
            ("p(X) :- X :: c.", "::"),
            ("p(X) :- q(X -> 1).", "->"),
            ("p(X) :- q(X), X[m =>> c].", "=>>"),
            ("c[m *-> 1].", "*->"),
        ],
    )
    def test_flogic_punctuation_rejected_at_its_token(self, text, token):
        with pytest.raises(ParseError) as info:
            parse_program(text)
        assert not isinstance(info.value, FLogicParseError)
        assert (info.value.line, info.value.column) == (1, text.rindex(token) + 1)
