"""Unit tests for stratification and safety analysis."""

import pytest

from repro.datalog import (
    is_aggregate_stratified,
    is_stratifiable,
    parse_program,
    parse_rule,
    stratify,
)
from repro.datalog.safety import check_rule_safety, safety_violations
from repro.datalog.stratify import build_dependency_graph
from repro.errors import SafetyError, StratificationError


class TestDependencyGraph:
    def test_positive_edges(self):
        program = parse_program("p(X) :- q(X), r(X).")
        info = build_dependency_graph(program)
        assert info.graph[("p", 1)] == {("q", 1): None, ("r", 1): None}
        assert info.graph[("q", 1)] == info.graph[("r", 1)] == {}
        assert not info.negative_edges

    def test_negative_edge_recorded(self):
        program = parse_program("p(X) :- q(X), not r(X).")
        info = build_dependency_graph(program)
        assert (("p", 1), ("r", 1)) in info.negative_edges

    def test_aggregate_edge_recorded(self):
        program = parse_program("p(N) :- N = count{X; q(X)}.")
        info = build_dependency_graph(program)
        assert (("p", 1), ("q", 1)) in info.aggregate_edges

    def test_arity_distinguishes_predicates(self):
        program = parse_program("p(X) :- p(X, X).")
        info = build_dependency_graph(program)
        assert ("p", 2) in info.graph[("p", 1)]


class TestStratify:
    def test_single_stratum_for_positive_program(self):
        program = parse_program(
            "e(a, b). t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y)."
        )
        strata = stratify(program)
        assert len(strata) == 1

    def test_negation_splits_strata(self):
        program = parse_program(
            """
            b(a).
            p(X) :- b(X), not q(X).
            q(X) :- b(X), not r(X).
            r(a).
            """
        )
        strata = stratify(program)
        index = {sig: i for i, stratum in enumerate(strata) for sig in stratum}
        assert index[("r", 1)] < index[("q", 1)] < index[("p", 1)]

    def test_negative_cycle_rejected(self):
        program = parse_program("p(X) :- b(X), not q(X). q(X) :- b(X), not p(X). b(a).")
        with pytest.raises(StratificationError):
            stratify(program)
        assert not is_stratifiable(program)

    def test_self_negation_rejected(self):
        program = parse_program("b(a). p(X) :- b(X), not p(X).")
        with pytest.raises(StratificationError):
            stratify(program)

    def test_aggregate_cycle_rejected(self):
        program = parse_program(
            "base(a, 1). p(X, N) :- base(X, _), N = count{Y; p(Y, _)}."
        )
        with pytest.raises(StratificationError):
            stratify(program)
        assert not is_aggregate_stratified(program)

    def test_aggregate_over_lower_stratum_ok(self):
        program = parse_program(
            "q(a). q(b). p(N) :- N = count{X; q(X)}."
        )
        strata = stratify(program)
        index = {sig: i for i, stratum in enumerate(strata) for sig in stratum}
        assert index[("q", 1)] < index[("p", 1)]

    def test_wf_fallback_allowed_for_negation_only(self):
        program = parse_program(
            "move(a, b). win(X) :- move(X, Y), not win(Y)."
        )
        assert not is_stratifiable(program)
        assert is_aggregate_stratified(program)


class TestSafety:
    def safe(self, text):
        check_rule_safety(parse_rule(text))

    def unsafe(self, text):
        with pytest.raises(SafetyError):
            check_rule_safety(parse_rule(text))

    def test_plain_positive_rule_safe(self):
        self.safe("p(X) :- q(X).")

    def test_fact_safe(self):
        self.safe("p(a).")

    def test_head_var_not_in_body(self):
        self.unsafe("p(X, Y) :- q(X).")

    def test_nonground_fact_unsafe(self):
        self.unsafe("p(X).")

    def test_ground_fact_has_no_violation(self):
        assert list(safety_violations(parse_rule("p(a, f(b), 3)."))) == []

    @pytest.mark.parametrize(
        "text, variables", [("p(X).", "X"), ("p(a, f(Y), X).", "X, Y")]
    )
    def test_nonground_fact_keeps_its_head_error(self, text, variables):
        (violation,) = safety_violations(parse_rule(text))
        assert violation.code == "MBM001"
        assert str(violation) == (
            "unsafe rule %s: head variables %s are not range-restricted"
            % (text, variables)
        )

    def test_negated_only_var(self):
        self.unsafe("p(X) :- q(X), not r(Z).")

    def test_anonymous_var_under_negation_allowed(self):
        self.safe("p(X) :- q(X), not r(X, _).")

    def test_comparison_var_unbound(self):
        self.unsafe("p(X) :- q(X), Z < 3.")

    def test_equality_to_constant_limits(self):
        self.safe("p(X) :- q(_), X = 3.")

    def test_equality_chain_limits(self):
        self.safe("p(Z) :- q(X), Y = X, Z = Y.")

    def test_struct_equality_limits_components(self):
        self.safe("p(A, B) :- q(X), f(A, B) = X.")

    def test_assignment_limits_target(self):
        self.safe("p(Y) :- q(X), Y is X + 1.")

    def test_assignment_with_unbound_expr(self):
        self.unsafe("p(Y) :- q(X), Y is Z + 1.")

    def test_aggregate_result_limits_head(self):
        self.safe("p(N) :- N = count{X; q(X)}.")

    def test_aggregate_group_var_limited(self):
        self.safe("p(G, N) :- N = count{X [G]; q(G, X)}.")

    def test_aggregate_value_unbound_in_body(self):
        self.unsafe("p(N) :- N = count{Z; q(X)}.")

    def test_aggregate_group_unbound_in_body(self):
        self.unsafe("p(G, N) :- N = count{X [G]; q(X)}.")

    def test_negation_inside_aggregate_rejected(self):
        self.unsafe("p(N) :- N = count{X; q(X), not r(X)}.")
