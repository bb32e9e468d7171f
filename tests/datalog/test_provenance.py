"""Tests for derivation trees (provenance)."""

import pytest

from repro.datalog import evaluate, explain, parse_atom, parse_program
from repro.errors import EvaluationError
from tests.conftest import fl_rules


def proof_leaves(derivation):
    """The facts and builtin checks a proof bottoms out in."""
    if not derivation.children:
        return [derivation]
    return [leaf for child in derivation.children for leaf in proof_leaves(child)]


def depth(derivation):
    return 1 + max((depth(child) for child in derivation.children), default=0)


class TestBasicExplanations:
    def test_fact_explains_itself(self):
        program = parse_program("p(a).")
        derivation = explain(program, parse_atom("p(a)"))
        assert derivation.rule.is_fact
        assert derivation.children == []

    def test_false_atom_has_no_explanation(self):
        program = parse_program("p(a).")
        assert explain(program, parse_atom("p(b)")) is None
        assert explain(program, parse_atom("q(a)")) is None

    def test_single_rule_step(self):
        program = parse_program("q(a). p(X) :- q(X).")
        derivation = explain(program, parse_atom("p(a)"))
        assert derivation.rule is not None
        assert len(derivation.children) == 1
        assert str(derivation.children[0].atom) == "q(a)"

    def test_recursive_chain(self):
        program = parse_program(
            """
            edge(a, b). edge(b, c). edge(c, d).
            tc(X, Y) :- edge(X, Y).
            tc(X, Y) :- edge(X, Z), tc(Z, Y).
            """
        )
        derivation = explain(program, parse_atom("tc(a, d)"))
        assert derivation is not None
        leaves = {str(leaf.atom) for leaf in proof_leaves(derivation)}
        assert leaves == {"edge(a, b)", "edge(b, c)", "edge(c, d)"}
        assert depth(derivation) == 4

    def test_cyclic_data_still_well_founded_proof(self):
        program = parse_program(
            """
            edge(a, b). edge(b, a).
            tc(X, Y) :- edge(X, Y).
            tc(X, Y) :- edge(X, Z), tc(Z, Y).
            """
        )
        derivation = explain(program, parse_atom("tc(a, a)"))
        assert derivation is not None
        # the proof must not contain tc(a,a) below itself
        def atoms_below(node):
            out = []
            for child in node.children:
                out.append(child.atom)
                out.extend(atoms_below(child))
            return out

        assert parse_atom("tc(a, a)") not in atoms_below(derivation)

    def test_negation_leaf(self):
        program = parse_program(
            """
            node(a). node(b). edge(a, b).
            touched(X) :- edge(X, _).
            isolated(X) :- node(X), not touched(X).
            """
        )
        derivation = explain(program, parse_atom("isolated(b)"))
        notes = {child.note for child in derivation.children}
        assert "absent (closed world)" in notes

    def test_builtin_leaf(self):
        program = parse_program("v(5). big(X) :- v(X), X > 3.")
        derivation = explain(program, parse_atom("big(5)"))
        assert any(child.note == "builtin" for child in derivation.children)

    def test_arithmetic_leaf(self):
        program = parse_program("v(2). d(X, Y) :- v(X), Y is X * 2.")
        derivation = explain(program, parse_atom("d(2, 4)"))
        assert any(child.note == "arithmetic" for child in derivation.children)

    def test_aggregate_leaf(self):
        program = parse_program("p(a). p(b). n(N) :- N = count{X; p(X)}.")
        derivation = explain(program, parse_atom("n(2)"))
        assert any(child.note == "aggregate" for child in derivation.children)

    def test_nonground_atom_rejected(self):
        program = parse_program("p(a).")
        with pytest.raises(EvaluationError):
            explain(program, parse_atom("p(X)"))

    def test_reuses_prior_result(self):
        program = parse_program("q(a). p(X) :- q(X).")
        result = evaluate(program)
        derivation = explain(program, parse_atom("p(a)"), result=result)
        assert derivation is not None

    def test_format_readable(self):
        program = parse_program("q(a). p(X) :- q(X).")
        text = explain(program, parse_atom("p(a)")).format()
        assert "[rule:" in text
        assert "[fact]" in text


class TestDerivedAtAnnotation:
    """explain() + EvaluationMetrics: stratum/round tags on proof nodes."""

    PROGRAM = """
        edge(a, b). edge(b, c). edge(c, d).
        tc(X, Y) :- edge(X, Y).
        tc(X, Y) :- edge(X, Z), tc(Z, Y).
        unreached(X) :- edge(X, _), not tc(a, X).
    """

    def _traced_result(self):
        from repro import obs

        program = parse_program(self.PROGRAM)
        with obs.capture("provenance"):
            result = evaluate(program)
        return program, result

    def test_untraced_result_leaves_nodes_unannotated(self):
        program = parse_program(self.PROGRAM)
        result = evaluate(program)
        assert result.metrics is None
        derivation = explain(program, parse_atom("tc(a, d)"), result=result)
        assert derivation.derived_at is None
        assert "stratum" not in derivation.format()

    def test_metrics_annotate_every_proof_node(self):
        program, result = self._traced_result()
        derivation = explain(program, parse_atom("tc(a, d)"), result=result)
        assert derivation.derived_at is not None
        stratum, round_index = derivation.derived_at
        assert stratum == 0
        # tc(a,d) needs three chained edges: derived after round 0
        assert round_index >= 1
        # base facts carry round 0
        for leaf in proof_leaves(derivation):
            assert leaf.derived_at == (0, 0)

    def test_later_stratum_is_tagged(self):
        program, result = self._traced_result()
        derivation = explain(program, parse_atom("unreached(a)"), result=result)
        stratum, _round = derivation.derived_at
        assert stratum == 1

    def test_format_includes_stratum_and_round(self):
        program, result = self._traced_result()
        text = explain(program, parse_atom("tc(a, d)"), result=result).format()
        assert "(stratum 0, round" in text

    def test_explicit_metrics_argument(self):
        program, result = self._traced_result()
        derivation = explain(
            program, parse_atom("tc(a, b)"), metrics=result.metrics
        )
        assert derivation.derived_at is not None


class TestFLogicExplanations:
    def test_isa_explained_through_axioms(self):
        from repro.flogic import FLogicEngine

        engine = FLogicEngine()
        engine.tell_rules(fl_rules("a :: b. b :: c. x : a."))
        derivation = engine.explain("x : c")
        assert derivation is not None
        leaves = {str(leaf.atom) for leaf in proof_leaves(derivation)}
        assert "instance(x, a)" in leaves

    def test_false_fl_fact(self):
        from repro.flogic import FLogicEngine

        engine = FLogicEngine()
        engine.tell_rules(fl_rules("x : a."))
        assert engine.explain("x : b") is None

    def test_nonground_rejected(self):
        from repro.flogic import FLogicEngine

        engine = FLogicEngine()
        engine.tell_rules(fl_rules("x : a."))
        with pytest.raises(ValueError):
            engine.explain("X : a")

    def test_conjunction_rejected(self):
        from repro.flogic import FLogicEngine

        engine = FLogicEngine()
        engine.tell_rules(fl_rules("x : a."))
        with pytest.raises(ValueError):
            engine.explain("x : a, x : b")

    def test_mediated_fact_traces_to_source_anchor(self):
        from repro.neuro import build_scenario

        mediator = build_scenario().mediator
        obj = sorted(
            row["X"]
            for row in mediator.ask("X : 'Compartment'")
            if str(row["X"]).startswith("NCMIR")
        )[0]
        derivation = mediator.explain("'%s' : 'Compartment'" % obj)
        assert derivation is not None
        leaf_atoms = {str(leaf.atom) for leaf in proof_leaves(derivation)}
        # bottoms out in the anchor fact and DM subclass facts
        assert any("subclass" in atom for atom in leaf_atoms)
        assert any(obj in atom for atom in leaf_atoms)


class TestCanonicalProof:
    """The proof picked is the first found when a rule's solutions are
    tried in term_sort_key order of their ground body atoms — never in
    set order."""

    PROGRAM = """
        link(a, m1). link(m1, z).
        link(a, m2). link(m2, z).
        link(a, m0). link(m0, m3). link(m3, z).
        reach(X, Y) :- link(X, Y).
        reach(X, Y) :- link(X, Z), reach(Z, Y).
    """

    def test_first_proof_in_key_order(self):
        derivation = explain(parse_program(self.PROGRAM), parse_atom("reach(a, z)"))
        # m0 sorts before m1 and m2, and its (deeper) proof is kept
        assert str(derivation.children[0].atom) == "link(a, m0)"
        assert depth(derivation) == 4

    def test_first_rule_in_program_order(self):
        for first, second in (("a", "b"), ("b", "a")):
            program = parse_program(
                "a(1). b(1). q(X) :- %s(X). q(X) :- %s(X)." % (first, second)
            )
            derivation = explain(program, parse_atom("q(1)"))
            assert str(derivation.children[0].atom) == "%s(1)" % first

    def test_same_tree_under_every_hash_seed(self):
        import os
        import subprocess
        import sys

        script = (
            "from repro.datalog import explain, parse_atom, parse_program\n"
            "print(explain(parse_program(%r), parse_atom('reach(a, z)')))\n"
            % self.PROGRAM
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        outputs = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                    timeout=60,
                ).stdout
            )
        assert len(outputs) == 1
