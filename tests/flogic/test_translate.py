"""Unit tests for FL -> Datalog translation (Table 1)."""

import pytest

from repro.datalog.ast import AggregateLiteral, Atom, Comparison, Literal
from repro.datalog.terms import Const
from repro.errors import FLogicTranslationError
from repro.flogic import Molecule, molecule_atoms, parse_fl_program, translate_rules
from repro.flogic.ast import MethodSpec
from tests.conftest import parse_fl_rule


def translate(text):
    return translate_rules(parse_fl_program(text))


class TestMoleculeAtoms:
    def test_isa_maps_to_instance(self):
        mol = parse_fl_rule("p1 : c.").heads[0]
        assert molecule_atoms(mol, "head") == [
            Atom("instance", (Const("p1"), Const("c")))
        ]

    def test_subclass_maps(self):
        mol = parse_fl_rule("a :: b.").heads[0]
        assert molecule_atoms(mol, "head") == [
            Atom("subclass", (Const("a"), Const("b")))
        ]

    def test_head_frame_writes_method_inst(self):
        mol = parse_fl_rule("x[m -> v].").heads[0]
        assert molecule_atoms(mol, "head") == [
            Atom("method_inst", (Const("x"), Const("m"), Const("v")))
        ]

    def test_body_frame_reads_method_val(self):
        mol = parse_fl_rule("x[m -> v].").heads[0]
        assert molecule_atoms(mol, "body") == [
            Atom("method_val", (Const("x"), Const("m"), Const("v")))
        ]

    def test_signature_maps_to_method(self):
        mol = parse_fl_rule("c[m => t].").heads[0]
        assert molecule_atoms(mol, "head") == [
            Atom("method", (Const("c"), Const("m"), Const("t")))
        ]

    def test_default_maps_to_default_val(self):
        mol = parse_fl_rule("c[m *-> v].").heads[0]
        assert molecule_atoms(mol, "head") == [
            Atom("default_val", (Const("c"), Const("m"), Const("v")))
        ]

    def test_multivalued_expands(self):
        mol = parse_fl_rule("x[m ->> {a, b}].").heads[0]
        atoms = molecule_atoms(mol, "head")
        assert len(atoms) == 2

    def test_combined_molecule_expands_all(self):
        mol = parse_fl_rule("x : c[m -> v; n => t].").heads[0]
        atoms = molecule_atoms(mol, "head")
        preds = [a.pred for a in atoms]
        assert preds == ["instance", "method_inst", "method"]

    def test_bare_molecule_rejected(self):
        with pytest.raises(FLogicTranslationError):
            molecule_atoms(Molecule(Const("x")), "head")


class TestRuleTranslation:
    def test_fact(self):
        rules = translate("p1 : c.")
        assert len(rules) == 1
        assert rules[0].is_fact

    def test_conjunctive_head_splits(self):
        rules = translate("Y : d, r(X, Y) :- q(X, Y).")
        assert len(rules) == 2
        heads = {r.head.pred for r in rules}
        assert heads == {"instance", "r"}

    def test_multi_atom_head_molecule_splits(self):
        rules = translate("x : c[m -> v].")
        assert len(rules) == 2

    def test_body_molecule_positive_literals(self):
        rules = translate("p(X) :- X : c[m -> V].")
        body = rules[0].body
        assert all(isinstance(item, Literal) and item.positive for item in body)
        assert {item.atom.pred for item in body} == {"instance", "method_val"}

    def test_aggregate_translates(self):
        rules = translate("p(N) :- N = count{V; q(V)}.")
        agg = rules[0].body[0]
        assert isinstance(agg, AggregateLiteral)

    def test_aggregate_with_molecule_inner(self):
        rules = translate("p(N) :- N = count{VB [VA]; : r[a -> VA; b -> VB]}.")
        agg = rules[0].body[0]
        preds = {item.atom.pred for item in agg.body}
        assert preds == {"instance", "method_val"}

    def test_comparisons_pass_through(self):
        rules = translate("p(X) :- q(X), X > 3.")
        assert any(isinstance(i, Comparison) for i in rules[0].body)
