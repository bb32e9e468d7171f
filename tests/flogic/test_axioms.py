"""Direct tests for the Table 1 axiom groups."""

import pytest

from repro.flogic import (
    FLogicEngine,
    core_axioms,
    signature_inheritance_axioms,
    value_inheritance_axioms,
)
from tests.conftest import fl_rules


class TestAxiomGroups:
    def test_core_axioms_parse_and_count(self):
        rules = core_axioms()
        heads = {rule.head.pred for rule in rules}
        assert {"subclass", "instance", "class", "method_val"} <= heads

    def test_signature_inheritance_is_one_rule(self):
        rules = signature_inheritance_axioms()
        assert len(rules) == 1
        assert rules[0].head.pred == "method"

    def test_value_inheritance_rules(self):
        heads = {rule.head.pred for rule in value_inheritance_axioms()}
        assert heads == {"method_val", "inherits", "shadowed"}


class TestAxiomSemantics:
    def test_subclass_reflexive_only_on_classes(self):
        engine = FLogicEngine()
        engine.tell_rules(fl_rules("a :: b."))
        # a and b are classes, so both are reflexive subclasses
        assert engine.holds("a :: a")
        assert engine.holds("b :: b")
        # arbitrary unknown names are not
        assert not engine.holds("zzz :: zzz")

    def test_metaclass_membership(self):
        engine = FLogicEngine()
        engine.tell_rules(fl_rules("x : c."))
        assert engine.holds("c : class")
        assert not engine.holds("x : class")

    def test_value_inheritance_only_loaded_when_needed(self):
        # without defaults the program must stay stratified
        engine = FLogicEngine()
        engine.tell_rules(fl_rules("x : c. x[m -> 1]."))
        assert not engine.evaluate().used_well_founded

    def test_signature_inheritance_toggle(self):
        # signature inheritance is always on: a subclass inherits its
        # superclass's method signatures
        engine = FLogicEngine()
        engine.tell_rules(fl_rules("sub :: sup. sup[m => t]."))
        assert engine.ask("sub[m => T]") == [{"T": "t"}]

    def test_multiple_incomparable_defaults_both_inherited(self):
        # the classic multiple-inheritance ambiguity: with two
        # incomparable defining classes, both defaults are visible
        # (documented choice; F-logic systems vary here)
        engine = FLogicEngine()
        engine.tell_rules(fl_rules(
            """
            a[m *-> 1].
            b[m *-> 2].
            x : a.
            x : b.
            """
        ))
        rows = engine.ask("x[m -> V]")
        assert {row["V"] for row in rows} == {1, 2}
