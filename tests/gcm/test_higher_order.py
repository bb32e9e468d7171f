"""Tests for the higher-order relation bridge (Example 2's R variable)."""

import pytest

from repro.flogic import FLogicEngine
from repro.gcm import (
    ConceptualModel,
    check,
    higher_order_bridge,
    partial_order_constraint,
    partial_order_constraint_ho,
)


def build_cm():
    cm = ConceptualModel("ho")
    cm.add_class("node")
    for obj in ("x", "y", "z"):
        cm.add_instance(obj, "node")
    # r is a partial order; s violates antisymmetry
    cm.add_datalog(
        """
        r(x, x). r(y, y). r(z, z). r(x, y). r(y, z). r(x, z).
        s(x, x). s(y, y). s(z, z). s(x, y). s(y, x).
        """
    )
    return cm


class TestHigherOrderBridge:
    def test_rel2_facts_materialized(self):
        cm = build_cm()
        cm.add_datalog(higher_order_bridge(["r", "s"]))
        engine = FLogicEngine().tell_rules(cm.all_rules())
        assert engine.holds("rel2(r, x, y)")
        assert engine.holds("rel2(s, y, x)")
        assert not engine.holds("rel2(r, y, x)")

    def test_rule_with_relation_variable(self):
        cm = build_cm()
        cm.add_datalog(higher_order_bridge(["r", "s"]))
        cm.add_datalog("symmetric_pair(R, X, Y) :- rel2(R, X, Y), rel2(R, Y, X), X != Y.")
        engine = FLogicEngine().tell_rules(cm.all_rules())
        rows = engine.ask("symmetric_pair(R, X, Y)")
        assert {row["R"] for row in rows} == {"s"}


class TestHigherOrderPartialOrder:
    def test_checks_all_relations_at_once(self):
        report = check(
            build_cm(), [partial_order_constraint_ho(["r", "s"], "node")]
        )
        kinds = report.by_kind()
        assert "was" in kinds
        # every witness names the violating relation s, never r
        assert {w.context[1] for w in kinds["was"]} == {"s"}

    def test_agrees_with_first_order_version(self):
        ho_report = check(
            build_cm(), [partial_order_constraint_ho(["s"], "node")]
        )
        fo_report = check(build_cm(), [partial_order_constraint("s", "node")])
        assert {str(w) for w in ho_report} == {str(w) for w in fo_report}

    def test_clean_relation_passes(self):
        report = check(
            build_cm(), [partial_order_constraint_ho(["r"], "node")]
        )
        assert report.ok

    def test_reflexivity_witness_names_relation(self):
        cm = ConceptualModel("t")
        cm.add_class("node")
        cm.add_instance("a", "node")
        cm.add_datalog("q(a, a2).")
        report = check(cm, [partial_order_constraint_ho(["q"], "node")])
        assert any(
            w.kind == "wrc" and w.context[1] == "q" for w in report
        )
