"""Tests for the recursive aggregate builtin (Example 4)."""

import pytest

from repro.datalog import FactStore, Atom, Const
from repro.errors import MediatorError
from repro.domainmap import DomainMap
from repro.core import aggregate_over_dm, direct_values_at


def store_with(facts):
    store = FactStore()
    for pred, *args in facts:
        store.add(Atom(pred, tuple(Const(a) for a in args)))
    return store


@pytest.fixture
def region_dm():
    dm = DomainMap("regions")
    dm.add_axioms(
        """
        Brain < exists has.Cerebellum
        Brain < exists has.Hippocampus
        Cerebellum < exists has.Purkinje_Cell
        Purkinje_Cell < exists has.Purkinje_Dendrite
        Purkinje_Cell < exists has.Purkinje_Soma
        Hippocampus < exists has.Pyramidal_Cell
        """
    )
    return dm


@pytest.fixture
def amounts(region_dm):
    return store_with(
        [
            ("anchor", "o1", "Purkinje_Dendrite"),
            ("method_val", "o1", "amount", 3.0),
            ("method_val", "o1", "protein", "RyR"),
            ("anchor", "o2", "Purkinje_Soma"),
            ("method_val", "o2", "amount", 2.0),
            ("method_val", "o2", "protein", "RyR"),
            ("anchor", "o3", "Purkinje_Dendrite"),
            ("method_val", "o3", "amount", 10.0),
            ("method_val", "o3", "protein", "CB"),
            ("anchor", "o4", "Pyramidal_Cell"),
            ("method_val", "o4", "amount", 7.0),
            ("method_val", "o4", "protein", "RyR"),
        ]
    )


class TestDirectValues:
    def test_reads_anchor_not_instance(self, amounts):
        # instance facts alone do not contribute
        amounts.add(Atom("instance", (Const("oX"), Const("Purkinje_Soma"))))
        amounts.add(Atom("method_val", (Const("oX"), Const("amount"), Const(99.0))))
        values = direct_values_at(amounts, "Purkinje_Soma", "amount")
        assert values == [2.0]

    def test_filters(self, amounts):
        assert direct_values_at(
            amounts, "Purkinje_Dendrite", "amount", {"protein": "RyR"}
        ) == [3.0]
        assert direct_values_at(
            amounts, "Purkinje_Dendrite", "amount", {"protein": "CB"}
        ) == [10.0]

    def test_empty_concept(self, amounts):
        assert direct_values_at(amounts, "Cerebellum", "amount") == []

    def test_conjunctive_filters(self, amounts):
        assert (
            direct_values_at(
                amounts,
                "Purkinje_Dendrite",
                "amount",
                {"protein": "RyR", "amount": 999},
            )
            == []
        )


class TestAggregateOverDM:
    def test_sum_rollup(self, region_dm, amounts):
        dist = aggregate_over_dm(region_dm, amounts, "Cerebellum", "amount")
        assert dist.row("Purkinje_Dendrite").cumulative == 13.0
        assert dist.row("Purkinje_Cell").cumulative == 15.0
        assert dist.total() == 15.0

    def test_sibling_region_isolated(self, region_dm, amounts):
        dist = aggregate_over_dm(region_dm, amounts, "Cerebellum", "amount")
        assert dist.row("Pyramidal_Cell") is None  # not below Cerebellum
        brain = aggregate_over_dm(region_dm, amounts, "Brain", "amount")
        assert brain.total() == 22.0

    def test_group_filter(self, region_dm, amounts):
        dist = aggregate_over_dm(
            region_dm,
            amounts,
            "Cerebellum",
            "amount",
            group_attr="protein",
            group_value="RyR",
        )
        assert dist.total() == 5.0

    def test_extra_filters(self, region_dm, amounts):
        amounts.add(Atom("method_val", (Const("o1"), Const("organism"), Const("rat"))))
        dist = aggregate_over_dm(
            region_dm,
            amounts,
            "Cerebellum",
            "amount",
            filters={"organism": "rat"},
        )
        assert dist.total() == 3.0

    def test_count_and_avg(self, region_dm, amounts):
        count = aggregate_over_dm(
            region_dm, amounts, "Cerebellum", "amount", func="count"
        )
        assert count.total() == 3
        avg = aggregate_over_dm(
            region_dm, amounts, "Cerebellum", "amount", func="avg"
        )
        assert avg.total() == 5.0

    def test_min_max(self, region_dm, amounts):
        assert (
            aggregate_over_dm(
                region_dm, amounts, "Cerebellum", "amount", func="min"
            ).total()
            == 2.0
        )
        assert (
            aggregate_over_dm(
                region_dm, amounts, "Cerebellum", "amount", func="max"
            ).total()
            == 10.0
        )

    def test_unknown_func_rejected(self, region_dm, amounts):
        with pytest.raises(MediatorError):
            aggregate_over_dm(
                region_dm, amounts, "Cerebellum", "amount", func="median"
            )

    def test_empty_regions_report_none(self, region_dm, amounts):
        dist = aggregate_over_dm(region_dm, amounts, "Hippocampus", "amount")
        # Hippocampus itself has no direct values; Pyramidal_Cell does.
        assert dist.row("Hippocampus").direct is None
        assert dist.row("Hippocampus").cumulative == 7.0

    def test_depths_increase_down_tree(self, region_dm, amounts):
        dist = aggregate_over_dm(region_dm, amounts, "Brain", "amount")
        assert dist.row("Brain").depth == 0
        assert dist.row("Cerebellum").depth == 1
        assert dist.row("Purkinje_Dendrite").depth == 3

    def test_diamond_counts_once(self):
        dm = DomainMap("diamond")
        dm.add_axioms(
            """
            Top < exists has.Left
            Top < exists has.Right
            Left < exists has.Shared
            Right < exists has.Shared
            """
        )
        store = store_with(
            [
                ("anchor", "o1", "Shared"),
                ("method_val", "o1", "amount", 5.0),
            ]
        )
        dist = aggregate_over_dm(dm, store, "Top", "amount")
        assert dist.total() == 5.0  # not 10

    def test_as_table_and_str(self, region_dm, amounts):
        dist = aggregate_over_dm(region_dm, amounts, "Cerebellum", "amount")
        table = dist.as_table()
        assert table[0][0] == "Cerebellum"
        assert "Purkinje_Dendrite" in str(dist)
