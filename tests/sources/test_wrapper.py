"""Tests for wrappers, capabilities and lifting."""

import pytest

from repro.errors import CapabilityError, SchemaError, SourceError
from repro.flogic import FLogicEngine
from repro.sources import (
    AnchorSpec,
    BindingPattern,
    ClassCapability,
    Column,
    QueryTemplate,
    RelStore,
    RoleLink,
    SourceQuery,
    Wrapper,
)

LOCATION_MAP = {
    "Purkinje Cell dendrite": "Purkinje_Dendrite",
    "Purkinje Cell": "Purkinje_Cell",
}


@pytest.fixture
def ncmir():
    store = RelStore("NCMIR")
    table = store.create_table(
        "protein_amount",
        [
            Column("id", "int"),
            Column("protein", "str"),
            Column("location", "str"),
            Column("amount", "float"),
        ],
        key="id",
    )
    table.insert_many(
        [
            {"id": 1, "protein": "Ryanodine Receptor", "location": "Purkinje Cell dendrite", "amount": 3.2},
            {"id": 2, "protein": "Calbindin", "location": "Purkinje Cell", "amount": 1.1},
            {"id": 3, "protein": "Calbindin", "location": "Purkinje Cell dendrite", "amount": 2.5},
        ]
    )
    wrapper = Wrapper("NCMIR", store)
    wrapper.export_class(
        "protein_amount",
        "protein_amount",
        "id",
        methods={"protein_name": "protein", "location": "location", "amount": "amount"},
        anchor=AnchorSpec(column="location", mapping=LOCATION_MAP),
        role_links=[RoleLink("located_in", column="location", mapping=LOCATION_MAP)],
        selectable={"location", "protein_name"},
    )
    return wrapper


class TestCapabilities:
    def test_binding_pattern_validation(self):
        with pytest.raises(CapabilityError):
            BindingPattern(["a", "b"], "b")
        with pytest.raises(CapabilityError):
            BindingPattern(["a"], "x")

    def test_binding_pattern_accepts_subset(self):
        pattern = BindingPattern(["a", "b", "c"], "bbf")
        assert pattern.accepts({"a"})
        assert pattern.accepts({"a", "b"})
        assert not pattern.accepts({"c"})

    def test_class_capability_scan(self):
        capability = ClassCapability("c", ["a"], scannable=True)
        assert capability.answerable({})
        assert not ClassCapability("c", ["a"], scannable=False).answerable({})

    def test_unknown_attribute_rejected(self):
        capability = ClassCapability("c", ["a"])
        with pytest.raises(CapabilityError):
            capability.answerable({"zz": 1})

    def test_template_argument_checking(self):
        template = QueryTemplate("t", ["x", "y"])
        template.check_arguments({"x": 1, "y": 2})
        with pytest.raises(CapabilityError):
            template.check_arguments({"x": 1})
        with pytest.raises(CapabilityError):
            template.check_arguments({"x": 1, "y": 2, "z": 3})

    def test_wrapper_capability_patterns(self, ncmir):
        capability = ncmir.capabilities()["protein_amount"]
        assert capability.answerable({"location": "x"})
        assert capability.answerable({"location": "x", "protein_name": "y"})
        assert not capability.answerable({"amount": 1.0})


class TestQueries:
    def test_scan_all(self, ncmir):
        rows = ncmir.query(SourceQuery("protein_amount"))
        assert len(rows) == 3

    def test_pushed_selection(self, ncmir):
        rows = ncmir.query(
            SourceQuery("protein_amount", {"location": "Purkinje Cell dendrite"})
        )
        assert {row["protein_name"] for row in rows} == {
            "Ryanodine Receptor",
            "Calbindin",
        }

    def test_selection_on_unsupported_attribute_rejected(self, ncmir):
        with pytest.raises(CapabilityError):
            ncmir.query(SourceQuery("protein_amount", {"amount": 1.1}))

    def test_unknown_class_rejected(self, ncmir):
        with pytest.raises(SourceError):
            ncmir.query(SourceQuery("nope"))

    def test_object_ids_stable(self, ncmir):
        rows = ncmir.query(SourceQuery("protein_amount", {"protein_name": "Calbindin"}))
        assert sorted(r["_object"] for r in rows) == [
            "NCMIR.protein_amount.2",
            "NCMIR.protein_amount.3",
        ]

    def test_projection(self, ncmir):
        rows = ncmir.query(
            SourceQuery("protein_amount", projection=["protein_name"])
        )
        assert set(rows[0]) == {"protein_name", "_object"}

    def test_template_execution(self, ncmir):
        ncmir.add_template(
            "protein_amount",
            QueryTemplate("by_min_amount", ["min_amount"]),
            lambda store, min_amount: store.select(
                "protein_amount", predicate=lambda r: r["amount"] >= min_amount
            ),
        )
        rows = ncmir.run_template(
            "protein_amount", "by_min_amount", min_amount=2.0
        )
        assert {row["protein_name"] for row in rows} == {
            "Ryanodine Receptor",
            "Calbindin",
        }

    def test_unknown_template_rejected(self, ncmir):
        with pytest.raises(CapabilityError):
            ncmir.run_template("protein_amount", "nope")


class TestLifting:
    def test_instance_and_values(self, ncmir):
        rows = ncmir.query(SourceQuery("protein_amount", {"protein_name": "Ryanodine Receptor"}))
        facts = {str(f) for f in ncmir.lift_rows("protein_amount", rows)}
        assert "instance('NCMIR.protein_amount.1', protein_amount)." in facts
        assert (
            "method_inst('NCMIR.protein_amount.1', protein_name, 'Ryanodine Receptor')."
            in facts
        )

    def test_anchor_tagging(self, ncmir):
        rows = ncmir.query(SourceQuery("protein_amount", {"location": "Purkinje Cell"}))
        facts = {str(f) for f in ncmir.lift_rows("protein_amount", rows)}
        assert "instance('NCMIR.protein_amount.2', 'Purkinje_Cell')." in facts

    def test_role_links(self, ncmir):
        rows = ncmir.query(SourceQuery("protein_amount", {"location": "Purkinje Cell"}))
        facts = {str(f) for f in ncmir.lift_rows("protein_amount", rows)}
        assert (
            "role_fact(located_in, 'NCMIR.protein_amount.2', 'Purkinje_Cell')."
            in facts
        )

    def test_export_all_facts(self, ncmir):
        facts = ncmir.export_all_facts()
        instance_facts = [f for f in facts if f.head.pred == "instance"]
        # 3 class-instance + 3 anchor facts
        assert len(instance_facts) == 6

    def test_foreign_key_role_link(self):
        store = RelStore("S")
        store.create_table("neurons", [Column("nid", "int")], key="nid")
        store.create_table(
            "dendrites",
            [Column("did", "int"), Column("neuron", "int")],
            key="did",
        )
        store.table("neurons").insert({"nid": 1})
        store.table("dendrites").insert({"did": 7, "neuron": 1})
        wrapper = Wrapper("S", store)
        wrapper.export_class("neuron", "neurons", "nid", methods={"nid": "nid"})
        wrapper.export_class(
            "dendrite",
            "dendrites",
            "did",
            methods={"did": "did", "neuron": "neuron"},
            role_links=[RoleLink("part_of", column="neuron", target_class="neuron")],
        )
        rows = wrapper.query(SourceQuery("dendrite"))
        facts = {str(f) for f in wrapper.lift_rows("dendrite", rows)}
        assert "role_fact(part_of, 'S.dendrite.7', 'S.neuron.1')." in facts


class TestSchemaExport:
    def test_schema_cm_types(self, ncmir):
        cm = ncmir.schema_cm()
        methods = cm.classes["protein_amount"].methods
        assert methods["amount"].result_class == "float"
        assert methods["protein_name"].result_class == "string"

    def test_anchor_declarations(self, ncmir):
        anchors = ncmir.anchors()
        assert ("protein_amount", "Purkinje_Cell", "location") in anchors
        assert ("protein_amount", "Purkinje_Dendrite", "location") in anchors

    def test_semantic_rules_exported(self, ncmir):
        ncmir.add_rule("X : abundant :- X : protein_amount[amount -> A], A > 3.")
        cm = ncmir.schema_cm()
        assert len(cm.semantic_rules()) > 0

    def test_duplicate_export_rejected(self, ncmir):
        with pytest.raises(SchemaError):
            ncmir.export_class("protein_amount", "protein_amount", "id", methods={})

    def test_unknown_column_rejected(self, ncmir):
        with pytest.raises(SchemaError):
            ncmir.export_class(
                "other", "protein_amount", "id", methods={"m": "nope"}
            )

    def test_unexported_link_column_rejected(self, ncmir):
        # lifting reads anchor and role-link columns from answer rows,
        # which carry exported methods only
        with pytest.raises(SchemaError):
            ncmir.export_class(
                "other", "protein_amount", "id",
                methods={"amount": "amount"},
                anchor=AnchorSpec(column="location"),
            )
        with pytest.raises(SchemaError):
            ncmir.export_class(
                "other", "protein_amount", "id",
                methods={"amount": "amount"},
                role_links=[RoleLink("located_in", column="location")],
            )
        assert "other" not in ncmir.exports

    def test_anchor_spec_validation(self):
        with pytest.raises(SchemaError):
            AnchorSpec()
        with pytest.raises(SchemaError):
            AnchorSpec(concept="C", column="c")

    def test_role_link_validation(self):
        with pytest.raises(SchemaError):
            RoleLink("r")

    def test_superclasses_auto_declared(self):
        store = RelStore("S")
        store.create_table("t", [Column("id", "int")], key="id")
        wrapper = Wrapper("S", store)
        wrapper.export_class(
            "sub", "t", "id", methods={"id": "id"}, superclasses=["sup"]
        )
        cm = wrapper.schema_cm()
        assert "sup" in cm.classes
        engine = FLogicEngine().tell_rules(cm.all_rules())
        assert engine.holds("sub :: sup")
