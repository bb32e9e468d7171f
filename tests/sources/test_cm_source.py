"""Tests for wrapping plug-in-translated CMs as mediator sources."""

import pytest

from repro.core import Mediator
from repro.domainmap import DomainMap
from repro.flogic import FLogicEngine
from repro.gcm import ConceptualModel
from repro.sources import SourceQuery, wrapper_from_cm
from repro.xmlio import er, rdf, uml_xmi


@pytest.fixture
def mediator():
    dm = DomainMap("t")
    dm.add_concepts(["Purkinje_Cell", "Neuron"])
    mediator = Mediator(dm)
    for module in (rdf, uml_xmi, er):
        result = module.translate(module.SAMPLE_DOCUMENT)
        mediator.register(wrapper_from_cm(result.cm, result.anchors))
    return mediator


class TestPluginSourcesRegister:
    def test_all_three_formats_register(self, mediator):
        assert mediator.source_names() == ["lab_er", "rdf_neuro", "uml_lab"]

    def test_original_object_identities_kept(self, mediator):
        # CM-backed wrappers keep the document's object names
        assert mediator.ask("p1 : purkinje_cell")
        assert mediator.ask("p1[location -> L]") == [{"L": "cerebellum"}]

    def test_inherited_methods_queryable(self, mediator):
        # location is declared on neuron; p1 is a purkinje_cell
        rows = mediator.wrapper("rdf_neuro").query(
            SourceQuery("purkinje_cell", {"location": "cerebellum"})
        )
        assert [row["_object"] for row in rows] == ["p1"]

    def test_relation_tuples_survive(self, mediator):
        assert mediator.ask("has(X, Y)") == [{"X": "p1", "Y": "d1"}]
        assert mediator.ask("measures(E, N)") == [{"E": "e1", "N": "n1"}]

    def test_anchors_registered(self, mediator):
        assert set(mediator.index.sources_for("Purkinje_Cell")) == {
            "rdf_neuro",
            "uml_lab",
        }

    def test_anchored_objects_in_dm(self, mediator):
        assert mediator.ask("p1 : 'Purkinje_Cell'")

    def test_subclass_structure_survives(self, mediator):
        assert mediator.ask("e1 : record")  # ER IsA

    def test_all_attributes_selectable(self, mediator):
        capability = mediator.capabilities("rdf_neuro")["purkinje_cell"]
        assert capability.answerable({"location": "x"})
        assert capability.answerable({"soma_diameter": 1.0})


class TestTypeInference:
    def test_numeric_columns_typed(self):
        cm = ConceptualModel("typed")
        cm.add_class("m", methods={"a": "x", "b": "x", "c": "x"})
        cm.add_instance("o1", "m")
        cm.set_value("o1", "a", 1)
        cm.set_value("o1", "b", 1.5)
        cm.set_value("o1", "c", "text")
        wrapper = wrapper_from_cm(cm)
        table = wrapper.store.table("t_m")
        dtypes = {column.name: column.dtype for column in table.columns}
        assert dtypes["a"] == "int"
        assert dtypes["b"] == "float"
        assert dtypes["c"] == "str"

    def test_mixed_int_float_widens(self):
        cm = ConceptualModel("typed")
        cm.add_class("m", methods={"a": "x"})
        for index, value in enumerate((1, 2.5)):
            obj = "o%d" % index
            cm.add_instance(obj, "m")
            cm.set_value(obj, "a", value)
        wrapper = wrapper_from_cm(cm)
        column = wrapper.store.table("t_m").columns[1]
        assert column.dtype == "float"

    def test_empty_class_still_exported(self):
        cm = ConceptualModel("empty")
        cm.add_class("nothing", methods={"a": "x"})
        wrapper = wrapper_from_cm(cm)
        assert wrapper.query(SourceQuery("nothing")) == []

    def test_semantic_rules_carried(self):
        cm = ConceptualModel("r")
        cm.add_class("m", methods={"v": "x"})
        cm.add_instance("o1", "m")
        cm.set_value("o1", "v", 10)
        cm.add_datalog("instance(X, big) :- method_val(X, v, V), V > 5.")
        wrapper = wrapper_from_cm(cm)
        engine = FLogicEngine().tell_rules(wrapper.schema_cm().all_rules())
        engine.tell_rules(wrapper.export_all_facts())
        assert [row["X"] for row in engine.ask("X : 'big'")] == ["o1"]
