"""Tests for the XML wire codec."""

import pytest

from repro.errors import XMLTransportError
from repro.flogic import FLogicEngine
from repro.gcm import ConceptualModel
from repro.xmlio import (
    decode_value,
    element_value,
    encode_value,
    parse_xml,
    serialize,
    value_element,
)
from tests.conftest import cm_from_xml, cm_to_xml


def sample_cm():
    """Schema and rules: what a registration's <cm> carries."""
    cm = ConceptualModel("SYNAPSE")
    cm.add_class("compartment")
    cm.add_class(
        "spine",
        superclasses=["compartment"],
        methods={"len_um": "float", "proteins": ("protein", True)},
    )
    cm.add_relation("has", [("whole", "compartment"), ("part", "compartment")])
    cm.add_datalog("instance(X, long) :- method_val(X, len_um, L), L > 1.")
    return cm


def add_sample_data(cm):
    cm.add_instance("s1", "spine")
    cm.set_value("s1", "len_um", 1.5)
    cm.set_value("s1", "count", 4)
    cm.add_relation_instance("has", whole="d1", part="s1")
    return cm


class TestValueEncoding:
    @pytest.mark.parametrize(
        "value", ["abc", 42, -7, 3.5, True, False, "Purkinje Cell"]
    )
    def test_roundtrip(self, value):
        text, tag = encode_value(value)
        assert decode_value(text, tag) == value

    def test_type_preserved_distinctly(self):
        assert decode_value(*reversed(("int", "1"))) == 1
        assert decode_value("1", "str") == "1"

    def test_unsupported_type_rejected(self):
        with pytest.raises(XMLTransportError):
            encode_value([1, 2])

    def test_value_element_roundtrip(self):
        element = value_element("v", 2.5, name="x")
        assert element_value(element) == 2.5
        assert element.get("name") == "x"


class TestSerialization:
    def test_deterministic(self):
        cm = sample_cm()
        assert cm_to_xml(cm) == cm_to_xml(cm)

    def test_attribute_escaping(self):
        element = parse_xml('<a name="x&amp;y"/>')
        assert 'name="x&amp;y"' in serialize(element)

    def test_text_escaping(self):
        element = value_element("rule", "a < b & c")
        text = serialize(element)
        assert "&lt;" in text and "&amp;" in text

    def test_malformed_xml_rejected(self):
        with pytest.raises(XMLTransportError):
            parse_xml("<a><b></a>")


class TestCMRoundtrip:
    def test_schema_preserved(self):
        cm = cm_from_xml(cm_to_xml(sample_cm()))
        assert cm.class_names() == ["compartment", "protein", "spine"] or (
            "spine" in cm.class_names()
        )
        assert cm.classes["spine"].superclasses == ("compartment",)
        assert cm.classes["spine"].methods["len_um"].result_class == "float"
        assert cm.classes["spine"].methods["proteins"].multivalued

    def test_relations_preserved(self):
        cm = cm_from_xml(cm_to_xml(sample_cm()))
        assert cm.relations["has"].roles == (
            ("whole", "compartment"),
            ("part", "compartment"),
        )

    def test_rules_preserved(self):
        cm = add_sample_data(cm_from_xml(cm_to_xml(sample_cm())))
        engine = FLogicEngine().tell_rules(cm.all_rules())
        assert [row["X"] for row in engine.ask("X : 'long'")] == ["s1"]

    def test_fixpoint_xml(self):
        once = cm_to_xml(sample_cm())
        twice = cm_to_xml(cm_from_xml(once))
        assert once == twice

    def test_wrong_root_rejected(self):
        with pytest.raises(XMLTransportError):
            cm_from_xml("<nope/>")

    def test_missing_name_rejected(self):
        with pytest.raises(XMLTransportError):
            cm_from_xml("<cm/>")

    def test_unknown_data_element_rejected(self):
        with pytest.raises(XMLTransportError):
            cm_from_xml('<cm name="x"><data><weird/></data></cm>')

    def test_data_is_rejected_in_both_directions(self):
        # instance data travels in a registration's <facts>, never in <cm>
        with pytest.raises(XMLTransportError, match="<facts>"):
            cm_to_xml(add_sample_data(sample_cm()))
        with pytest.raises(XMLTransportError, match="<facts>"):
            cm_from_xml('<cm name="x"><schema/><rules/><data/></cm>')
