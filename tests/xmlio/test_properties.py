"""Property-based tests for the XML wire codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flogic import FLogicEngine
from repro.gcm import ConceptualModel
from repro.xmlio import decode_value, encode_value
from tests.conftest import cm_from_xml, cm_to_xml

# names the codec must survive: spaces, quotes, unicode, XML specials
names = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"),
        whitelist_characters=" _-&<>\"'",
    ),
    min_size=1,
    max_size=12,
).filter(lambda s: s.strip() == s and s)

scalars = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    names,
)


class TestValueRoundtrip:
    @given(scalars)
    def test_encode_decode_identity(self, value):
        text, tag = encode_value(value)
        decoded = decode_value(text, tag)
        assert decoded == value
        assert type(decoded) is type(value)


@st.composite
def conceptual_models(draw):
    cm = ConceptualModel(draw(names))
    class_names = draw(
        st.lists(names, min_size=1, max_size=4, unique=True)
    )
    for index, class_name in enumerate(class_names):
        supers = class_names[:index]
        methods = {}
        for method_name in draw(
            st.lists(names, max_size=3, unique=True)
        ):
            methods[method_name] = draw(names)
        cm.add_class(
            class_name,
            superclasses=draw(st.sets(st.sampled_from(supers), max_size=2))
            if supers
            else (),
            methods=methods,
        )
    # some instances with values
    for index in range(draw(st.integers(0, 4))):
        obj = "obj%d" % index
        class_name = draw(st.sampled_from(class_names))
        cm.add_instance(obj, class_name)
        for method_name in cm.classes[class_name].methods:
            cm.set_value(obj, method_name, draw(scalars))
    return cm


class TestCMRoundtripProperties:
    @settings(max_examples=40, deadline=None)
    @given(conceptual_models())
    def test_schema_survives_wire(self, cm):
        decoded = cm_from_xml(cm_to_xml(cm))
        assert decoded.class_names() == cm.class_names()
        for name, class_def in cm.classes.items():
            other = decoded.classes[name]
            assert set(other.superclasses) == set(class_def.superclasses)
            assert set(other.methods) == set(class_def.methods)

    @settings(max_examples=40, deadline=None)
    @given(conceptual_models())
    def test_wire_format_is_fixpoint(self, cm):
        once = cm_to_xml(cm)
        assert cm_to_xml(cm_from_xml(once)) == once

    @settings(max_examples=30, deadline=None)
    @given(conceptual_models())
    def test_data_semantics_preserved(self, cm):
        original = FLogicEngine().tell_rules(cm.all_rules()).evaluate().store
        decoded = FLogicEngine().tell_rules(cm_from_xml(cm_to_xml(cm)).all_rules())
        decoded = decoded.evaluate().store
        assert original.same_facts(decoded)
