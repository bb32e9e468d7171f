"""Property-based tests for the XML wire codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registration import build_registration, parse_registration
from repro.datalog.ast import Atom, Rule
from repro.datalog.terms import Const, Struct
from repro.gcm import ConceptualModel
from repro.sources import Wrapper
from repro.xmlio import decode_value, encode_value
from tests.conftest import cm_from_xml, cm_to_xml

# names the codec must survive: spaces (surrounding ones too), quotes,
# unicode, XML specials
names = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"),
        whitelist_characters=" _-&<>\"'",
    ),
    min_size=1,
    max_size=12,
)

scalars = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    names,
    # string values with surrounding whitespace, drawn often
    st.builds("{0}{1}{0}".format, st.sampled_from([" ", "\t", "\n "]), names),
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


# ground fact arguments: typed scalars, and Skolem terms over them
terms = st.recursive(
    scalars.map(Const),
    lambda inner: st.builds(
        Struct, names, st.lists(inner, min_size=1, max_size=3).map(tuple)
    ),
    max_leaves=6,
)


class FactWrapper(Wrapper):
    """A wrapper whose eager export is a fixed list of facts."""

    def __init__(self, facts):
        super().__init__("W")
        self.facts = facts

    def export_all_facts(self):
        return list(self.facts)


def typed(term):
    """`term` with every constant's Python type spelled out
    (``Const(1) == Const(1.0) == Const(True)``)."""
    if isinstance(term, Struct):
        return (term.functor, tuple(typed(arg) for arg in term.args))
    return (type(term.value), term.value)


class TestRegistrationFactsProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.builds(
                lambda pred, args: Rule(Atom(pred, tuple(args))),
                names,
                st.lists(terms, min_size=1, max_size=3),
            ),
            max_size=6,
        )
    )
    def test_facts_survive_the_wire(self, facts):
        wrapper = FactWrapper(facts)
        parsed = parse_registration(build_registration(wrapper, include_data=True))
        assert parsed.facts == wrapper.export_all_facts()
        assert [
            (fact.head.pred, [typed(arg) for arg in fact.head.args])
            for fact in parsed.facts
        ] == [
            (fact.head.pred, [typed(arg) for arg in fact.head.args])
            for fact in facts
        ]
