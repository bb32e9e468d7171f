"""The dialogue encoders write messages as strings in one pass; these
properties pin them to the element-tree encoders they replace.

The reference encoders below build each message as an ElementTree and
print it with :func:`repro.xmlio.serialize`.  They live only here: the
package has one encoder per message.
"""

import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import XMLTransportError
from repro.sources import SourceQuery
from repro.xmlio import (
    query_from_xml,
    query_to_xml,
    rows_from_xml,
    rows_to_xml,
    serialize,
    template_query_from_xml,
    template_query_to_xml,
    value_element,
)
from tests.conftest import examples


# -- reference encoders -------------------------------------------------------


def reference_query_to_xml(source_query):
    root = ET.Element("source-query", {"class": source_query.class_name})
    for attribute in sorted(source_query.selections):
        root.append(
            value_element(
                "select", source_query.selections[attribute], attribute=attribute
            )
        )
    if source_query.projection is not None:
        for attribute in source_query.projection:
            ET.SubElement(root, "project", {"attribute": attribute})
    return serialize(root)


def reference_template_query_to_xml(class_name, template_name, arguments):
    root = ET.Element(
        "template-query", {"class": class_name, "template": template_name}
    )
    for name in sorted(arguments):
        root.append(value_element("arg", arguments[name], name=name))
    return serialize(root)


def reference_rows_to_xml(class_name, rows):
    root = ET.Element("answer", {"class": class_name, "count": str(len(rows))})
    for row in rows:
        row_el = ET.SubElement(root, "row", {"object": str(row.get("_object", ""))})
        for key in sorted(row):
            if key.startswith("_"):
                continue
            value = row[key]
            if value is None:
                continue
            row_el.append(value_element("col", value, name=key))
    return serialize(root)


# -- strategies ---------------------------------------------------------------

# every character XML 1.0 allows, with the ones the codec must escape
# or keep from normalization drawn often
xml_chars = st.one_of(
    st.sampled_from("&<>\"' \t\n\ré日\U0001f600"),
    st.characters(
        exclude_categories=("Cs", "Cc", "Cn"), include_characters="\t\n\r"
    ),
)
strings = st.text(xml_chars, max_size=10)
names = st.text(xml_chars, min_size=1, max_size=8)
scalars = st.one_of(
    st.booleans(),
    st.integers(-(10**12), 10**12),
    st.floats(allow_nan=False),
    strings,
)


@st.composite
def answers(draw):
    """(class, rows): rows with `_`-prefixed keys the encoder skips and
    None values it drops, some without `_object` or any column."""
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.dictionaries(names, st.one_of(st.none(), scalars), max_size=4))
        if draw(st.booleans()):
            row["_object"] = draw(strings)
        if draw(st.booleans()):
            row["_raw"] = {"x": 1}
        rows.append(row)
    return draw(names), rows


queries = st.builds(
    SourceQuery,
    names,
    st.dictionaries(names, scalars, max_size=3),
    st.one_of(st.none(), st.lists(names, max_size=3)),
)
templates = st.tuples(names, names, st.dictionaries(names, scalars, max_size=3))


def typed(mapping):
    """`mapping` with every value's type spelled out (``1 == 1.0 == True``)."""
    return {key: (type(value), value) for key, value in mapping.items()}


def wire_rows(rows):
    """What an answer carries of `rows`."""
    return [
        dict(
            {"_object": str(row.get("_object", ""))},
            **{
                key: value
                for key, value in row.items()
                if not key.startswith("_") and value is not None
            },
        )
        for row in rows
    ]


# -- properties ---------------------------------------------------------------


class TestSameBytes:
    @settings(max_examples=examples(150), deadline=None)
    @given(answers())
    def test_answer(self, answer):
        assert rows_to_xml(*answer) == reference_rows_to_xml(*answer)

    @settings(max_examples=examples(150), deadline=None)
    @given(queries)
    def test_query(self, query):
        assert query_to_xml(query) == reference_query_to_xml(query)

    @settings(max_examples=examples(100), deadline=None)
    @given(templates)
    def test_template_query(self, template):
        assert template_query_to_xml(*template) == reference_template_query_to_xml(
            *template
        )

    def test_empty_messages(self):
        assert rows_to_xml("c", []) == '<answer class="c" count="0"/>'
        assert rows_to_xml("c", [{"_object": "o"}]) == (
            '<answer class="c" count="1">\n  <row object="o"/>\n</answer>'
        )
        assert query_to_xml(SourceQuery("c")) == '<source-query class="c"/>'


class TestRoundTrip:
    @settings(max_examples=examples(150), deadline=None)
    @given(answers())
    def test_answer(self, answer):
        class_name, rows = answer
        decoded_class, decoded = rows_from_xml(rows_to_xml(class_name, rows))
        assert decoded_class == class_name
        assert [typed(row) for row in decoded] == [
            typed(row) for row in wire_rows(rows)
        ]

    @settings(max_examples=examples(150), deadline=None)
    @given(queries)
    def test_query(self, query):
        decoded = query_from_xml(query_to_xml(query))
        assert decoded.class_name == query.class_name
        assert typed(decoded.selections) == typed(query.selections)
        assert decoded.projection == (query.projection or None)

    @settings(max_examples=examples(100), deadline=None)
    @given(templates)
    def test_template_query(self, template):
        class_name, template_name, arguments = template
        decoded = template_query_from_xml(template_query_to_xml(*template))
        assert decoded[:2] == (class_name, template_name)
        assert typed(decoded[2]) == typed(arguments)

    @pytest.mark.parametrize(
        "value", [" padded ", "   ", "\tx\n", "a\r\nb", "\r", "\n\n"]
    )
    def test_whitespace_is_kept(self, value):
        rows = [{"_object": " o\t1\n", "x": value}]
        _cls, decoded = rows_from_xml(rows_to_xml("c", rows))
        assert decoded == rows
        query = query_from_xml(query_to_xml(SourceQuery("c", {"x": value})))
        assert query.selections == {"x": value}


class TestMangledAnswers:
    """Every corruption of an answer raises XMLTransportError."""

    @settings(max_examples=examples(100), deadline=None)
    @given(answers(), st.data())
    def test_truncated(self, answer, data):
        text = rows_to_xml(*answer)
        cut = data.draw(st.integers(0, len(text) - 1))
        with pytest.raises(XMLTransportError):
            rows_from_xml(text[:cut])

    @settings(max_examples=examples(50), deadline=None)
    @given(answers())
    def test_wrong_root(self, answer):
        text = rows_to_xml(*answer)
        text = text.replace("<answer", "<wrong", 1).replace("</answer>", "</wrong>")
        with pytest.raises(XMLTransportError):
            rows_from_xml(text)

    @settings(max_examples=examples(50), deadline=None)
    @given(answers())
    def test_missing_class(self, answer):
        text = re.sub(' class="[^"]*"', "", rows_to_xml(*answer), count=1)
        with pytest.raises(XMLTransportError):
            rows_from_xml(text)

    @settings(max_examples=examples(50), deadline=None)
    @given(answers(), st.sampled_from(["lying", "non-numeric"]))
    def test_bad_count(self, answer, kind):
        count = len(answer[1]) + 1 if kind == "lying" else "lots"
        text = re.sub(
            'count="[^"]*"', 'count="%s"' % count, rows_to_xml(*answer), count=1
        )
        with pytest.raises(XMLTransportError):
            rows_from_xml(text)

    @settings(max_examples=examples(50), deadline=None)
    @given(answers())
    def test_nameless_col(self, answer):
        text = rows_to_xml(*answer)
        assume("<col " in text)
        text = re.sub('<col name="[^"]*"', "<col", text, count=1)
        with pytest.raises(XMLTransportError):
            rows_from_xml(text)

    @settings(max_examples=examples(50), deadline=None)
    @given(answers(), names, st.sampled_from(["int", "float", "blob"]))
    def test_bad_typed_value(self, answer, name, tag):
        class_name, rows = answer
        assume(rows and not name.startswith("_"))
        rows[0][name] = 424242
        text = rows_to_xml(class_name, rows).replace(
            'type="int">424242<', 'type="%s">not-a-number<' % tag, 1
        )
        with pytest.raises(XMLTransportError):
            rows_from_xml(text)
