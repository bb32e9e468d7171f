"""XML query/answer dialogue between mediator and wrappers.

Registration already crosses the wire (:mod:`repro.core.registration`);
this module covers the remaining dialogue of Section 2 — "queries ...
and mediator/wrapper dialogues" — with two message kinds:

query request::

    <source-query class="protein_amount">
      <select attribute="location">Purkinje Cell dendrite</select>
      <project attribute="protein_name"/>
    </source-query>

template request::

    <template-query class="protein_amount" template="by_min_amount">
      <arg name="min_amount" type="float">2.0</arg>
    </template-query>

answer::

    <answer class="protein_amount" count="2">
      <row object="NCMIR.protein_amount.1">
        <col name="protein_name">Ryanodine Receptor</col>
        ...
      </row>
    </answer>

:func:`handle_request` is the wrapper-side dispatcher: XML in, XML out.
"""

from __future__ import annotations

import sys
from typing import Dict, List

from .. import obs
from ..errors import XMLTransportError
from .doc import decode_value, encode_value, escape_attr, escape_text, parse_xml

# The encoders write each message in one pass, byte for byte as
# ``serialize`` would write the same message built as an element tree:
# attributes sorted, two-space indentation, a leaf's text verbatim,
# and ``type=`` on every non-string value.


def _leaf(head, tag, value):
    """Complete ``head``, the open tag ``<tag name="..."`` of a leaf
    element, with one typed scalar: ``type=`` names every type but
    ``str``, and an empty string makes an empty element."""
    text, type_tag = encode_value(value)
    if type_tag != "str":
        head = '%s type="%s"' % (head, type_tag)
    if not text:
        return head + "/>"
    return "%s>%s</%s>" % (head, escape_text(text), tag)


def _message(head, tag, lines):
    """A root element ``head`` (its open tag, unclosed) over child lines."""
    if not lines:
        return head + "/>"
    return "%s>\n%s\n</%s>" % (head, "\n".join(lines), tag)


def query_to_xml(source_query):
    """Encode a :class:`~repro.sources.SourceQuery`."""
    selections = source_query.selections
    lines = [
        _leaf(
            '  <select attribute="%s"' % escape_attr(attribute),
            "select",
            selections[attribute],
        )
        for attribute in sorted(selections)
    ]
    if source_query.projection is not None:
        lines.extend(
            '  <project attribute="%s"/>' % escape_attr(attribute)
            for attribute in source_query.projection
        )
    return _message(
        '<source-query class="%s"' % escape_attr(source_query.class_name),
        "source-query",
        lines,
    )


def query_from_xml(text):
    """Decode a query request; returns a SourceQuery."""
    from ..sources.wrapper import SourceQuery

    root = parse_xml(text) if isinstance(text, str) else text
    if root.tag != "source-query":
        raise XMLTransportError(
            "expected <source-query>, found <%s>" % root.tag
        )
    class_name = root.get("class")
    if not class_name:
        raise XMLTransportError("<source-query> requires a class attribute")
    selections = {}
    projection = []
    for child in root:
        if child.tag == "select":
            attribute = child.get("attribute")
            if not attribute:
                raise XMLTransportError("<select> requires an attribute")
            selections[attribute] = decode_value(child.text or "", child.get("type"))
        elif child.tag == "project":
            projection.append(child.get("attribute"))
    return SourceQuery(class_name, selections, projection or None)


def template_query_to_xml(class_name, template_name, arguments):
    """Encode a template invocation."""
    return _message(
        '<template-query class="%s" template="%s"'
        % (escape_attr(class_name), escape_attr(template_name)),
        "template-query",
        [
            _leaf('  <arg name="%s"' % escape_attr(name), "arg", arguments[name])
            for name in sorted(arguments)
        ],
    )


def template_query_from_xml(text):
    """Decode a template invocation: (class, template, arguments)."""
    root = parse_xml(text) if isinstance(text, str) else text
    if root.tag != "template-query":
        raise XMLTransportError(
            "expected <template-query>, found <%s>" % root.tag
        )
    class_name = root.get("class")
    template_name = root.get("template")
    if not class_name or not template_name:
        raise XMLTransportError(
            "<template-query> requires class and template attributes"
        )
    arguments = {
        arg.get("name"): decode_value(arg.text or "", arg.get("type"))
        for arg in root
        if arg.tag == "arg"
    }
    return class_name, template_name, arguments


def rows_to_xml(class_name, rows):
    """Encode wrapper answer rows (dicts with `_object`)."""
    # the escaped ``<col name=...`` head of each column name, built once
    col_heads: Dict[str, str] = {}
    lines = []
    for row in rows:
        cols = []
        for key in sorted(row):
            value = row[key]
            if value is None or key.startswith("_"):
                continue
            col_head = col_heads.get(key)
            if col_head is None:
                col_head = col_heads[key] = '\n    <col name="%s"' % escape_attr(key)
            cols.append(_leaf(col_head, "col", value))
        row_head = '  <row object="%s"' % escape_attr(str(row.get("_object", "")))
        if cols:
            lines.append("%s>%s\n  </row>" % (row_head, "".join(cols)))
        else:
            lines.append(row_head + "/>")
    return _message(
        '<answer class="%s" count="%d"' % (escape_attr(class_name), len(rows)),
        "answer",
        lines,
    )


def rows_from_xml(text):
    """Decode an answer message: (class, rows).

    Column names are interned, so the rows of every answer (and every
    cached answer) share one string per name.
    """
    root = parse_xml(text) if isinstance(text, str) else text
    if root.tag != "answer":
        raise XMLTransportError("expected <answer>, found <%s>" % root.tag)
    class_name = root.get("class")
    if not class_name:
        raise XMLTransportError("<answer> requires a class attribute")
    intern = sys.intern
    rows: List[Dict] = []
    for row_el in root:
        if row_el.tag != "row":
            continue
        row: Dict = {"_object": row_el.get("object")}
        for col in row_el:
            if col.tag != "col":
                continue
            name = col.get("name")
            if not name:
                raise XMLTransportError("<col> requires a name attribute")
            type_tag = col.get("type")
            value = col.text or ""
            if type_tag is not None:
                value = decode_value(value, type_tag)
            row[intern(name)] = value
        rows.append(row)
    declared = root.get("count")
    if declared is not None:
        try:
            declared_count = int(declared)
        except ValueError as exc:
            raise XMLTransportError(
                "answer declares a non-numeric count %r" % declared
            ) from exc
        if declared_count != len(rows):
            raise XMLTransportError(
                "answer declares %s rows but carries %d"
                % (declared, len(rows))
            )
    return class_name, rows


def handle_request(wrapper, request_xml):
    """The wrapper-side XML endpoint: dispatch a request, answer in XML.

    Accepts ``<source-query>`` and ``<template-query>`` messages;
    errors surface as :class:`XMLTransportError` /
    :class:`~repro.errors.SourceError` to the caller (the transport is
    in-process; a networked deployment would serialize those too).
    """
    with obs.span(
        "xml.request", source=wrapper.name, bytes_in=len(request_xml)
    ) as span:
        root = parse_xml(request_xml)
        span.set(tag=root.tag)
        if root.tag == "source-query":
            source_query = query_from_xml(root)
            rows = wrapper.query(source_query)
            answer = rows_to_xml(source_query.class_name, rows)
        elif root.tag == "template-query":
            class_name, template_name, arguments = template_query_from_xml(root)
            rows = wrapper.run_template(class_name, template_name, **arguments)
            answer = rows_to_xml(class_name, rows)
        else:
            raise XMLTransportError("unknown request <%s>" % root.tag)
        # fault-injection hook: a decorating wrapper may corrupt the
        # serialized answer to exercise the codec's hardening
        mangle = getattr(wrapper, "mangle_answer", None)
        if mangle is not None:
            answer = mangle(answer)
        if span.enabled:
            span.set(bytes_out=len(answer))
            obs.count("wire.bytes", len(request_xml) + len(answer), kind="request")
        return answer
