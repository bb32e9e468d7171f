"""Small helpers over :mod:`xml.etree.ElementTree`.

Everything in the mediated system goes "over the wire" in XML syntax
(Section 2).  This module wraps the standard library with the pieces
the codec and the plug-in engine need: safe parsing, deterministic
pretty-printing, parent maps (ElementTree has no parent pointers), and
typed attribute encoding for non-string values.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, Iterable, List, Optional

from ..errors import XMLTransportError


def parse_xml(text):
    """Parse XML text into an Element, wrapping errors."""
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise XMLTransportError("malformed XML: %s" % exc) from exc


def serialize(element, indent=0):
    """Deterministic, human-readable serialization.

    Attributes are emitted in sorted order so wire messages are
    reproducible across runs (useful for tests and message digests).
    A leaf's text is written verbatim, so a string value keeps its
    surrounding whitespace; only a container's text (the indentation
    a parsed document carries) is stripped.
    """
    pad = "  " * indent
    pieces = [pad, "<", element.tag]
    for key in sorted(element.attrib):
        pieces.append(' %s="%s"' % (key, escape_attr(element.attrib[key])))
    children = list(element)
    text = element.text or ""
    if children:
        text = text.strip()
    if not children and not text:
        pieces.append("/>")
        return "".join(pieces)
    pieces.append(">")
    if text:
        pieces.append(escape_text(text))
    if children:
        for child in children:
            pieces.append("\n")
            pieces.append(serialize(child, indent + 1))
        pieces.append("\n")
        pieces.append(pad)
    pieces.append("</%s>" % element.tag)
    return "".join(pieces)


def escape_attr(value):
    """Escape an attribute value.  Tab, newline and carriage return
    become character references: a parser normalizes them to spaces
    in a literal attribute value."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\r", "&#13;")
        .replace("\t", "&#9;")
    )


def escape_text(value):
    """Escape element text.  A carriage return becomes ``&#13;``: a
    parser normalizes a literal one to a newline."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def parent_map(root):
    """Child element -> parent element map for a tree."""
    return {child: parent for parent in root.iter() for child in parent}


def encode_value(value):
    """Encode a Python scalar as (text, type-tag)."""
    if isinstance(value, str):
        return (value, "str")
    if isinstance(value, bool):
        return ("true" if value else "false", "bool")
    if isinstance(value, int):
        return (str(value), "int")
    if isinstance(value, float):
        return (repr(value), "float")
    raise XMLTransportError("cannot encode value of type %s" % type(value).__name__)


def decode_value(text, type_tag):
    """Inverse of :func:`encode_value`."""
    if type_tag in (None, "", "str"):
        return text
    if type_tag == "int":
        try:
            return int(text)
        except ValueError as exc:
            raise XMLTransportError("bad int value %r" % text) from exc
    if type_tag == "float":
        try:
            return float(text)
        except ValueError as exc:
            raise XMLTransportError("bad float value %r" % text) from exc
    if type_tag == "bool":
        return text == "true"
    raise XMLTransportError("unknown value type tag %r" % type_tag)


def value_element(tag, value, **attrs):
    """Build an element carrying one typed scalar value."""
    text, type_tag = encode_value(value)
    element = ET.Element(tag, dict(attrs))
    if type_tag != "str":
        element.set("type", type_tag)
    element.text = text
    return element


def element_value(element):
    """Read a typed scalar from an element built by :func:`value_element`."""
    return decode_value(element.text or "", element.get("type"))
