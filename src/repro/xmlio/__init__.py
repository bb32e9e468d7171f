"""XML transport syntax and the CM plug-in mechanism (Section 2).

"Syntactically all information (queries, CM signatures and data,
mediator/wrapper dialogues, etc.) goes over the wire in XML syntax."
This package provides the GCM wire codec, typed scalar encoding, a
deterministic serializer, and the declarative XML-to-GCM translator
engine with three built-in plug-ins (RDF, UML/XMI, ER).
"""

from .doc import (
    decode_value,
    element_value,
    encode_value,
    parent_map,
    parse_xml,
    serialize,
    value_element,
)
from .gcm_xml import cm_from_element, cm_to_element
from .messages import (
    handle_request,
    query_from_xml,
    query_to_xml,
    rows_from_xml,
    rows_to_xml,
    template_query_from_xml,
    template_query_to_xml,
)
from .plugins import PluginResult, PluginTranslator
from .formats import BUILTIN_PLUGINS, er, rdf, uml_xmi

__all__ = [
    "BUILTIN_PLUGINS",
    "PluginResult",
    "PluginTranslator",
    "cm_from_element",
    "cm_to_element",
    "decode_value",
    "element_value",
    "encode_value",
    "er",
    "handle_request",
    "parent_map",
    "parse_xml",
    "query_from_xml",
    "query_to_xml",
    "rdf",
    "rows_from_xml",
    "rows_to_xml",
    "serialize",
    "template_query_from_xml",
    "template_query_to_xml",
    "uml_xmi",
    "value_element",
]
