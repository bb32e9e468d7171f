"""XML encoding of conceptual models (schema, rules, data).

Wrappers "export their CM-lifted source data either directly in GCM, or
in any standard CM formalism ... for which a CM-to-GCM plug-in has been
provided" (Section 2).  This is the *direct GCM* wire format::

    <cm name="SYNAPSE">
      <schema>
        <class name="spine">
          <super name="compartment"/>
          <method name="len_um" result="float"/>
        </class>
        <relation name="has">
          <role name="whole" class="neuron"/>
          <role name="part" class="compartment"/>
        </relation>
      </schema>
      <rules>
        <rule>long(X) :- method_val(X, len_um, L), L &gt; 5.</rule>
      </rules>
      <data>
        <instance object="s1" class="spine"/>
        <value object="s1" method="len_um" type="float">1.5</value>
        <tuple relation="has">
          <role name="whole">n1</role>
          <role name="part">s1</role>
        </tuple>
      </data>
    </cm>

Rules travel as Datalog text (every in-memory rule prints back to
parseable syntax), so arbitrary semantic rules survive the round trip.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Iterable, List, Optional

from ..errors import XMLTransportError
from ..datalog.ast import Atom, Rule
from ..datalog.parser import parse_program
from ..datalog.terms import Const
from ..gcm.model import ConceptualModel
from .doc import (
    decode_value,
    element_value,
    encode_value,
    value_element,
)


def cm_to_element(cm):
    """Encode a :class:`ConceptualModel` as an Element tree."""
    root = ET.Element("cm", {"name": cm.name})
    schema = ET.SubElement(root, "schema")
    for class_name in cm.class_names():
        class_def = cm.classes[class_name]
        class_el = ET.SubElement(schema, "class", {"name": class_name})
        for sup in class_def.superclasses:
            ET.SubElement(class_el, "super", {"name": sup})
        for method_name in sorted(class_def.methods):
            method = class_def.methods[method_name]
            attrs = {"name": method.name, "result": method.result_class}
            if method.multivalued:
                attrs["multivalued"] = "true"
            ET.SubElement(class_el, "method", attrs)
    for relation_name in cm.relation_names():
        relation = cm.relations[relation_name]
        rel_el = ET.SubElement(schema, "relation", {"name": relation_name})
        for role, class_name in relation.roles:
            ET.SubElement(rel_el, "role", {"name": role, "class": class_name})

    rules_el = ET.SubElement(root, "rules")
    for rule in cm.semantic_rules():
        rule_el = ET.SubElement(rules_el, "rule")
        rule_el.text = str(rule)

    data = ET.SubElement(root, "data")
    for rule in cm.data_rules():
        atom = rule.head
        if atom.pred == "instance":
            data.append(
                ET.Element(
                    "instance",
                    {
                        "object": _const_text(atom.args[0]),
                        "class": _const_text(atom.args[1]),
                    },
                )
            )
        elif atom.pred == "method_inst":
            element = value_element(
                "value",
                _const_value(atom.args[2]),
                object=_const_text(atom.args[0]),
                method=_const_text(atom.args[1]),
            )
            data.append(element)
        else:
            relation = cm.relations.get(atom.pred)
            if relation is None:
                raise XMLTransportError(
                    "cannot encode data fact %s: unknown relation" % atom
                )
            tuple_el = ET.Element("tuple", {"relation": atom.pred})
            for (role, _cls), arg in zip(relation.roles, atom.args):
                tuple_el.append(
                    value_element("role", _const_value(arg), name=role)
                )
            data.append(tuple_el)
    return root


def cm_from_element(root):
    """Decode an Element tree into a :class:`ConceptualModel`."""
    if root.tag != "cm":
        raise XMLTransportError("expected <cm> root, found <%s>" % root.tag)
    name = root.get("name")
    if not name:
        raise XMLTransportError("<cm> requires a name attribute")
    cm = ConceptualModel(name)

    schema = root.find("schema")
    if schema is not None:
        for class_el in schema.findall("class"):
            class_name = _require(class_el, "name")
            cm.add_class(class_name)
            for method_el in class_el.findall("method"):
                cm.add_method(
                    class_name,
                    _require(method_el, "name"),
                    _require(method_el, "result"),
                    multivalued=method_el.get("multivalued") == "true",
                )
        # supers second so forward references are fine
        for class_el in schema.findall("class"):
            class_name = class_el.get("name")
            for super_el in class_el.findall("super"):
                cm.add_superclass(class_name, _require(super_el, "name"))
        for rel_el in schema.findall("relation"):
            roles = [
                (_require(role_el, "name"), _require(role_el, "class"))
                for role_el in rel_el.findall("role")
            ]
            cm.add_relation(_require(rel_el, "name"), roles)

    rules_el = root.find("rules")
    if rules_el is not None:
        for rule_el in rules_el.findall("rule"):
            cm.add_datalog(rule_el.text or "")

    data = root.find("data")
    if data is not None:
        for element in data:
            if element.tag == "instance":
                cm.add_instance(
                    _require(element, "object"), _require(element, "class")
                )
            elif element.tag == "value":
                cm.set_value(
                    _require(element, "object"),
                    _require(element, "method"),
                    element_value(element),
                )
            elif element.tag == "tuple":
                relation = _require(element, "relation")
                role_values = {}
                for role_el in element.findall("role"):
                    role_values[_require(role_el, "name")] = element_value(role_el)
                cm.add_relation_instance(relation, **role_values)
            else:
                raise XMLTransportError(
                    "unknown data element <%s>" % element.tag
                )
    return cm


def _require(element, attribute):
    value = element.get(attribute)
    if value is None:
        raise XMLTransportError(
            "<%s> requires attribute %r" % (element.tag, attribute)
        )
    return value


def _const_text(term):
    if isinstance(term, Const):
        return str(term.value)
    raise XMLTransportError("cannot encode non-constant term %s" % term)


def _const_value(term):
    if isinstance(term, Const):
        return term.value
    raise XMLTransportError("cannot encode non-constant term %s" % term)
