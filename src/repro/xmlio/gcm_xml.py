"""XML encoding of conceptual models (schema and rules).

Wrappers "export their CM-lifted source data either directly in GCM, or
in any standard CM formalism ... for which a CM-to-GCM plug-in has been
provided" (Section 2).  A registration sends "descriptions of the
exported class schemas, relationship schemas, and semantic rules"; this
is the *direct GCM* wire format of those descriptions::

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
    </cm>

Rules travel as Datalog text (every in-memory rule prints back to
parseable syntax), so arbitrary semantic rules survive the round trip.

Instance data has one wire encoding, the registration's ``<facts>``
element (:mod:`repro.core.registration`), whose typed arguments keep
booleans and numbers exact.  A ``<cm>`` carries none: encoding a model
that holds data facts, or decoding a ``<cm>`` with a ``<data>`` child,
raises :class:`~repro.errors.XMLTransportError` rather than dropping
the data.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from ..errors import XMLTransportError
from ..gcm.model import ConceptualModel


def cm_to_element(cm):
    """Encode the schema and rules of a :class:`ConceptualModel` as an
    Element tree; raises :class:`~repro.errors.XMLTransportError` when
    the model holds data facts (instance data travels in ``<facts>``)."""
    data = cm.data_rules()
    if data:
        raise XMLTransportError(
            "<cm> %s holds %d data facts: instance data travels in a "
            "registration's <facts>, not in <cm>" % (cm.name, len(data))
        )
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
    return root


def cm_from_element(root):
    """Decode an Element tree into a :class:`ConceptualModel`."""
    if root.tag != "cm":
        raise XMLTransportError("expected <cm> root, found <%s>" % root.tag)
    name = root.get("name")
    if not name:
        raise XMLTransportError("<cm> requires a name attribute")
    if root.find("data") is not None:
        raise XMLTransportError(
            "<cm> %s has a <data> element: instance data travels in a "
            "registration's <facts>, not in <cm>" % name
        )
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
    return cm


def _require(element, attribute):
    value = element.get(attribute)
    if value is None:
        raise XMLTransportError(
            "<%s> requires attribute %r" % (element.tag, attribute)
        )
    return value
