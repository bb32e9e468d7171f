"""The registration protocol: sources joining the mediated system.

"At runtime, a wrapped source S can join the mediated system by
registering its conceptual model CM(S) with the mediator M.  This
requires that S sends the mediator descriptions of the exported class
schemas, relationship schemas, and semantic rules ... Apart from this
schema level information, S also transmits a description of its query
capabilities" (Section 2).  Registration may also refine the domain
map (Figure 3) and anchor the source's classes in it.

Everything crosses the wire as XML.  :func:`build_registration`
assembles the message from a wrapper; :func:`parse_registration`
decodes it on the mediator side.  (In-process mediation keeps a handle
to the wrapper object for query pushdown — the XML round trip is the
fidelity guarantee that *all* schema-level information survives the
wire, which the Figure 2 benchmark exercises.)
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import RegistrationError, XMLTransportError
from ..datalog.ast import Atom, Rule
from ..datalog.terms import Const, Struct
from ..sources.capabilities import BindingPattern, ClassCapability, QueryTemplate
from ..xmlio.doc import element_value, parse_xml, serialize, value_element
from ..xmlio.gcm_xml import cm_from_element, cm_to_element


class ParsedRegistration:
    """The mediator-side decoding of a registration message."""

    def __init__(self, source, cm, capabilities, anchors, refinement, facts):
        self.source = source
        self.cm = cm
        self.capabilities: Dict[str, ClassCapability] = capabilities
        self.anchors: List[Tuple[str, str, Optional[str]]] = anchors
        self.refinement: Optional[str] = refinement
        self.facts: List[Rule] = facts

    def __repr__(self):
        return "ParsedRegistration(%r, classes=%d, anchors=%d, facts=%d)" % (
            self.source,
            len(self.capabilities),
            len(self.anchors),
            len(self.facts),
        )


def build_registration(wrapper, include_data=False, dm_refinement=None):
    """Build the XML registration message for a wrapper.

    Args:
        include_data: also ship the lifted instance data (eager mode).
        dm_refinement: DL axiom text refining the mediator's domain map
            (the Figure 3 ``MyNeuron``/``MyDendrite`` mechanism).
    """
    root = ET.Element("register", {"source": wrapper.name})
    root.append(cm_to_element(wrapper.schema_cm()))

    caps_el = ET.SubElement(root, "capabilities")
    for class_name in sorted(wrapper.capabilities()):
        capability = wrapper.capabilities()[class_name]
        class_el = ET.SubElement(
            caps_el,
            "class",
            {
                "name": class_name,
                "scannable": "true" if capability.scannable else "false",
                "attributes": ",".join(capability.attributes),
            },
        )
        if capability.key is not None:
            class_el.set("key", str(capability.key))
        for pattern in capability.binding_patterns:
            pattern_el = ET.SubElement(class_el, "pattern")
            pattern_el.text = pattern.pattern
        for template_name in sorted(capability.templates):
            template = capability.templates[template_name]
            attrs = {
                "name": template.name,
                "params": ",".join(template.parameters),
            }
            if template.description:
                attrs["description"] = template.description
            ET.SubElement(class_el, "template", attrs)

    anchors_el = ET.SubElement(root, "anchors")
    for class_name, concept, context in wrapper.anchors():
        attrs = {"class": class_name, "concept": concept}
        if context:
            attrs["context"] = context
        ET.SubElement(anchors_el, "anchor", attrs)

    if dm_refinement:
        refinement_el = ET.SubElement(root, "dm-refinement")
        refinement_el.text = dm_refinement

    if include_data:
        data_el = ET.SubElement(root, "facts")
        for fact in wrapper.export_all_facts():
            fact_el = ET.SubElement(data_el, "fact", {"pred": fact.head.pred})
            for arg in fact.head.args:
                fact_el.append(_arg_element(arg))
    return serialize(root)


def _arg_element(term):
    """One ground fact argument as a typed ``<arg>``: a constant keeps
    its Python type (Datalog text would reparse ``True`` as a variable),
    and a Skolem term nests its arguments under ``functor=``."""
    if isinstance(term, Struct):
        element = ET.Element("arg", {"functor": term.functor})
        for arg in term.args:
            element.append(_arg_element(arg))
        return element
    return value_element("arg", term.value)


def _arg_term(element):
    """Inverse of :func:`_arg_element`."""
    functor = element.get("functor")
    if functor is None:
        return Const(element_value(element))
    args = tuple(_arg_term(arg) for arg in element.findall("arg"))
    return Struct(functor, args)


def parse_registration(text):
    """Decode a registration message into a :class:`ParsedRegistration`."""
    root = parse_xml(text)
    if root.tag != "register":
        raise RegistrationError(
            "expected <register> message, found <%s>" % root.tag
        )
    source = root.get("source")
    if not source:
        raise RegistrationError("<register> requires a source attribute")

    cm_el = root.find("cm")
    if cm_el is None:
        raise RegistrationError("registration from %r has no <cm>" % source)
    cm = cm_from_element(cm_el)

    capabilities: Dict[str, ClassCapability] = {}
    caps_el = root.find("capabilities")
    if caps_el is None:
        # every wrapper "transmits a description of its query
        # capabilities" (Section 2); a message without the section is
        # truncated or corrupted, not a capability-free source
        raise XMLTransportError(
            "registration from %r has no <capabilities> section" % source
        )
    for class_el in caps_el.findall("class"):
        class_name = class_el.get("name")
        attributes = [
            a for a in (class_el.get("attributes") or "").split(",") if a
        ]
        capability = ClassCapability(
            class_name,
            attributes,
            key=class_el.get("key"),
            scannable=class_el.get("scannable") != "false",
        )
        for pattern_el in class_el.findall("pattern"):
            capability.binding_patterns.append(
                BindingPattern(attributes, pattern_el.text or "")
            )
        for template_el in class_el.findall("template"):
            params = [
                p
                for p in (template_el.get("params") or "").split(",")
                if p
            ]
            capability.add_template(
                QueryTemplate(
                    template_el.get("name"),
                    params,
                    template_el.get("description", ""),
                )
            )
        capabilities[class_name] = capability

    anchors: List[Tuple[str, str, Optional[str]]] = []
    anchors_el = root.find("anchors")
    if anchors_el is not None:
        for anchor_el in anchors_el.findall("anchor"):
            anchors.append(
                (
                    anchor_el.get("class"),
                    anchor_el.get("concept"),
                    anchor_el.get("context"),
                )
            )

    refinement_el = root.find("dm-refinement")
    refinement = refinement_el.text if refinement_el is not None else None

    facts: List[Rule] = []
    data_el = root.find("facts")
    if data_el is not None:
        for fact_el in data_el.findall("fact"):
            pred = fact_el.get("pred")
            if not pred:
                raise XMLTransportError("<fact> requires a pred attribute")
            args = tuple(_arg_term(arg_el) for arg_el in fact_el.findall("arg"))
            facts.append(Rule(Atom(pred, args)))

    return ParsedRegistration(source, cm, capabilities, anchors, refinement, facts)
