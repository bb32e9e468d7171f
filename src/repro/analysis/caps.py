"""medlint pass 3: capability feasibility and view liveness.

The planner pushes selections to sources at query time and fails deep
inside plan construction when no binding pattern covers them; these
checks surface the same defects at lint time, before any query runs:

* **unanswerable classes** — a capability that is not scannable and
  declares no binding pattern and no template can never be queried at
  all: neither browsing nor any pushed selection is possible;
* **malformed binding patterns** — flag strings whose length does not
  match the attribute list (each position must name an attribute);
* **dangling templates / view dependencies** — advertised templates
  with no registered implementation, and declared view dependencies
  that match no view, class, or concept;
* **dead views** — an integrated view whose body requires membership
  in a class that no registered source exports, no rule derives, and
  the domain map does not know: the view can never produce an answer;
* **distribution views** over a source class nobody exports, or whose
  group/value attributes the exporting capability does not carry.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..datalog.ast import Literal, Rule
from ..datalog.terms import Const
from ..errors import FLogicError, ParseError, Span
from .catalog import diagnostic


def analyze_capabilities(capabilities_by_source):
    """Diagnostics over ``{source: {class: ClassCapability}}``."""
    out = []
    for source in sorted(capabilities_by_source):
        for class_name in sorted(capabilities_by_source[source]):
            capability = capabilities_by_source[source][class_name]
            origin = "source %s" % source
            if (
                not capability.scannable
                and not capability.binding_patterns
                and not capability.templates
            ):
                out.append(
                    diagnostic(
                        "MBM031",
                        "class %r of source %s is not scannable and "
                        "declares no binding patterns and no templates; "
                        "no query can ever be answered from it"
                        % (class_name, source),
                        span=Span(origin, detail=class_name),
                    )
                )
            for pattern in capability.binding_patterns:
                foreign = [
                    attribute
                    for attribute in pattern.attributes
                    if attribute not in capability.attributes
                ]
                if foreign:
                    out.append(
                        diagnostic(
                            "MBM041",
                            "binding pattern %r of %s.%s is declared over "
                            "attributes %s that the class does not carry "
                            "(class attributes: %r)"
                            % (
                                pattern.pattern,
                                source,
                                class_name,
                                foreign,
                                list(capability.attributes),
                            ),
                            span=Span(origin, detail=class_name),
                        )
                    )
    return out


def template_diagnostics(source, capabilities, template_bodies):
    """MBM032 for templates a capability advertises but the wrapper
    never implemented (``add_template`` registers both; a capability
    record mutated directly can advertise a body-less template)."""
    out = []
    for class_name in sorted(capabilities):
        for template_name in sorted(capabilities[class_name].templates):
            if (class_name, template_name) not in template_bodies:
                out.append(
                    diagnostic(
                        "MBM032",
                        "template %r of %s.%s is advertised in the "
                        "capability record but has no implementation "
                        "registered at the wrapper"
                        % (template_name, source, class_name),
                        span=Span("source %s" % source, detail=template_name),
                    )
                )
    return out


def supplied_classes(mediator):
    """Every class name some part of the deployment can make instances
    of: wrapper-exported classes, CM-declared classes (and their
    superclasses, reachable through the subclass axiom), domain-map
    concepts, and classes derived by view/CM rules."""
    supplied: Set[str] = set(mediator.dm.concepts)
    for source in mediator.source_names():
        record_caps = mediator.capabilities(source)
        supplied.update(record_caps)
        cm = mediator._sources[source].registration.cm
        for class_def in cm.classes.values():
            supplied.add(class_def.name)
            supplied.update(class_def.superclasses)
    for rule in mediator.assembled_rules(include_data=False):
        supplied.update(_constant_instance_classes([rule.head]))
    return supplied


def _constant_instance_classes(atoms):
    for atom in atoms:
        if atom.pred == "instance" and len(atom.args) == 2:
            class_term = atom.args[1]
            if isinstance(class_term, Const) and isinstance(class_term.value, str):
                yield class_term.value


def _view_rules(view):
    """Translate an IntegratedView's F-logic text to Datalog rules."""
    # translate_rules already appends the auxiliary rules it synthesizes
    return view.datalog_rules()


def analyze_views(mediator):
    """Dead-view and distribution-view feasibility diagnostics."""
    from ..core.views import DistributionView, IntegratedView

    supplied = supplied_classes(mediator)
    out = []
    for name in mediator.view_names():
        view = mediator.view(name)
        origin = "view %s" % name
        if isinstance(view, IntegratedView):
            out.extend(_integrated_view_diagnostics(view, supplied, origin))
        elif isinstance(view, DistributionView):
            out.extend(
                _distribution_view_diagnostics(mediator, view, supplied, origin)
            )
        for dependency in getattr(view, "depends_on", ()):
            if dependency not in supplied and dependency not in mediator.view_names():
                out.append(
                    diagnostic(
                        "MBM032",
                        "view %r declares a dependency on %r, which is "
                        "neither a view, an exported class, nor a "
                        "domain-map concept" % (name, dependency),
                        span=Span(origin, detail=dependency),
                    )
                )
    return out


def _integrated_view_diagnostics(view, supplied, origin):
    try:
        rules = _view_rules(view)
    except (FLogicError, ParseError) as exc:
        exc.span = Span(origin)
        return [exc.to_diagnostic()]
    out = []
    heads = set(_constant_instance_classes([rule.head for rule in rules]))
    for rule in rules:
        body_atoms = [
            item.atom
            for item in rule.body
            if isinstance(item, Literal) and item.positive
        ]
        for class_name in _constant_instance_classes(body_atoms):
            if class_name in supplied or class_name in heads:
                continue
            out.append(
                diagnostic(
                    "MBM030",
                    "view %r requires instances of %r, but no registered "
                    "source exports that class, no rule derives it, and "
                    "the domain map does not declare it — the view can "
                    "never have answers" % (view.name, class_name),
                    span=Span(origin, detail=str(rule)),
                )
            )
    return out


def _distribution_view_diagnostics(mediator, view, supplied, origin):
    out = []
    exporters = [
        source
        for source in mediator.source_names()
        if view.source_class in mediator.capabilities(source)
    ]
    if not exporters:
        if view.source_class not in supplied:
            out.append(
                diagnostic(
                    "MBM033",
                    "distribution view %r aggregates over class %r, "
                    "which no registered source exports"
                    % (view.name, view.source_class),
                    span=Span(origin, detail=view.source_class),
                )
            )
    else:
        for source in exporters:
            capability = mediator.capabilities(source)[view.source_class]
            for attr_kind, attr in (
                ("group", view.group_attr),
                ("value", view.value_attr),
            ):
                if attr not in capability.attributes:
                    out.append(
                        diagnostic(
                            "MBM033",
                            "distribution view %r uses %s attribute %r, "
                            "which %s.%s does not carry"
                            % (view.name, attr_kind, attr, source, view.source_class),
                            span=Span(origin, detail=attr),
                        )
                    )
    if view.role not in mediator.dm.roles:
        out.append(
            diagnostic(
                "MBM025",
                "distribution view %r traverses role %r, which the "
                "domain map does not declare" % (view.name, view.role),
                span=Span(origin, detail=view.role),
            )
        )
    return out
