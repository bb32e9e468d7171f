"""medlint entry points: whole-deployment analysis and dispatch.

:func:`analyze` is the public API.  It accepts a
:class:`~repro.core.mediator.Mediator` (the interesting case: all three
passes run over the deployment), or a standalone
:class:`~repro.domainmap.model.DomainMap`, wrapper, rule text,
:class:`~repro.datalog.ast.Program`, or iterable of rules, and returns
a :class:`~repro.analysis.report.Report`.

Nothing in this module evaluates a program: the rule pass works on the
engine's *assembled* program (:meth:`FLogicEngine.program`), never on
its fixpoint.
"""

from __future__ import annotations

import contextlib
import io
import runpy
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..datalog.ast import Program, Rule
from ..errors import Span
from .caps import analyze_capabilities, analyze_views, template_diagnostics
from .catalog import diagnostic
from .dm import analyze_domain_map
from .report import Report
from .rules import analyze_program

#: result sorts the wrappers' schema lifting produces; always legal as a
#: method result class even though no CM declares them as classes.
BUILTIN_SORTS = frozenset(
    {"string", "integer", "float", "boolean", "number", "any", "object"}
)


def analyze(target, **kwargs):
    """Statically analyze `target`; returns a :class:`Report`.

    Dispatches on the target's type:

    * ``Mediator`` — full three-pass deployment lint (rule program,
      domain map, capability/view feasibility);
    * ``DomainMap`` — the domain-map pass only;
    * ``Wrapper`` — the exported CM(S), capabilities, and rules;
    * rule text / ``Program`` / iterable of ``Rule`` — the rule pass
      only (keyword arguments are passed to
      :func:`~repro.analysis.rules.analyze_program`).
    """
    from ..core.mediator import Mediator
    from ..domainmap.model import DomainMap
    from ..sources.wrapper import Wrapper

    if isinstance(target, Mediator):
        return analyze_mediator(target, **kwargs)
    if isinstance(getattr(target, "mediator", None), Mediator):
        # scenario-style holders (e.g. neuro.KindScenario)
        return analyze_mediator(target.mediator, **kwargs)
    if isinstance(target, DomainMap):
        return Report(
            analyze_domain_map(target, **kwargs),
            subject="domain map %s" % target.name,
        )
    if isinstance(target, Wrapper):
        return analyze_wrapper(target, **kwargs)
    if isinstance(target, (str, Program)) or _is_rule_iterable(target):
        origin = kwargs.pop("origin", "program")
        return Report(
            analyze_program(target, origin=origin, **kwargs),
            subject=origin,
        )
    raise TypeError(
        "cannot analyze %r: expected a Mediator, DomainMap, Wrapper, "
        "rule text, Program, or iterable of rules" % (target,)
    )


def _is_rule_iterable(target):
    try:
        items = list(target)
    except TypeError:
        return False
    return all(isinstance(item, Rule) for item in items)


def analyze_mediator(mediator):
    """All three medlint passes over a mediator's deployment."""
    subject = "mediator %s" % mediator.name
    report = Report(subject=subject)

    # -- pass 1: the assembled rule program (axioms included) -----------
    from ..flogic.engine import FLogicEngine

    engine = FLogicEngine()
    engine.tell_rules(mediator.assembled_rules(include_data=False))
    data_predicates = {
        rule.head.pred
        for rule in mediator.assembled_rules(include_data=True)
        if rule.is_fact
    }
    report.extend(
        analyze_program(
            engine.program(),
            origin=subject,
            known_predicates=data_predicates,
            entry_points=mediator.view_names(),
        )
    )

    # -- pass 2: the domain map -----------------------------------------
    anchors = registered_anchors(mediator)
    report.extend(analyze_domain_map(mediator.dm, anchors=anchors))

    # -- pass 3: capabilities and views ---------------------------------
    capabilities = {
        source: mediator.capabilities(source)
        for source in mediator.source_names()
    }
    report.extend(analyze_capabilities(capabilities))
    report.extend(analyze_views(mediator))
    for source in mediator.source_names():
        record = mediator._sources[source]
        report.extend(
            schema_sort_diagnostics(
                record.registration.cm, dm=mediator.dm, origin="source %s" % source
            )
        )
        if record.wrapper is not None:
            report.extend(
                template_diagnostics(
                    source,
                    capabilities[source],
                    getattr(record.wrapper, "_template_bodies", {}),
                )
            )
    return report


def registered_anchors(mediator):
    """(source, class_name, concept) anchor triples of a deployment."""
    anchors: List[Tuple[str, str, str]] = []
    for source in mediator.source_names():
        registration = mediator._sources[source].registration
        for class_name, concept, _context in registration.anchors:
            if concept is not None:
                anchors.append((source, class_name, concept))
    return anchors


def analyze_wrapper(wrapper):
    """Lint a standalone wrapper: its CM(S), capabilities, and rules."""
    subject = "source %s" % wrapper.name
    report = Report(subject=subject)
    cm = wrapper.schema_cm()
    capabilities = wrapper.capabilities()
    report.extend(schema_sort_diagnostics(cm, origin=subject))
    report.extend(analyze_capabilities({wrapper.name: capabilities}))
    report.extend(
        template_diagnostics(
            wrapper.name, capabilities, getattr(wrapper, "_template_bodies", {})
        )
    )
    report.extend(
        analyze_program(
            cm.all_rules(),
            origin=subject,
            known_predicates={"instance", "method_val"},
        )
    )
    return report


def schema_sort_diagnostics(cm, dm=None, origin=None):
    """MBM010: method result sorts that nothing declares.

    A result class must be a built-in sort, a class of the CM itself,
    or (when a domain map is given) a concept of the map; anything else
    is a typo the engine would silently treat as an empty class.
    """
    origin = origin or "cm %s" % cm.name
    known: Set[str] = set(BUILTIN_SORTS)
    known.update(cm.classes)
    if dm is not None:
        known.update(dm.concepts)
    out = []
    for class_name in sorted(cm.classes):
        class_def = cm.classes[class_name]
        for method_name in sorted(class_def.methods):
            method = class_def.methods[method_name]
            if method.result_class not in known:
                out.append(
                    diagnostic(
                        "MBM010",
                        "method %s.%s declares result sort %r, which is "
                        "neither a built-in sort, a class of %s, nor a "
                        "domain-map concept"
                        % (class_name, method_name, method.result_class, cm.name),
                        span=Span(origin, detail="%s.%s" % (class_name, method_name)),
                    )
                )
    return out


# -- strict-mode hooks (Mediator(strict=True)) --------------------------


def registration_diagnostics(mediator, registration):
    """Lint a parsed registration *before* the mediator applies it.

    The DM refinement is applied to a copy of the mediator's domain
    map, so a rejected registration leaves no trace.  Used by
    ``Mediator(strict=True).register``.
    """
    import copy

    from ..domainmap.registry import register_concepts
    from ..errors import ReproError

    origin = "source %s" % registration.source
    out: List = []
    dm_copy = copy.deepcopy(mediator.dm)
    if registration.refinement:
        try:
            register_concepts(
                dm_copy, registration.refinement, allow_new_roles=True
            )
        except ReproError as exc:
            if exc.span is None:
                exc.span = Span(origin, detail="dm refinement")
            out.append(exc.to_diagnostic())
            return out
    out.extend(
        analyze_capabilities({registration.source: registration.capabilities})
    )
    for class_name, concept, _context in registration.anchors:
        if concept is not None and concept not in dm_copy.concepts:
            out.append(
                diagnostic(
                    "MBM024",
                    "anchor of %s.%s references concept %r which is "
                    "missing from the domain map (even after the "
                    "registration's refinement)"
                    % (registration.source, class_name, concept),
                    span=Span(origin, detail=class_name),
                )
            )
    out.extend(
        schema_sort_diagnostics(registration.cm, dm=dm_copy, origin=origin)
    )
    from .rules import safety_diagnostics

    out.extend(
        safety_diagnostics(
            registration.cm.all_rules(), origin
        )
    )
    return out


def view_diagnostics(mediator, view):
    """Lint a view definition *before* the mediator accepts it.

    Used by ``Mediator(strict=True).add_view``; the same checks run
    deployment-wide in :func:`~repro.analysis.caps.analyze_views`.
    """
    from ..core.views import DistributionView, IntegratedView
    from ..errors import FLogicError, ParseError
    from .caps import (
        _distribution_view_diagnostics,
        _integrated_view_diagnostics,
        _view_rules,
        supplied_classes,
    )
    from .rules import safety_diagnostics

    origin = "view %s" % view.name
    supplied = supplied_classes(mediator)
    out: List = []
    if isinstance(view, IntegratedView):
        try:
            rules = _view_rules(view)
        except (FLogicError, ParseError) as exc:
            exc.span = Span(origin)
            return [exc.to_diagnostic()]
        out.extend(safety_diagnostics(rules, origin))
        out.extend(_integrated_view_diagnostics(view, supplied, origin))
    elif isinstance(view, DistributionView):
        out.extend(
            _distribution_view_diagnostics(mediator, view, supplied, origin)
        )
    return out


# -- linting deployment scripts -----------------------------------------


@contextlib.contextmanager
def capture_deployments():
    """Record every Mediator and DomainMap constructed in the block.

    Yields ``(mediators, domain_maps)``; domain maps owned by a
    captured mediator appear in both lists (lint the mediators, then
    the maps no mediator owns).
    """
    from ..core.mediator import Mediator
    from ..domainmap.model import DomainMap

    mediators: List = []
    domain_maps: List = []
    original_mediator_init = Mediator.__init__
    original_dm_init = DomainMap.__init__

    def mediator_init(self, *args, **kwargs):
        original_mediator_init(self, *args, **kwargs)
        mediators.append(self)

    def dm_init(self, *args, **kwargs):
        original_dm_init(self, *args, **kwargs)
        domain_maps.append(self)

    Mediator.__init__ = mediator_init
    DomainMap.__init__ = dm_init
    try:
        yield mediators, domain_maps
    finally:
        Mediator.__init__ = original_mediator_init
        DomainMap.__init__ = original_dm_init


def lint_path(path, quiet=True):
    """Run a Python deployment script and lint every mediator it builds.

    The script is executed as ``__main__`` (so ``if __name__ ==
    "__main__"`` blocks run and actually construct the deployment) with
    stdout suppressed unless ``quiet=False``.  Returns a
    :class:`Report` whose subject is the path.
    """
    report = Report(subject=str(path))
    with capture_deployments() as (mediators, domain_maps), contextlib.ExitStack() as stack:
        if quiet:
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        try:
            runpy.run_path(str(path), run_name="__main__")
        except Exception as exc:  # scripts can fail arbitrarily
            report.add(
                diagnostic(
                    "MBM000",
                    "script %s could not be linted: %s: %s"
                    % (path, type(exc).__name__, exc),
                    span=Span(str(path)),
                )
            )
            return report
    owned = {id(mediator.dm) for mediator in mediators}
    standalone = [dm for dm in domain_maps if id(dm) not in owned]
    if not mediators and not standalone:
        report.add(
            diagnostic(
                "MBM000",
                "script %s constructed no Mediator and no DomainMap; "
                "nothing to lint" % path,
                span=Span(str(path)),
                severity="warning",
            )
        )
        return report
    for mediator in mediators:
        report.extend(analyze_mediator(mediator))
    for dm in standalone:
        report.extend(analyze_domain_map(dm))
    return report
