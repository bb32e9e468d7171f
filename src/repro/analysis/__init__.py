"""medlint: whole-deployment static analysis (``repro lint``).

Three passes over a model-based mediation deployment, none of which
evaluates anything:

1. rule programs — safety/range restriction, stratification,
   predicate cross-reference (:mod:`repro.analysis.rules`);
2. domain maps — dangling vocabulary, isa cycles, circular eqv
   definitions, isolated concepts, anchors (:mod:`repro.analysis.dm`);
3. capabilities and views — unanswerable classes, dead views,
   distribution-view feasibility (:mod:`repro.analysis.caps`).

Diagnostics carry stable ``MBM0xx`` codes (:mod:`repro.analysis.
catalog`); :func:`analyze` dispatches on what you hand it.
"""

from .caps import (
    analyze_capabilities,
    analyze_views,
    supplied_classes,
    template_diagnostics,
)
from .catalog import CATALOG, diagnostic, severity_for, title_for
from .deploy import (
    analyze,
    analyze_mediator,
    analyze_wrapper,
    capture_deployments,
    lint_path,
    registered_anchors,
    registration_diagnostics,
    schema_sort_diagnostics,
    view_diagnostics,
)
from .dm import analyze_domain_map
from .report import Report
from .rules import (
    INTERFACE_PREDICATES,
    analyze_program,
    reference_diagnostics,
    safety_diagnostics,
    stratification_diagnostics,
)

__all__ = [
    "CATALOG",
    "INTERFACE_PREDICATES",
    "Report",
    "analyze",
    "analyze_capabilities",
    "analyze_domain_map",
    "analyze_mediator",
    "analyze_program",
    "analyze_views",
    "analyze_wrapper",
    "capture_deployments",
    "diagnostic",
    "lint_path",
    "reference_diagnostics",
    "registered_anchors",
    "registration_diagnostics",
    "safety_diagnostics",
    "view_diagnostics",
    "schema_sort_diagnostics",
    "severity_for",
    "stratification_diagnostics",
    "supplied_classes",
    "template_diagnostics",
    "title_for",
]
