"""The medlint diagnostic catalog: every ``MBM0xx`` code in one place.

Codes are stable API: tools and CI configurations may filter on them,
so a code is never renumbered or reused.  The catalog maps each code to
its default severity and a one-line title; :func:`diagnostic` is the
analyzer-side constructor that fills the severity in from here so the
passes only name the code.

Code blocks:

* ``MBM00x``  rule-program safety and stratification,
* ``MBM01x``  schema/sort consistency across GCM + translated rules,
* ``MBM02x``  domain-map structure,
* ``MBM03x``  views and capability feasibility,
* ``MBM04x``  capability/planning/registration runtime families,
* ``MBM09x``  parse/evaluation runtime families.
"""

from __future__ import annotations

from ..errors import (
    Diagnostic,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
)

#: code -> (default severity, title)
CATALOG = {
    "MBM000": (SEVERITY_ERROR, "unclassified library error"),
    # -- rule programs ---------------------------------------------------
    "MBM001": (SEVERITY_ERROR, "head variables not range-restricted"),
    "MBM002": (SEVERITY_ERROR, "variables occur only under negation"),
    "MBM003": (SEVERITY_ERROR, "comparison/arithmetic over unbound variables"),
    "MBM004": (SEVERITY_ERROR, "unsafe aggregate subgoal"),
    "MBM005": (SEVERITY_WARNING, "negation through recursion (well-founded fallback)"),
    "MBM006": (SEVERITY_ERROR, "aggregation through recursion"),
    "MBM007": (SEVERITY_WARNING, "undefined predicate"),
    "MBM008": (SEVERITY_INFO, "unused predicate"),
    "MBM009": (SEVERITY_WARNING, "predicate used with multiple arities"),
    # -- schemas / sorts -------------------------------------------------
    "MBM010": (SEVERITY_WARNING, "method result sort is not declared"),
    "MBM011": (SEVERITY_ERROR, "malformed CM schema declaration"),
    # -- domain maps -----------------------------------------------------
    "MBM020": (SEVERITY_ERROR, "reference to an undeclared concept"),
    "MBM021": (SEVERITY_ERROR, "isa cycle in the domain map"),
    "MBM022": (SEVERITY_INFO, "isolated concept (participates in no axiom)"),
    "MBM023": (SEVERITY_ERROR, "circular concept definition through eqv/and edges"),
    "MBM024": (SEVERITY_ERROR, "anchor references a missing concept"),
    "MBM025": (SEVERITY_ERROR, "reference to an undeclared role"),
    # -- views / capabilities -------------------------------------------
    "MBM030": (SEVERITY_ERROR, "dead view: references a class no source exports and no rule defines"),
    "MBM031": (SEVERITY_ERROR, "unanswerable class capability (not scannable, no binding patterns)"),
    "MBM032": (SEVERITY_WARNING, "dangling declared dependency or template parameter"),
    "MBM033": (SEVERITY_ERROR, "distribution view over a missing class or attribute"),
    # -- runtime families ------------------------------------------------
    "MBM040": (SEVERITY_ERROR, "capability violation"),
    "MBM041": (SEVERITY_ERROR, "invalid binding pattern declaration"),
    "MBM042": (SEVERITY_ERROR, "planning failure"),
    "MBM043": (SEVERITY_ERROR, "registration rejected"),
    "MBM045": (SEVERITY_ERROR, "source call timed out"),
    "MBM046": (SEVERITY_ERROR, "circuit breaker open (source shed)"),
    "MBM090": (SEVERITY_ERROR, "parse error"),
    "MBM091": (SEVERITY_ERROR, "evaluation error"),
}


def severity_for(code):
    """Default severity of a code (errors for unknown codes)."""
    return CATALOG.get(code, (SEVERITY_ERROR, ""))[0]


def title_for(code):
    """One-line title of a code ("" for unknown codes)."""
    return CATALOG.get(code, (SEVERITY_ERROR, ""))[1]


def diagnostic(code, message, span=None, severity=None):
    """Build a :class:`Diagnostic` with the catalog's default severity."""
    return Diagnostic(
        code,
        message,
        severity=severity if severity is not None else severity_for(code),
        span=span,
    )
