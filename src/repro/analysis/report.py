"""Lint reports: ordered diagnostic collections with renderers."""

from __future__ import annotations

from typing import Iterable, List

from ..errors import (
    Diagnostic,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
)
from .catalog import title_for


class Report:
    """The outcome of one analysis run.

    Diagnostics keep insertion order internally; renderers sort by
    severity, then code, then span so output is deterministic.
    """

    def __init__(self, diagnostics=(), subject=None):
        self.subject = subject
        self.diagnostics: List[Diagnostic] = list(diagnostics)

    # -- collection -------------------------------------------------------

    def add(self, diagnostic):
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, diagnostics):
        self.diagnostics.extend(diagnostics)
        return self

    # -- slicing ----------------------------------------------------------

    def by_severity(self, severity):
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self):
        return self.by_severity(SEVERITY_ERROR)

    @property
    def warnings(self):
        return self.by_severity(SEVERITY_WARNING)

    @property
    def infos(self):
        return self.by_severity(SEVERITY_INFO)

    @property
    def has_errors(self):
        return bool(self.errors)

    def codes(self):
        """The distinct diagnostic codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def sorted_diagnostics(self):
        return sorted(self.diagnostics, key=lambda d: d.sort_key())

    # -- rendering --------------------------------------------------------

    def summary_line(self):
        subject = "%s: " % self.subject if self.subject else ""
        if not self.diagnostics:
            return "%sclean (no diagnostics)" % subject
        return "%s%d error(s), %d warning(s), %d info" % (
            subject,
            len(self.errors),
            len(self.warnings),
            len(self.infos),
        )

    def format_text(self, include_info=True, explain=False):
        """Human-readable multi-line rendering.

        With ``explain=True`` each line is followed by the catalog
        title of its code (useful the first time a code appears).
        """
        lines = []
        for diag in self.sorted_diagnostics():
            if not include_info and diag.severity == SEVERITY_INFO:
                continue
            lines.append(str(diag))
            if explain:
                title = title_for(diag.code)
                if title:
                    lines.append("    = %s" % title)
        lines.append(self.summary_line())
        return "\n".join(lines)

    def as_dict(self, include_info=True):
        """JSON-ready structure (``repro lint --json``)."""
        diagnostics = [
            d.as_dict()
            for d in self.sorted_diagnostics()
            if include_info or d.severity != SEVERITY_INFO
        ]
        return {
            "subject": self.subject,
            "diagnostics": diagnostics,
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "infos": len(self.infos),
            },
        }

    def __len__(self):
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __repr__(self):
        return "Report(%r, errors=%d, warnings=%d, infos=%d)" % (
            self.subject,
            len(self.errors),
            len(self.warnings),
            len(self.infos),
        )
