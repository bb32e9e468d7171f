"""Source substrate: relational stores, wrappers, query capabilities.

The paper's wrapped sources (SYNAPSE, NCMIR, SENSELAB, ANATOM) are lab
databases; this package provides the substitute substrate — an
in-memory relational store — plus the wrapper machinery that lifts rows
to conceptual models, declares anchor/context attributes, and
advertises query capabilities (binding patterns, query templates).
"""

from .capabilities import BindingPattern, ClassCapability, QueryTemplate
from .cm_source import CMWrapper, wrapper_from_cm
from .relstore import Column, DTYPES, RelStore, Table
from .wrapper import (
    AnchorSpec,
    ExportedClass,
    RoleLink,
    SourceQuery,
    Wrapper,
)

__all__ = [
    "AnchorSpec",
    "BindingPattern",
    "CMWrapper",
    "ClassCapability",
    "Column",
    "DTYPES",
    "ExportedClass",
    "QueryTemplate",
    "RelStore",
    "RoleLink",
    "SourceQuery",
    "Table",
    "Wrapper",
    "wrapper_from_cm",
]
