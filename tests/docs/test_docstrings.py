"""Docstring audit for the public API re-exported from ``repro``.

Every class in ``repro.__all__`` must carry a non-trivial docstring,
and every parameter of its ``__init__`` and public methods must be
mentioned — by name — in the method's (or the owning class's)
docstring.  The audit is a CI gate: adding a parameter without
documenting it fails here, not in review.
"""

import inspect
import re

import repro

PUBLIC_CLASSES = sorted(
    name
    for name in repro.__all__
    if inspect.isclass(getattr(repro, name))
)

#: extra entry points the issue calls out by name: the mediator verbs
#: a deployment actually touches must document every parameter
AUDITED_METHODS = {
    "Mediator": [
        "__init__",
        "ask",
        "correlate",
        "explain",
        "register",
        "source_query",
    ],
    "AnswerCache": ["__init__", "lookup", "store_answer", "invalidate"],
    "ResiliencePolicy": ["__init__"],
    "CorrelationQuery": ["__init__"],
}


def params_of(func):
    """Documentable parameter names (no self/*args/**kwargs)."""
    out = []
    for name, param in inspect.signature(func).parameters.items():
        if name == "self" or param.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        out.append(name)
    return out


def documented_in(name, *docs):
    pattern = re.compile(r"\b%s\b" % re.escape(name))
    return any(doc and pattern.search(doc) for doc in docs)


def audit(cls, method_names):
    """Return human-readable misses for one class."""
    misses = []
    class_doc = inspect.getdoc(cls)
    if not class_doc or len(class_doc.strip()) < 20:
        misses.append("%s: class docstring missing or trivial" % cls.__name__)
        class_doc = ""
    for method_name in method_names:
        method = getattr(cls, method_name)
        method_doc = inspect.getdoc(method)
        # __init__ params are conventionally documented on the class
        if method_name != "__init__" and not method_doc:
            misses.append(
                "%s.%s: no docstring" % (cls.__name__, method_name)
            )
            continue
        for param in params_of(method):
            if not documented_in(param, method_doc, class_doc):
                misses.append(
                    "%s.%s: parameter %r undocumented"
                    % (cls.__name__, method_name, param)
                )
    return misses


def test_all_public_classes_are_audited():
    assert PUBLIC_CLASSES == sorted(AUDITED_METHODS), (
        "repro.__all__ classes and the audit table drifted apart — "
        "add the new class (and its key methods) to AUDITED_METHODS"
    )


def test_public_docstrings_are_parameter_complete():
    misses = []
    for name in PUBLIC_CLASSES:
        misses.extend(audit(getattr(repro, name), AUDITED_METHODS[name]))
    assert not misses, "undocumented public API:\n  " + "\n  ".join(misses)


def test_package_docstring_maps_the_layout():
    doc = repro.__doc__ or ""
    for module in (
        "repro.obs",
        "repro.datalog",
        "repro.flogic",
        "repro.domainmap",
        "repro.sources",
        "repro.core",
        "repro.neuro",
    ):
        assert module in doc, "package docstring lost the %s entry" % module
