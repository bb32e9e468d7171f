"""medlint pass 1: static analysis of Datalog rule programs.

Everything here works on :class:`~repro.datalog.ast.Rule` objects
without evaluating them:

* **safety** — range restriction, negation and aggregate safety, with
  precise variable blame (reusing
  :func:`repro.datalog.safety.safety_violations`, so lint findings and
  the engine's runtime errors can never disagree);
* **stratification** — negation through recursion is a warning (the
  engine falls back to the well-founded semantics), aggregation through
  recursion an error (reusing
  :func:`repro.datalog.stratify.analyze_stratification`);
* **references** — undefined predicates (used but never derivable),
  unused predicates (derived but never read and not an entry point),
  and predicates used with several arities (a likely typo: signatures
  are (name, arity) pairs, so ``p/2`` and ``p/3`` never join).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..datalog.ast import AggregateLiteral, Literal, Program, Rule
from ..datalog.parser import parse_program
from ..datalog.safety import safety_violations
from ..datalog.stratify import (
    aggregate_recursion_message,
    analyze_stratification,
    negation_recursion_message,
)
from ..errors import Span
from .catalog import diagnostic

#: predicates populated by source lifting, registration, or the engine's
#: axioms — legitimately referenced even when no rule in the analyzed
#: program derives them, and legitimately derived without a reader.
INTERFACE_PREDICATES = frozenset(
    {
        "instance",
        "method_inst",
        "method_val",
        "method",
        "default_val",
        "class",
        "subclass",
        "role_fact",
        "role_asserted",
        "role_inst",
        "relation_sig",
        "anchor",
        "dist_row",
        "inherits",
        "shadowed",
        "ic",
    }
)


def safety_diagnostics(rules, origin="program"):
    """MBM001–MBM004: every safety violation of every rule."""
    out = []
    for rule in rules:
        for violation in safety_violations(rule):
            out.append(
                diagnostic(
                    violation.code,
                    str(violation),
                    span=Span(origin, detail=str(rule)),
                )
            )
    return out


def stratification_diagnostics(program, origin="program"):
    """MBM005 (warning) and MBM006 (error) for recursive special edges."""
    report = analyze_stratification(program)
    out = []
    for head_sig, dep_sig in report.negative_recursive:
        out.append(
            diagnostic(
                "MBM005",
                negation_recursion_message(head_sig, dep_sig),
                span=Span(origin),
            )
        )
    for head_sig, dep_sig in report.aggregate_recursive:
        out.append(
            diagnostic(
                "MBM006",
                aggregate_recursion_message(head_sig, dep_sig),
                span=Span(origin),
            )
        )
    return out


def _body_literals(rule):
    """Every relational literal a rule reads, aggregate bodies included."""
    for item in rule.body:
        if isinstance(item, Literal):
            yield item
        elif isinstance(item, AggregateLiteral):
            for inner in item.body:
                if isinstance(inner, Literal):
                    yield inner


def reference_diagnostics(
    program,
    origin="program",
    known_predicates=(),
    entry_points=(),
):
    """MBM007/MBM008/MBM009: the predicate cross-reference checks.

    Args:
        known_predicates: predicate *names* defined outside the analyzed
            rules (runtime-lifted data, engine axioms); suppresses both
            undefined and unused findings for them.
        entry_points: predicate names queried from outside (exported
            views, interface relations); suppresses unused findings.
    """
    known = set(known_predicates) | set(INTERFACE_PREDICATES)
    exported = set(entry_points) | known

    defined: Set[Tuple[str, int]] = set()
    used: Dict[Tuple[str, int], Rule] = {}
    for rule in program:
        defined.add(rule.head.signature)
        for literal in _body_literals(rule):
            used.setdefault(literal.atom.signature, rule)

    out = []
    for sig in sorted(used):
        pred, arity = sig
        if sig in defined or pred in known or pred.startswith("_"):
            continue
        out.append(
            diagnostic(
                "MBM007",
                "predicate %s/%d is used but never defined by any rule, "
                "fact, or registered source" % (pred, arity),
                span=Span(origin, detail=str(used[sig])),
            )
        )

    idb = {rule.head.signature for rule in program if not rule.is_fact}
    read = set(used)
    for pred, arity in sorted(idb - read):
        if pred in exported or pred.startswith("_"):
            continue
        out.append(
            diagnostic(
                "MBM008",
                "predicate %s/%d is defined but never used by any rule "
                "body or exported view" % (pred, arity),
                span=Span(origin),
            )
        )

    arities: Dict[str, Set[int]] = {}
    for pred, arity in defined | read:
        arities.setdefault(pred, set()).add(arity)
    for pred in sorted(arities):
        if len(arities[pred]) > 1 and not pred.startswith("_"):
            out.append(
                diagnostic(
                    "MBM009",
                    "predicate %r is used with several arities (%s); "
                    "signatures with different arities never join"
                    % (pred, ", ".join(str(a) for a in sorted(arities[pred]))),
                    span=Span(origin),
                )
            )
    return out


def analyze_program(
    rules,
    origin="program",
    known_predicates=(),
    entry_points=(),
):
    """All rule-program diagnostics for `rules` (text, Program, or
    iterable of Rules); returns a plain diagnostic list."""
    if isinstance(rules, str):
        rules = parse_program(rules)
    program = rules if isinstance(rules, Program) else Program(rules)
    out = safety_diagnostics(program, origin)
    out.extend(stratification_diagnostics(program, origin))
    out.extend(
        reference_diagnostics(
            program,
            origin,
            known_predicates=known_predicates,
            entry_points=entry_points,
        )
    )
    return out
