"""Datalog engine with well-founded negation and aggregates.

This package is the logical substrate of the reproduction: the paper's
generic conceptual model (GCM) requires "a declarative rule language
with an intuitive semantics that expresses precisely FO(LFP)", namely
*Datalog with well-founded negation* (Section 3).  Everything higher in
the stack — the F-logic front end, GCM constraints, domain-map edge
execution, integrated views — compiles to this dialect.

Quick use::

    from repro.datalog import evaluate, parse_atom, parse_program

    program = parse_program('''
        edge(a, b).  edge(b, c).
        tc(X, Y) :- edge(X, Y).
        tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ''')
    evaluate(program).store.contains(parse_atom("tc(a, c)"))
    # True
"""

from .ast import (
    AGGREGATE_FUNCS,
    COMPARISON_OPS,
    AggregateLiteral,
    Assignment,
    Atom,
    Comparison,
    Literal,
    Program,
    Rule,
    fact,
)
from .engine import (
    DEFAULT_MAX_FACTS,
    EvaluationResult,
    evaluate,
    match_atom,
    well_founded_model,
)
from .magic import magic_query, magic_transform
from .provenance import Derivation, explain
from .parser import parse_atom, parse_program
from .safety import check_program_safety, check_rule_safety
from .store import FactStore
from .stratify import (
    build_dependency_graph,
    is_aggregate_stratified,
    stratify,
)
from .terms import (
    Const,
    Struct,
    Term,
    Var,
    coerce_term,
    substitute,
    term_sort_key,
    unify,
    walk,
)

__all__ = [
    "AGGREGATE_FUNCS",
    "COMPARISON_OPS",
    "AggregateLiteral",
    "Assignment",
    "Atom",
    "Comparison",
    "Const",
    "DEFAULT_MAX_FACTS",
    "Derivation",
    "EvaluationResult",
    "FactStore",
    "Literal",
    "Program",
    "Rule",
    "Struct",
    "Term",
    "Var",
    "build_dependency_graph",
    "check_program_safety",
    "check_rule_safety",
    "coerce_term",
    "evaluate",
    "explain",
    "fact",
    "is_aggregate_stratified",
    "magic_query",
    "magic_transform",
    "match_atom",
    "parse_atom",
    "parse_program",
    "stratify",
    "substitute",
    "term_sort_key",
    "unify",
    "walk",
    "well_founded_model",
]
