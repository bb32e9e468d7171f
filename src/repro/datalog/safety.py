"""Safety (range restriction) analysis for rules.

A rule is *safe* when every variable it uses can be bound by the time it
is needed:

* head variables must be limited — bound by a positive body literal, an
  ``=`` chain to a constant/limited variable, an ``is`` assignment over
  limited variables, or an aggregate result/grouping variable;
* variables under negation must be limited by the positive part;
* non-``=`` comparisons and arithmetic need all their variables limited;
* inside an aggregate subgoal the value and grouping variables must be
  limited by the subgoal's own positive part (the subgoal is evaluated
  as its own little rule body).

The check runs before evaluation; unsafe rules raise
:class:`~repro.errors.SafetyError` with a message naming the offending
variables, which keeps mistakes in hand-written mediator rules easy to
diagnose.  :func:`safety_violations` is the non-raising form used by
the static analyzer (:mod:`repro.analysis`): it collects *every*
violation of a rule as unraised :class:`SafetyError` objects, each
carrying the ``MBM001``–``MBM004`` code of the violated condition, so
one lint pass reports all problems instead of the first.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from ..errors import SafetyError
from .ast import AggregateLiteral, Assignment, Comparison, Literal, Rule
from .terms import Const, Struct, Term, Var

#: diagnostic codes of the individual safety conditions
CODE_HEAD_UNRESTRICTED = "MBM001"
CODE_NEGATION_UNBOUND = "MBM002"
CODE_BUILTIN_UNBOUND = "MBM003"
CODE_AGGREGATE_UNSAFE = "MBM004"


def _term_vars(term):
    return set(term.variables())


def _limited_variables(body):
    """Compute the limited-variable set of a body by fixpoint.

    Starts from variables of positive literals and aggregate outputs,
    then propagates through ``=`` comparisons and ``is`` assignments
    until stable.
    """
    limited: Set[Var] = set()
    for item in body:
        if isinstance(item, Literal) and item.positive:
            limited |= set(item.atom.variables())
        elif isinstance(item, AggregateLiteral):
            # Grouping variables are bound by the grouped solutions and
            # the result is bound by the aggregate itself.
            limited |= _term_vars(item.result)
            for g in item.group_by:
                limited |= _term_vars(g)
    changed = True
    while changed:
        changed = False
        for item in body:
            if isinstance(item, Comparison) and item.op == "=":
                left_vars = _term_vars(item.left)
                right_vars = _term_vars(item.right)
                if item.left.is_ground() or left_vars <= limited:
                    if not right_vars <= limited:
                        limited |= right_vars
                        changed = True
                if item.right.is_ground() or right_vars <= limited:
                    if not left_vars <= limited:
                        limited |= left_vars
                        changed = True
            elif isinstance(item, Assignment):
                if _term_vars(item.expr) <= limited:
                    target_vars = _term_vars(item.target)
                    if not target_vars <= limited:
                        limited |= target_vars
                        changed = True
    return limited


def safety_violations(rule):
    """Every safety violation of `rule`, as unraised errors.

    Yields :class:`SafetyError` objects in source order (head first,
    then body items left to right), each with the specific diagnostic
    code of the violated condition.  An empty result means the rule is
    safe.  A ground fact is safe at once, so it skips the analysis:
    the facts lifted from source rows are all ground.
    """
    if not rule.body and rule.head.is_ground():
        return
    limited = _limited_variables(rule.body)

    head_vars = set(rule.head.variables())
    unbound_head = head_vars - limited
    if unbound_head:
        yield SafetyError(
            "unsafe rule %s: head variables %s are not range-restricted"
            % (rule, _names(unbound_head)),
            code=CODE_HEAD_UNRESTRICTED,
        )

    for item in rule.body:
        if isinstance(item, Literal) and not item.positive:
            neg_vars = set(item.atom.variables())
            free = {v for v in neg_vars - limited if not v.is_anonymous}
            if free:
                yield SafetyError(
                    "unsafe rule %s: variables %s occur only under negation"
                    % (rule, _names(free)),
                    code=CODE_NEGATION_UNBOUND,
                )
        elif isinstance(item, Comparison) and item.op != "=":
            cmp_vars = set(item.variables())
            free = cmp_vars - limited
            if free:
                yield SafetyError(
                    "unsafe rule %s: comparison %s uses unbound variables %s"
                    % (rule, item, _names(free)),
                    code=CODE_BUILTIN_UNBOUND,
                )
        elif isinstance(item, Assignment):
            free = _term_vars(item.expr) - limited
            if free:
                yield SafetyError(
                    "unsafe rule %s: arithmetic %s uses unbound variables %s"
                    % (rule, item, _names(free)),
                    code=CODE_BUILTIN_UNBOUND,
                )
        elif isinstance(item, AggregateLiteral):
            yield from _aggregate_violations(rule, item)


def _aggregate_violations(rule, agg):
    inner_limited = _limited_variables(agg.body)
    value_vars = _term_vars(agg.value)
    free_value = value_vars - inner_limited
    if free_value:
        yield SafetyError(
            "unsafe rule %s: aggregate value variables %s not bound by "
            "the aggregate body" % (rule, _names(free_value)),
            code=CODE_AGGREGATE_UNSAFE,
        )
    for g in agg.group_by:
        free_group = _term_vars(g) - inner_limited
        if free_group:
            yield SafetyError(
                "unsafe rule %s: aggregate grouping variables %s not bound "
                "by the aggregate body" % (rule, _names(free_group)),
                code=CODE_AGGREGATE_UNSAFE,
            )
    if not isinstance(agg.result, Var):
        yield SafetyError(
            "unsafe rule %s: aggregate result %s must be a variable"
            % (rule, agg.result),
            code=CODE_AGGREGATE_UNSAFE,
        )
    for item in agg.body:
        if isinstance(item, Literal) and not item.positive:
            yield SafetyError(
                "unsafe rule %s: negation inside aggregate subgoals is not "
                "supported" % rule,
                code=CODE_AGGREGATE_UNSAFE,
            )
        if isinstance(item, AggregateLiteral):
            yield SafetyError(
                "unsafe rule %s: nested aggregates are not supported" % rule,
                code=CODE_AGGREGATE_UNSAFE,
            )


def check_rule_safety(rule):
    """Validate one rule; raises :class:`SafetyError` on violation."""
    for violation in safety_violations(rule):
        raise violation


def check_program_safety(program):
    """Validate every rule of a program."""
    for rule in program:
        check_rule_safety(rule)


def _names(variables):
    return ", ".join(sorted(v.name for v in variables))
