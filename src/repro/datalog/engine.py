"""Bottom-up evaluation: semi-naive, stratified, and well-founded.

The evaluator computes the minimal model of a safe program:

* **Stratified programs** are split into strata (:mod:`.stratify`) and
  each stratum is saturated by semi-naive iteration; negated and
  aggregated subgoals only ever reference relations completed in earlier
  strata, so they are evaluated against the accumulating store directly.
* **Non-stratifiable negation** falls back to the *alternating fixpoint*
  computation of the well-founded model (Van Gelder): a growing
  underestimate of true facts and a shrinking overestimate are iterated
  until both stabilize; facts in the overestimate but not the
  underestimate are *undefined*.  This is exactly the semantics the
  paper requires of the GCM rule language ("Datalog with well-founded
  negation", Section 3).

Rule bodies are greedily reordered at evaluation time so builtins and
negation run as soon as their variables are bound, which the safety
check guarantees is always eventually possible.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..errors import EvaluationError, StratificationError
from .ast import AggregateLiteral, Assignment, Atom, Comparison, Literal, Program, Rule
from .builtins import solve_assignment, solve_comparison
from .safety import check_program_safety
from .store import FactStore
from .stratify import is_aggregate_stratified, stratify
from .terms import Const, Struct, Term, Var, substitute, term_sort_key, unify, walk


class EvaluationResult:
    """Outcome of evaluating a program.

    Attributes:
        store: all facts that are *true* in the computed model.
        undefined: facts with *undefined* truth value (empty unless the
            program needed the well-founded fallback).
        used_well_founded: True when the alternating fixpoint ran.
        strata: the stratification used (None under the fallback).
        metrics: an :class:`~repro.obs.EvaluationMetrics` record (rule
            firings, per-stratum/round fact counts, the ``derived_at``
            map) — populated only when a tracer was active during
            evaluation, None otherwise.
        program: the evaluated rules, as a tuple (what
            ``evaluate(..., base=)`` continues from).
    """

    def __init__(self, store, undefined=None, used_well_founded=False, strata=None,
                 metrics=None, program=()):
        self.store = store
        self.undefined = undefined if undefined is not None else FactStore()
        self.used_well_founded = used_well_founded
        self.strata = strata
        self.metrics = metrics
        self.program = tuple(program)
        # the _Continuation of this model, built on first use
        self._continuation = None

    def is_true(self, atom):
        return self.store.contains(atom)

    def is_undefined(self, atom):
        return self.undefined.contains(atom)

    def facts(self, pred=None):
        return self.store.sorted_atoms(pred)


#: default ceiling on derived facts: compound (Skolem) terms make
#: non-terminating programs easy to write; hitting the ceiling raises a
#: diagnosable error instead of looping forever.
DEFAULT_MAX_FACTS = 2_000_000


def evaluate(program, check_safety=True, strategy="seminaive", max_facts=None,
             base=None):
    """Evaluate `program` and return an :class:`EvaluationResult`.

    Stratifiable programs get the stratified semi-naive treatment; with
    recursive negation the well-founded model is computed instead.
    Aggregation through recursion is always an error.

    `strategy` selects the fixpoint iteration: ``"seminaive"``
    (default) restricts recursive rules to the previous round's delta;
    ``"naive"`` re-fires every rule against the full store each round —
    kept for the ablation benchmark.

    `max_facts` bounds the derived-fact count (default
    :data:`DEFAULT_MAX_FACTS`); programs that create unboundedly many
    Skolem terms fail with :class:`EvaluationError` rather than running
    forever.

    `base`, an earlier result, makes `program` a list of rules to add to
    ``base.program``: the combined model is continued from `base` where
    that is sound (see :func:`_continue`), and `base` stays as it is.
    Only `program` is then checked for safety.
    """
    if strategy not in ("seminaive", "naive"):
        raise EvaluationError("unknown evaluation strategy %r" % strategy)
    if check_safety:
        check_program_safety(program)
    if base is not None:
        return _continue(base, list(program), strategy, max_facts)
    tracer = obs.active()
    metrics = obs.EvaluationMetrics() if tracer.enabled else None
    try:
        strata = stratify(program)
    except StratificationError:
        if not is_aggregate_stratified(program):
            raise
        true_store, undefined = well_founded_model(
            program, check_safety=False, metrics=metrics
        )
        if metrics is not None:
            metrics.store_size = len(true_store)
            metrics.undefined_count = len(undefined)
            tracer.count("datalog.evaluations")
        return EvaluationResult(
            true_store,
            undefined=undefined,
            used_well_founded=True,
            metrics=metrics,
            program=program,
        )
    store = FactStore()
    evaluator = _Evaluator(
        store,
        seminaive=(strategy == "seminaive"),
        max_facts=max_facts if max_facts is not None else DEFAULT_MAX_FACTS,
        tracer=tracer,
    )
    for index, stratum in enumerate(strata):
        rules = [r for r in program if r.head.signature in stratum]
        if metrics is None:
            evaluator.saturate(rules)
            continue
        stratum_metrics = metrics.begin_stratum(
            index, ("%s/%d" % sig for sig in stratum)
        )
        with tracer.span(
            "datalog.stratum", index=index, relations=len(stratum)
        ) as span:
            evaluator.saturate(
                rules,
                stratum_metrics=stratum_metrics,
                derived_at=metrics.derived_at,
            )
            span.set(
                facts_derived=stratum_metrics.facts_derived,
                rounds=len(stratum_metrics.rounds),
            )
    if metrics is not None:
        metrics.rule_firings = evaluator.rule_firings
        metrics.store_size = len(store)
        tracer.count("datalog.evaluations")
        tracer.count("datalog.rule_firings", evaluator.rule_firings)
        tracer.count("datalog.facts_derived", metrics.facts_derived)
        tracer.gauge("datalog.store_size", len(store))
    return EvaluationResult(store, strata=strata, metrics=metrics, program=program)


def _continue(base, extra, strategy, max_facts):
    """The model of ``base.program`` plus the rules `extra`, continued
    from the evaluated `base` instead of recomputed.

    The store of `base` is left untouched: the new model lives in a
    copy-on-write :meth:`FactStore.overlay` of it.  The extra facts are
    the delta.  Semi-naive rounds run stratum by stratum over the base
    rules, with every positive literal whose relation gained facts as a
    delta position; there is no first full pass.  Extra proper rules
    must define relations the base program neither defines nor
    references; they are stratified on their own and saturated after
    the base strata (by `strategy`; the base strata only ever see the
    new facts, so they always run semi-naive rounds).

    Continuing is unsound in some cases, and the whole combined program
    is evaluated instead.  The fallback reason is recorded on the
    ``datalog.continue`` span and counted in the ``datalog.fallbacks``
    counter:

    * ``well-founded`` — the base needed the well-founded semantics;
    * ``head-in-base`` — an extra rule's head relation is defined or
      referenced by the base program;
    * ``unstratified`` — the extra rules are not stratifiable on their
      own;
    * ``negation`` / ``aggregate`` — new facts reach a relation that a
      base rule negates or aggregates over.
    """
    tracer = obs.active()
    with tracer.span("datalog.continue", extra_rules=len(extra)) as span:
        if base.used_well_founded:
            reason = "well-founded"
        else:
            reason, result = _Continuation.of(base).run(
                extra, strategy, max_facts, tracer, span
            )
        if reason is None:
            return result
        span.set(fallback=reason)
        tracer.count("datalog.fallbacks", reason=reason)
        return evaluate(
            base.program + tuple(extra),
            check_safety=False,
            strategy=strategy,
            max_facts=max_facts,
        )


class _Continuation:
    """What continuing from one stratified model needs, computed once
    per :class:`EvaluationResult`."""

    def __init__(self, base):
        self.base = base
        program = base.program
        #: relations the base program defines or reads
        self.referenced = {rule.head.signature for rule in program}
        #: per base stratum: (ordered proper rules, relations read by
        #: a positive literal, {relation negated/aggregated: reason})
        self.strata = []
        for stratum in base.strata:
            rules = [
                _ordered_rule(rule, delta_first=True)
                for rule in program
                if rule.head.signature in stratum and not rule.is_fact
            ]
            triggers = {delta[0] for _rule, _body, deltas in rules for delta in deltas}
            guarded = {}
            for rule, _body, _deltas in rules:
                for item in rule.body:
                    if isinstance(item, Literal):
                        self.referenced.add(item.atom.signature)
                        if not item.positive:
                            guarded[item.atom.signature] = "negation"
                    elif isinstance(item, AggregateLiteral):
                        for inner in item.body:
                            if isinstance(inner, Literal):
                                self.referenced.add(inner.atom.signature)
                                guarded[inner.atom.signature] = "aggregate"
            self.strata.append((rules, triggers, guarded))

    @classmethod
    def of(cls, base):
        # concurrent first uses may each build one; either is correct
        if base._continuation is None:
            base._continuation = cls(base)
        return base._continuation

    def run(self, extra, strategy, max_facts, tracer, span):
        """``(None, result)``, or ``(fallback reason, None)``."""
        facts = [rule for rule in extra if rule.is_fact]
        proper = [rule for rule in extra if not rule.is_fact]
        if any(
            rule.head.signature in self.referenced for rule in proper
        ):
            return "head-in-base", None
        try:
            extra_strata = [
                stratum & {rule.head.signature for rule in proper}
                for stratum in stratify(proper)
            ]
        except StratificationError:
            return "unstratified", None
        extra_strata = [stratum for stratum in extra_strata if stratum]

        metrics = obs.EvaluationMetrics() if tracer.enabled else None
        derived_at = metrics.derived_at if metrics is not None else None
        store = self.base.store.overlay()
        evaluator = _Evaluator(
            store,
            seminaive=(strategy == "seminaive"),
            max_facts=max_facts if max_facts is not None else DEFAULT_MAX_FACTS,
            tracer=tracer,
        )
        gained = FactStore()
        for rule in facts:
            if store.add(rule.head):
                gained.add(rule.head)
        delta_in = len(gained)
        span.set(delta_in=delta_in)
        for index, (rules, triggers, guarded) in enumerate(self.strata):
            if not len(gained):
                break
            sigs = set(gained.signatures())
            for sig in sigs:
                if sig in guarded:
                    return guarded[sig], None
            if triggers.isdisjoint(sigs):
                continue
            stratum_metrics = None
            if metrics is not None:
                stratum_metrics = metrics.begin_stratum(
                    index, ("%s/%d" % sig for sig in self.base.strata[index])
                )
            evaluator.rounds(
                rules, gained, stratum_metrics, derived_at, gained=gained
            )
        offset = len(self.strata)
        for index, stratum in enumerate(extra_strata, start=offset):
            rules = [rule for rule in proper if rule.head.signature in stratum]
            stratum_metrics = None
            if metrics is not None:
                stratum_metrics = metrics.begin_stratum(
                    index, ("%s/%d" % sig for sig in stratum)
                )
            evaluator.saturate(rules, stratum_metrics, derived_at)
        if metrics is not None:
            metrics.rule_firings = evaluator.rule_firings
            metrics.store_size = len(store)
            span.set(facts_derived=len(store) - len(self.base.store) - delta_in)
            tracer.count("datalog.rule_firings", evaluator.rule_firings)
            tracer.count("datalog.facts_derived", metrics.facts_derived)
            tracer.gauge("datalog.store_size", len(store))
        return None, EvaluationResult(
            store,
            strata=self.base.strata + extra_strata,
            metrics=metrics,
            program=self.base.program + tuple(extra),
        )


def query(program, goal, check_safety=True):
    """Evaluate `program` and return all bindings of `goal`'s variables.

    `goal` is an :class:`Atom` (possibly with variables).  The result is
    a deterministically ordered list of dicts mapping variable names to
    Python values (Const payloads) or terms (for Struct results).
    """
    result = evaluate(program, check_safety=check_safety)
    return match_atom(result.store, goal)


def match_atom(store, goal):
    """All bindings of `goal` against a fact store (deterministic order)."""
    solutions = []
    for args in store.rows(goal.signature):
        subst = {}
        ok = True
        for pattern, ground in zip(goal.args, args):
            unified = unify(pattern, ground, subst)
            if unified is None:
                ok = False
                break
            subst = unified
        if ok:
            solutions.append(_externalize(subst, goal))
    solutions.sort(key=lambda binding: sorted(
        (name, _sort_key_for(value)) for name, value in binding.items()
    ))
    return solutions


def _sort_key_for(value):
    if isinstance(value, Term):
        return term_sort_key(value)
    return (0, type(value).__name__, repr(value))


def _externalize(subst, goal):
    binding = {}
    for v in set(goal.variables()):
        if v.is_anonymous:
            continue
        value = substitute(v, subst)
        if isinstance(value, Const):
            binding[v.name] = value.value
        else:
            binding[v.name] = value
    return binding


def well_founded_model(program, check_safety=True, max_rounds=10_000, metrics=None):
    """Compute the well-founded model by alternating fixpoint.

    Returns ``(true_store, undefined_store)``.  The iteration maintains
    an underestimate T (facts certainly true) and an overestimate U
    (facts not certainly false): ``T_{i+1} = Gamma(U_i)`` and
    ``U_{i+1} = Gamma(T_{i+1})`` where Gamma(J) evaluates the program
    with ``not q`` read as ``q not in J``.  T grows, U shrinks, and both
    converge because the ground instantiation is finite for safe,
    terminating programs.

    `metrics` is an optional :class:`~repro.obs.EvaluationMetrics`
    whose ``wf_alternations`` records how many T/U alternations ran.
    """
    if check_safety:
        check_program_safety(program)
    tracer = obs.active()
    rules = list(program)
    with tracer.span("datalog.wellfounded", rules=len(rules)) as wf_span:
        true_estimate = FactStore()  # T: certainly-true facts
        possible = _gamma(rules, FactStore())  # U_0 = Gamma(empty): everything possible
        alternations = 0
        for _round in range(max_rounds):
            with tracer.span("datalog.wf_round", round=_round):
                new_true = _gamma(rules, possible)
                new_possible = _gamma(rules, new_true)
            alternations += 1
            if new_true.same_facts(true_estimate) and new_possible.same_facts(possible):
                break
            true_estimate, possible = new_true, new_possible
        else:
            raise EvaluationError("well-founded computation did not converge")
        if metrics is not None:
            metrics.wf_alternations = alternations
        if tracer.enabled:
            wf_span.set(alternations=alternations)
            tracer.count("datalog.wf_alternations", alternations)
    undefined = FactStore()
    for atom in possible.iter_atoms():
        if not true_estimate.contains(atom):
            undefined.add(atom)
    return true_estimate, undefined


def _gamma(rules, anti_store):
    """Least model of `rules` with negation evaluated against `anti_store`."""
    store = FactStore()
    evaluator = _Evaluator(store, negation_store=anti_store)
    evaluator.saturate(rules)
    return store


class _Evaluator:
    """Semi-naive saturation of a rule set against a shared store.

    With `negation_store` set, negated subgoals are tested against that
    fixed store (well-founded Gamma operator); otherwise they read the
    accumulating store, which is only sound when the evaluated rules are
    a stratum whose negated dependencies are already complete.
    """

    def __init__(self, store, negation_store=None, seminaive=True, max_facts=None,
                 tracer=None):
        self.store = store
        self.negation_store = negation_store
        self.seminaive = seminaive
        self.max_facts = max_facts
        self.tracer = tracer if tracer is not None else obs.NOOP
        #: rule-instance firings (heads produced, pre-dedup); only
        #: counted while a stratum_metrics record is being filled
        self.rule_firings = 0

    def _check_budget(self):
        if self.max_facts is not None and len(self.store) > self.max_facts:
            raise EvaluationError(
                "evaluation exceeded max_facts=%d (non-terminating Skolem "
                "recursion?)" % self.max_facts
            )

    # -- saturation --------------------------------------------------

    def saturate(self, rules, stratum_metrics=None, derived_at=None):
        facts = [r for r in rules if r.is_fact]
        proper = [r for r in rules if not r.is_fact]
        collect = stratum_metrics is not None
        stratum_index = stratum_metrics.index if collect else 0
        delta = FactStore()
        for rule in facts:
            if self.store.add(rule.head):
                delta.add(rule.head)
                if collect and derived_at is not None:
                    derived_at.setdefault(rule.head, (stratum_index, 0))

        local_sigs = {r.head.signature for r in rules}
        ordered = [_ordered_rule(rule) for rule in proper]

        # First full pass: every rule against the complete store.  Heads
        # are buffered per rule so the store is never mutated while a
        # candidate set from the same relation is being iterated.
        for rule, body, _deltas in ordered:
            heads = [
                rule.head.substitute(subst)
                for subst in self._solve(body, 0, {}, None, None)
            ]
            if collect:
                self.rule_firings += len(heads)
            for head in heads:
                if not head.is_ground():
                    raise EvaluationError("derived non-ground fact %s" % head)
                if self.store.add(head):
                    delta.add(head)
                    if collect and derived_at is not None:
                        derived_at.setdefault(head, (stratum_index, 0))
        if collect:
            stratum_metrics.rounds.append(len(delta))
            stratum_metrics.facts_derived += len(delta)

        # Only rules reading a relation of this stratum can fire again.
        recursive = [
            entry
            for entry in ordered
            if any(delta[0] in local_sigs for delta in entry[2])
        ]

        if not self.seminaive:
            # Naive ablation: every recursive rule refires against the
            # full store each round until nothing new is derived.
            changed = bool(delta)
            round_no = 0
            while changed:
                changed = False
                round_no += 1
                derived_this_round = 0
                for rule, body, _deltas in recursive:
                    heads = [
                        rule.head.substitute(subst)
                        for subst in self._solve(body, 0, {}, None, None)
                    ]
                    if collect:
                        self.rule_firings += len(heads)
                    for head in heads:
                        if self.store.add(head):
                            changed = True
                            derived_this_round += 1
                            if collect and derived_at is not None:
                                derived_at.setdefault(
                                    head, (stratum_index, round_no)
                                )
                if collect:
                    stratum_metrics.rounds.append(derived_this_round)
                    stratum_metrics.facts_derived += derived_this_round
                self._check_budget()
            return

        if not recursive:
            self._check_budget()
            return
        self.rounds(recursive, delta, stratum_metrics, derived_at)

    def rounds(self, ordered, delta, stratum_metrics=None, derived_at=None,
               gained=None):
        """Semi-naive rounds over `ordered` rules (as built by
        :func:`_ordered_rule`), starting from the new facts `delta`.

        Each round fires every positive body literal whose relation has
        facts in the delta against those facts alone, the rest of the
        body against the whole store; the facts the round adds are the
        next round's delta.  With `gained` set, they are also added to
        that store after each round.
        """
        collect = stratum_metrics is not None
        stratum_index = stratum_metrics.index if collect else 0
        round_no = 0
        while len(delta):
            round_no += 1
            delta_sigs = set(delta.signatures())
            with self.tracer.span(
                "datalog.round", round=round_no, delta_in=len(delta)
            ) as round_span:
                new_delta = FactStore()
                for rule, _body, deltas in ordered:
                    for sig, body, position in deltas:
                        if sig not in delta_sigs:
                            continue
                        heads = [
                            rule.head.substitute(subst)
                            for subst in self._solve(body, 0, {}, position, delta)
                        ]
                        if collect:
                            self.rule_firings += len(heads)
                        for head in heads:
                            if not head.is_ground():
                                raise EvaluationError(
                                    "derived non-ground fact %s" % head
                                )
                            if self.store.add(head):
                                new_delta.add(head)
                                if collect and derived_at is not None:
                                    derived_at.setdefault(
                                        head, (stratum_index, round_no)
                                    )
                if collect:
                    stratum_metrics.rounds.append(len(new_delta))
                    stratum_metrics.facts_derived += len(new_delta)
                    round_span.set(delta_out=len(new_delta))
            self._check_budget()
            if gained is not None:
                gained.merge(new_delta)
            delta = new_delta

    # -- body solving ------------------------------------------------

    def _solve(self, body, index, subst, delta_position, delta):
        """Yield substitutions satisfying body[index:] under `subst`.

        When `delta_position` is not None, the literal at that body
        index draws its candidate facts from `delta` instead of the full
        store (semi-naive restriction).
        """
        if index == len(body):
            yield subst
            return
        item = body[index]
        if isinstance(item, Literal):
            if item.positive:
                source = (
                    delta
                    if delta_position == index and delta is not None
                    else self.store
                )
                atom = item.atom
                for args in source.candidates(atom, subst):
                    new = subst
                    ok = True
                    for pattern, ground in zip(atom.args, args):
                        new = unify(pattern, ground, new)
                        if new is None:
                            ok = False
                            break
                    if ok:
                        yield from self._solve(
                            body, index + 1, new, delta_position, delta
                        )
            else:
                ground = item.atom.substitute(subst)
                if not ground.is_ground():
                    raise EvaluationError(
                        "negated subgoal %s not ground at evaluation time"
                        % ground
                    )
                target = (
                    self.negation_store
                    if self.negation_store is not None
                    else self.store
                )
                if not target.contains(ground):
                    yield from self._solve(
                        body, index + 1, subst, delta_position, delta
                    )
        elif isinstance(item, Comparison):
            for new in solve_comparison(item, subst):
                yield from self._solve(body, index + 1, new, delta_position, delta)
        elif isinstance(item, Assignment):
            for new in solve_assignment(item, subst):
                yield from self._solve(body, index + 1, new, delta_position, delta)
        elif isinstance(item, AggregateLiteral):
            for new in self._solve_aggregate(item, subst):
                yield from self._solve(body, index + 1, new, delta_position, delta)
        else:
            raise EvaluationError("unsupported body item %r" % (item,))

    def _solve_aggregate(self, agg, subst):
        """Group the aggregate subgoal's solutions and bind the result."""
        inner_body = _order_body_items(list(agg.body))
        groups: Dict[Tuple, List] = {}
        for inner in self._solve(inner_body, 0, dict(subst), None, None):
            key = tuple(substitute(g, inner) for g in agg.group_by)
            value = substitute(agg.value, inner)
            if not value.is_ground():
                raise EvaluationError(
                    "aggregate value %s not ground" % value
                )
            groups.setdefault(key, []).append(value)
        for key, values in sorted(
            groups.items(),
            key=lambda kv: tuple(term_sort_key(t) for t in kv[0]),
        ):
            result_value = _apply_aggregate(agg.func, values)
            new = dict(subst)
            ok = True
            for pattern, ground in zip(agg.group_by, key):
                unified = unify(pattern, ground, new)
                if unified is None:
                    ok = False
                    break
                new = unified
            if not ok:
                continue
            unified = unify(agg.result, Const(result_value), new)
            if unified is not None:
                yield unified


def _apply_aggregate(func, values):
    if func == "count":
        return len(set(values))
    numbers = []
    for v in values:
        if not isinstance(v, Const) or isinstance(v.value, str):
            raise EvaluationError(
                "aggregate %s over non-numeric value %s" % (func, v)
            )
        numbers.append(v.value)
    if not numbers:
        raise EvaluationError("aggregate %s over empty group" % func)
    if func == "sum":
        return sum(numbers)
    if func == "min":
        return min(numbers)
    if func == "max":
        return max(numbers)
    if func == "avg":
        return sum(numbers) / len(numbers)
    raise EvaluationError("unknown aggregate %r" % func)


def _ordered_rule(rule, delta_first=False):
    """``(rule, body, deltas)``: the body in its greedy evaluation order
    (see module docstring), and per positive literal a ``(relation,
    body, position)`` triple for reading that literal from a semi-naive
    delta.

    With `delta_first` the literal is moved to the front of its body
    and the rest reordered around its bindings: right for a delta much
    smaller than its relation, as when a model is continued with a few
    new facts.  A full evaluation keeps the literal in place: its first
    delta is nearly all of each relation, and there the greedy order's
    constant-bound literals are the better lead.  Counted in
    unifications, delta-first saturation of the Section 5 schema
    program does 3.4x the work (25 368 against 7 488; the scale-1
    knowledge base gains 13%), while in-place continuation of the
    Section 5 correlates does 1.33x the work (27 444 against 20 568).
    The solutions, and so the rule firings, are the same in any
    order."""
    items = list(rule.body)
    body = _order_body_items(items)
    deltas = []
    for index, item in enumerate(body):
        if not (isinstance(item, Literal) and item.positive):
            continue
        if delta_first:
            rest = body[:index] + body[index + 1:]
            deltas.append((
                item.atom.signature,
                [item] + _order_body_items(rest, bound=item.variables()),
                0,
            ))
        else:
            deltas.append((item.atom.signature, body, index))
    return rule, body, deltas


def _order_body_items(items, bound=()):
    ordered = []
    bound: Set[Var] = set(bound)
    remaining = list(items)
    while remaining:
        chosen = None
        # Priority 1: ready builtins / negation / aggregate (cheap filters).
        for item in remaining:
            if _is_ready_filter(item, bound):
                chosen = item
                break
        # Priority 2: the first positive literal (generator).
        if chosen is None:
            for item in remaining:
                if isinstance(item, Literal) and item.positive:
                    chosen = item
                    break
        # Priority 3: an '=' comparison with one groundable side, an
        # aggregate (they can self-bind), or anything left.
        if chosen is None:
            for item in remaining:
                if isinstance(item, (AggregateLiteral, Comparison, Assignment)):
                    chosen = item
                    break
        if chosen is None:
            chosen = remaining[0]
        remaining.remove(chosen)
        ordered.append(chosen)
        for v in chosen.variables():
            bound.add(v)
        if isinstance(chosen, AggregateLiteral):
            bound.update(chosen.inner_variables())
    return ordered


def _is_ready_filter(item, bound):
    """Is `item` a pure filter whose variables are already bound?"""
    if isinstance(item, Literal) and not item.positive:
        return all(v in bound or v.is_anonymous for v in item.variables())
    if isinstance(item, Comparison):
        if item.op == "=":
            left_ok = all(v in bound for v in item.left.variables())
            right_ok = all(v in bound for v in item.right.variables())
            return left_ok or right_ok
        return all(v in bound for v in item.variables())
    if isinstance(item, Assignment):
        return all(v in bound for v in item.expr.variables())
    return False
