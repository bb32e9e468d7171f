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

Rule bodies are joined by the compiled kernel of :mod:`.join`: each
rule is compiled once per delta position, with the delta's literal read
first and the rest ordered by what is bound before each item (builtins
and negation as soon as their variables are bound, which the safety
check guarantees is always eventually possible).  A model's
:class:`_Plan` owns the compiled rules, so the continuations and
retractions of the model reuse the joins its evaluation compiled.
"""

from __future__ import annotations

import copy

from .. import obs
from ..errors import EvaluationError, StratificationError
from .ast import AggregateLiteral, Atom, Literal
from .join import _CompiledRule, _ProofStores, _Stores
from .safety import check_program_safety
from .store import FactStore
from .stratify import is_aggregate_stratified, stratify
from .terms import Const, Term, substitute, term_sort_key, unify


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
        # the _Plan for maintaining this model, built on first use
        self._plan = None


#: default ceiling on derived facts: compound (Skolem) terms make
#: non-terminating programs easy to write; hitting the ceiling raises a
#: diagnosable error instead of looping forever.
DEFAULT_MAX_FACTS = 2_000_000

#: ceiling on the well-founded model's T/U alternations: they converge
#: for safe, terminating programs, so hitting it is an engine bug
WF_MAX_ROUNDS = 10_000


def evaluate(program, check_safety=True, strategy="seminaive", max_facts=None,
             base=None, removed=()):
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
    Only `program` is then checked for safety.  `removed` lists rules
    of ``base.program`` the new model goes without (one occurrence
    each): they are retracted from `base` before `program` is added.
    """
    if strategy not in ("seminaive", "naive"):
        raise EvaluationError("unknown evaluation strategy %r" % strategy)
    if check_safety:
        check_program_safety(program)
    if base is not None:
        return _continue(base, list(program), list(removed), strategy, max_facts)
    if removed:
        raise EvaluationError("removed= needs the base= it is removed from")
    # a rule stated twice is evaluated once, but kept twice in the
    # result's program: removing one copy later leaves it stated
    program = tuple(program)
    unique = _unique(program)
    tracer = obs.active()
    metrics = obs.EvaluationMetrics() if tracer.enabled else None
    try:
        strata = stratify(unique)
    except StratificationError:
        if not is_aggregate_stratified(unique):
            raise
        true_store, undefined = well_founded_model(
            unique, check_safety=False, metrics=metrics
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
    plan = _Plan(program, strata)
    facts = [[] for _stratum in strata]
    where = {sig: index for index, stratum in enumerate(strata) for sig in stratum}
    for rule in unique:
        if rule.is_fact:
            facts[where[rule.head.signature]].append(_stated_fact(rule))
    store = FactStore()
    evaluator = _Evaluator(
        store,
        seminaive=(strategy == "seminaive"),
        max_facts=max_facts if max_facts is not None else DEFAULT_MAX_FACTS,
        tracer=tracer,
    )
    for index, (stratum, (rules, _triggers, _guarded)) in enumerate(
        zip(strata, plan.strata)
    ):
        if metrics is None:
            evaluator.saturate(facts[index], rules)
            continue
        stratum_metrics = metrics.begin_stratum(
            index, ("%s/%d" % sig for sig in stratum)
        )
        with tracer.span(
            "datalog.stratum", index=index, relations=len(stratum)
        ) as span:
            evaluator.saturate(
                facts[index],
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
    result = EvaluationResult(store, strata=strata, metrics=metrics, program=program)
    result._plan = plan
    return result


def _continue(base, extra, removed, strategy, max_facts):
    """The model of ``base.program`` without the rules `removed` and
    with the rules `extra`, maintained from the evaluated `base` instead
    of recomputed.

    The store of `base` is left untouched: the new model lives in a
    copy-on-write :meth:`FactStore.overlay` of it.  Removed facts are
    retracted first (:func:`_retract`).  The extra facts are then the
    delta: semi-naive rounds run stratum by stratum over the base rules,
    with every positive literal whose relation gained facts as a delta
    position; there is no first full pass.  Extra proper rules must
    define relations the base program neither defines nor references;
    they are stratified on their own and saturated after the base
    strata (by `strategy`; the base strata only ever see the new facts,
    so they always run semi-naive rounds).

    Maintaining is unsound in some cases, and the whole combined program
    is evaluated instead.  The fallback reason is recorded on the
    ``datalog.continue`` span and counted in the ``datalog.fallbacks``
    counter:

    * ``well-founded`` — the base needed the well-founded semantics;
    * ``rule-removed`` — a removed rule is not a fact;
    * ``head-in-base`` — an extra rule's head relation is defined or
      referenced by the base program;
    * ``unstratified`` — the extra rules are not stratifiable on their
      own;
    * ``negation`` / ``aggregate`` — new facts reach, or retracted
      facts leave, a relation that a base rule negates or aggregates
      over.
    """
    tracer = obs.active()
    attrs = {"extra_rules": len(extra)}
    if removed:
        attrs["removed_rules"] = len(removed)
    with tracer.span("datalog.continue", **attrs) as span:
        if base.used_well_founded:
            reason = "well-founded"
        else:
            reason, result = None, base
            if removed:
                reason, result = _retract(base, removed, tracer)
            if reason is None and (extra or not removed):
                reason, result = _Plan.of(result).run(
                    result, extra, strategy, max_facts, tracer, span
                )
        if reason is None:
            return result
        span.set(fallback=reason)
        tracer.count("datalog.fallbacks", reason=reason)
        return evaluate(
            _without_rules(base.program, removed) + tuple(extra),
            check_safety=False,
            strategy=strategy,
            max_facts=max_facts,
        )


def _stated_fact(rule):
    """The head of the fact `rule`, which must be ground (an unsafe
    fact reaches evaluation when safety checks are off)."""
    if not rule.head.is_ground():
        raise EvaluationError("stated non-ground fact %s" % rule.head)
    return rule.head


def _unique(rules):
    """`rules` without repeats, in order."""
    return list(dict.fromkeys(rules))


def _without_rules(program, removed):
    """`program` as a tuple, with one occurrence of each rule of
    `removed` taken out (rules it does not hold are ignored)."""
    if not removed:
        return tuple(program)
    pending = {}
    for rule in removed:
        pending[rule] = pending.get(rule, 0) + 1

    def spared(rule):
        left = pending[rule]
        pending[rule] = left - 1
        return left <= 0

    return tuple(rule for rule in program if rule not in pending or spared(rule))


class _Plan:
    """A stratified model's rules, compiled: what evaluating and
    maintaining it needs.

    It depends only on the model's proper rules and strata, so a model
    maintained by facts alone shares its base's plan (see
    :meth:`with_relations`), and with it the joins compiled so far."""

    def __init__(self, program, strata):
        #: relations the program defines or reads
        self.referenced = {rule.head.signature for rule in program}
        #: per stratum: (compiled proper rules, relations read by a
        #: positive literal, {relation negated/aggregated: reason})
        self.strata = []
        proper = _unique(rule for rule in program if not rule.is_fact)
        where = {sig: index for index, stratum in enumerate(strata) for sig in stratum}
        grouped = [[] for _stratum in strata]
        for rule in proper:
            grouped[where[rule.head.signature]].append(_CompiledRule(rule))
        for rules in grouped:
            triggers = {sig for rule in rules for sig, _position in rule.deltas}
            guarded = {}
            for compiled in rules:
                for item in compiled.rule.body:
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
        self._retraction = None

    @classmethod
    def of(cls, result):
        # concurrent first uses may each build one; either is correct
        if result._plan is None:
            result._plan = cls(result.program, result.strata)
        return result._plan

    def with_relations(self, signatures):
        """This plan, for a program that also has facts of the
        relations `signatures`."""
        new = set(signatures) - self.referenced
        if not new:
            return self
        plan = copy.copy(self)
        plan.referenced = self.referenced | new
        return plan

    def retraction_index(self):
        """``(by_head, by_body, dependents, guarded)``: the compiled
        proper rules by head and, as ``(rule, body index)``, by positive
        body literal, each a :class:`_RuleIndex`; the relations each
        relation's facts derive; and every negated or aggregated
        relation with its fallback reason."""
        if self._retraction is None:
            by_head, by_body = _RuleIndex(), _RuleIndex()
            dependents, guarded = {}, {}
            for rules, _triggers, stratum_guarded in self.strata:
                guarded.update(stratum_guarded)
                for compiled in rules:
                    head = compiled.rule.head
                    by_head.add(head, compiled)
                    for sig, position in compiled.deltas:
                        by_body.add(
                            compiled.rule.body[position].atom, (compiled, position)
                        )
                        dependents.setdefault(sig, set()).add(head.signature)
            self._retraction = (by_head, by_body, dependents, guarded)
        return self._retraction

    def run(self, base, extra, strategy, max_facts, tracer, span):
        """Continue `base` with the rules `extra`: ``(None, result)``,
        or ``(fallback reason, None)``."""
        facts = [_stated_fact(rule) for rule in extra if rule.is_fact]
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
        store = base.store.overlay()
        evaluator = _Evaluator(
            store,
            seminaive=(strategy == "seminaive"),
            max_facts=max_facts if max_facts is not None else DEFAULT_MAX_FACTS,
            tracer=tracer,
        )
        gained = FactStore()
        for head in facts:
            if store.add_row(head.signature, head.args):
                gained.add_row(head.signature, head.args)
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
                    index, ("%s/%d" % sig for sig in base.strata[index])
                )
            evaluator.rounds(
                rules, gained, stratum_metrics, derived_at, gained=gained
            )
        offset = len(self.strata)
        for index, stratum in enumerate(extra_strata, start=offset):
            rules = [
                _CompiledRule(rule) for rule in proper if rule.head.signature in stratum
            ]
            stratum_metrics = None
            if metrics is not None:
                stratum_metrics = metrics.begin_stratum(
                    index, ("%s/%d" % sig for sig in stratum)
                )
            evaluator.saturate((), rules, stratum_metrics, derived_at)
        if metrics is not None:
            metrics.rule_firings = evaluator.rule_firings
            metrics.store_size = len(store)
            span.set(facts_derived=len(store) - len(base.store) - delta_in)
            tracer.count("datalog.rule_firings", evaluator.rule_firings)
            tracer.count("datalog.facts_derived", metrics.facts_derived)
            tracer.gauge("datalog.store_size", len(store))
        result = EvaluationResult(
            store,
            strata=base.strata + extra_strata,
            metrics=metrics,
            program=base.program + tuple(extra),
        )
        if not proper:
            result._plan = self.with_relations(head.signature for head in facts)
        return None, result


def _retract(base, removed, tracer):
    """`base` without the facts `removed`: ``(None, result)``, or
    ``(fallback reason, None)``.

    This is the Backward/Forward algorithm (Motik, Nenov, Piro and
    Horrocks, AAAI 2015).  A candidate fact is deleted only when a
    backward search finds no proof of it that avoids the facts already
    deleted; the consequences of each deleted fact (found forward,
    against the old model) are the next candidates.  A removed fact the
    remaining program still states is no candidate.  Unlike
    delete-and-rederive, a fact that keeps another proof never leaves
    the model, so its consequences are never visited.

    The ``datalog.retract`` span records, and the tracer counts, three
    numbers that do not depend on the order in which facts are met:
    ``removed`` (facts deleted), ``checked`` (candidates whose proofs
    were searched) and ``rederived`` (candidates found still provable).
    """
    if any(not rule.is_fact for rule in removed):
        return "rule-removed", None
    program = _without_rules(base.program, removed)
    plan = _Plan.of(base)
    by_head, by_body, dependents, guarded = plan.retraction_index()
    affected = set()
    frontier = [rule.head.signature for rule in removed]
    while frontier:
        sig = frontier.pop()
        if sig not in affected:
            affected.add(sig)
            frontier.extend(dependents.get(sig, ()))
    explicit = {
        (head.signature, head.args)
        for head in (rule.head for rule in program if not rule.body)
        if head.signature in affected
    }
    with tracer.span("datalog.retract", removed_rules=len(removed)) as span:
        retraction = _Retraction(base.store, by_head, by_body, affected, explicit)
        candidates = [
            (rule.head.signature, rule.head.args)
            for rule in removed
            if (rule.head.signature, rule.head.args) not in explicit
            and rule.head.args in base.store.rows(rule.head.signature)
        ]
        considered = set()
        while candidates:
            deleted = []
            for fact in candidates:
                if fact in considered:
                    continue
                considered.add(fact)
                retraction.check(fact)
                if fact not in retraction.proved:
                    reason = guarded.get(fact[0])
                    if reason is not None:
                        return reason, None
                    retraction.deleted.add(fact)
                    deleted.append(fact)
            candidates = retraction.consequences(deleted)
        store = base.store.overlay()
        for sig, args in retraction.deleted:
            store.remove_row(sig, args)
        metrics = None
        if tracer.enabled:
            removed_count = len(retraction.deleted)
            span.set(
                removed=removed_count,
                checked=len(considered),
                rederived=len(considered) - removed_count,
            )
            metrics = obs.EvaluationMetrics()
            metrics.rule_firings = retraction.rule_firings
            metrics.store_size = len(store)
            tracer.count("datalog.rule_firings", retraction.rule_firings)
            tracer.count("datalog.facts_removed", removed_count)
            tracer.count("datalog.facts_checked", len(considered))
            tracer.count(
                "datalog.facts_rederived", len(considered) - removed_count
            )
            tracer.gauge("datalog.store_size", len(store))
    result = EvaluationResult(
        store, strata=base.strata, metrics=metrics, program=program
    )
    result._plan = plan
    return None, result


def match_atom(store, goal):
    """All bindings of `goal` against a fact store (deterministic order)."""
    solutions = []
    for args in store.candidates(goal, {}):
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


def well_founded_model(program, check_safety=True, metrics=None):
    """Compute the well-founded model by alternating fixpoint.

    Returns ``(true_store, undefined_store)``.  The iteration maintains
    an underestimate T (facts certainly true) and an overestimate U
    (facts not certainly false): ``T_{i+1} = Gamma(U_i)`` and
    ``U_{i+1} = Gamma(T_{i+1})`` where Gamma(J) evaluates the program
    with ``not q`` read as ``q not in J``.  T grows, U shrinks, and both
    converge because the ground instantiation is finite for safe,
    terminating programs; more than :data:`WF_MAX_ROUNDS` alternations
    raise :class:`~repro.errors.EvaluationError`.

    `metrics` is an optional :class:`~repro.obs.EvaluationMetrics`
    whose ``wf_alternations`` records how many T/U alternations ran.
    """
    if check_safety:
        check_program_safety(program)
    tracer = obs.active()
    rules = [_CompiledRule(rule) for rule in program]
    with tracer.span("datalog.wellfounded", rules=len(rules)) as wf_span:
        true_estimate = FactStore()  # T: certainly-true facts
        possible = _gamma(rules, FactStore())  # U_0 = Gamma(empty): everything possible
        alternations = 0
        for _round in range(WF_MAX_ROUNDS):
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
    """Least model of the compiled `rules` with negation evaluated
    against `anti_store`."""
    store = FactStore()
    evaluator = _Evaluator(store, negation_store=anti_store)
    evaluator.saturate(
        [_stated_fact(rule.rule) for rule in rules if rule.rule.is_fact],
        [rule for rule in rules if not rule.rule.is_fact],
    )
    return store


class _Evaluator:
    """Semi-naive saturation of compiled rules against a shared store.

    With `negation_store` set, negated subgoals are tested against that
    fixed store (well-founded Gamma operator); otherwise they read the
    accumulating store, which is only sound when the evaluated rules are
    a stratum whose negated dependencies are already complete.
    """

    def __init__(self, store, negation_store=None, seminaive=True, max_facts=None,
                 tracer=None):
        self.store = store
        self.stores = _Stores(store, negation_store)
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

    def saturate(self, facts, rules, stratum_metrics=None, derived_at=None):
        """Add the ground atoms `facts` and saturate the store under the
        compiled proper `rules` (:class:`_CompiledRule`)."""
        collect = stratum_metrics is not None
        stratum_index = stratum_metrics.index if collect else 0
        stated = 0
        for head in facts:
            if self.store.add_row(head.signature, head.args):
                stated += 1
                if collect and derived_at is not None:
                    derived_at.setdefault(head, (stratum_index, 0))

        # First full pass: every rule against the complete store.  Each
        # rule's heads are collected before any is stored, so the store
        # never changes during a join.  The pass joins the stated facts,
        # so the first delta is the heads it adds; the stated facts
        # still count as round 0.
        delta = FactStore()
        for rule in rules:
            self._fire(rule, rule.join().run(self.stores), delta,
                       collect, derived_at, stratum_index, 0)
        if collect:
            stratum_metrics.rounds.append(stated + len(delta))
            stratum_metrics.facts_derived += stated + len(delta)

        # Only rules reading a relation of this stratum can fire again.
        local_sigs = {rule.sig for rule in rules}
        recursive = [
            rule
            for rule in rules
            if any(sig in local_sigs for sig, _position in rule.deltas)
        ]

        if not self.seminaive:
            # Naive ablation: every recursive rule refires against the
            # full store each round until nothing new is derived.
            round_no = 0
            while len(delta):
                round_no += 1
                delta = FactStore()
                for rule in recursive:
                    self._fire(rule, rule.join().run(self.stores), delta,
                               collect, derived_at, stratum_index, round_no)
                if collect:
                    stratum_metrics.rounds.append(len(delta))
                    stratum_metrics.facts_derived += len(delta)
                self._check_budget()
            return

        if not recursive:
            self._check_budget()
            return
        self.rounds(recursive, delta, stratum_metrics, derived_at)

    def _fire(self, rule, heads, new, collect, derived_at, stratum_index, round_no):
        """Store the head tuples `heads` of `rule`; the new ones also go
        to the store `new`."""
        sig = rule.sig
        add = self.store.add_row
        if collect:
            self.rule_firings += len(heads)
        for args in heads:
            if add(sig, args):
                new.add_row(sig, args)
                if collect and derived_at is not None:
                    derived_at.setdefault(
                        Atom(sig[0], args), (stratum_index, round_no)
                    )

    def rounds(self, rules, delta, stratum_metrics=None, derived_at=None,
               gained=None):
        """Semi-naive rounds over the compiled `rules`, starting from the
        new facts `delta`.

        Each round fires every positive body literal whose relation has
        facts in the delta against those facts alone (read first), the
        rest of the body against the whole store; the facts the round
        adds are the next round's delta.  With `gained` set, they are
        also added to that store after each round.
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
                for rule in rules:
                    for sig, position in rule.deltas:
                        if sig in delta_sigs:
                            self._fire(
                                rule, rule.join(position).run(self.stores, delta),
                                new_delta, collect, derived_at, stratum_index,
                                round_no,
                            )
                if collect:
                    stratum_metrics.rounds.append(len(new_delta))
                    stratum_metrics.facts_derived += len(new_delta)
                    round_span.set(delta_out=len(new_delta))
            self._check_budget()
            if gained is not None:
                gained.merge(new_delta)
            delta = new_delta


class _Retraction:
    """The state of one :func:`_retract`: the facts checked, proved and
    deleted so far, each a ``(signature, args)`` pair.

    A fact is proved when it is still stated, when its relation cannot
    have lost facts (it does not depend on a removed fact's relation),
    or when a rule instance whose positive atoms are all proved derives
    it.  :meth:`check` searches backward for such an instance, checking
    every positive atom of each instance it tries; a fact whose check is
    still open (a cycle) is not proved yet, so each newly proved fact is
    propagated forward to the checked facts it proves.  Once a top-level
    :meth:`check` returns, every checked fact that has a proof is
    proved; the rest have none.
    """

    def __init__(self, model, by_head, by_body, affected, explicit):
        self.model = model
        self.by_head = by_head
        self.by_body = by_body
        self.affected = affected
        self.explicit = explicit
        self.checked = set()
        #: proved facts of affected relations (a store, for the forward
        #: propagation's joins)
        self.proved_store = FactStore()
        self.proved = set()
        self.deleted = set()
        #: rule instances fired forward from deleted facts
        self.rule_firings = 0
        self._model = _Stores(model)
        self._proof = _ProofStores(self.proved_store, model, affected)

    def check(self, root):
        """Search for a proof of the fact `root`."""
        if root in self.checked or self._settle(root):
            return
        stack = [[root, self._instances(root), (), 0]]
        while stack:
            frame = stack[-1]
            fact, instances, atoms, position = frame
            if fact in self.proved:
                stack.pop()
                continue
            child = None
            while position < len(atoms):
                atom = atoms[position]
                position += 1
                if atom not in self.checked and not self._settle(atom):
                    child = atom
                    break
            frame[3] = position
            if child is not None:
                stack.append([child, self._instances(child), (), 0])
                continue
            if atoms and all(atom in self.proved for atom in atoms):
                self._prove(fact)
                stack.pop()
                continue
            atoms = next(instances, None)
            if atoms is None:
                stack.pop()  # no proof (yet)
            elif not atoms:
                self._prove(fact)
                stack.pop()
            else:
                frame[2], frame[3] = atoms, 0

    def _settle(self, fact):
        """Mark `fact` checked; True when that already decides it (it
        is stated, or its relation is unaffected: proved)."""
        self.checked.add(fact)
        if fact[0] not in self.affected or fact in self.explicit:
            self._prove(fact)
            return True
        return False

    def _instances(self, fact):
        """Per rule instance deriving `fact` in the old model, avoiding
        deleted facts: its positive atoms of affected relations."""
        sig, args = fact
        for rule in self.by_head.entries(sig, args):
            join, relations = rule.backward()
            for rows in join.run(self._model, (args,)):
                atoms = []
                for relation, row in zip(relations, rows):
                    if relation not in self.affected:
                        continue
                    ground = (relation, row)
                    if ground in self.deleted:
                        break
                    atoms.append(ground)
                else:
                    yield atoms

    def _prove(self, fact):
        """Record `fact` as proved, then every checked fact a rule
        instance over proved facts derives from it."""
        work = [fact]
        while work:
            fact = work.pop()
            if fact in self.proved:
                continue
            self.proved.add(fact)
            sig, args = fact
            if sig not in self.affected:
                continue
            self.proved_store.add_row(sig, args)
            for rule, position in self.by_body.entries(sig, args):
                for head in rule.join(position).run(self._proof, (args,)):
                    derived = (rule.sig, head)
                    if derived in self.checked and derived not in self.proved:
                        work.append(derived)

    def consequences(self, deleted):
        """The facts of the old model that rule instances with a
        positive atom among `deleted` derive, and that are not deleted
        yet: the next candidates."""
        found = []
        seen = set()
        for sig, args in deleted:
            for rule, position in self.by_body.entries(sig, args):
                for head in rule.join(position).run(self._model, (args,)):
                    self.rule_firings += 1
                    fact = (rule.sig, head)
                    if fact not in seen and fact not in self.deleted:
                        seen.add(fact)
                        found.append(fact)
        return found


class _RuleIndex:
    """Entries keyed by an atom pattern, found by the ground facts that
    may match it.  A pattern with a constant argument is filed under its
    first one, so a fact only meets patterns that agree with it there
    or have no constant; the entry's join does the full match."""

    def __init__(self):
        #: signature -> (entries of patterns without a constant,
        #: {(position, constant): entries})
        self._by_sig = {}

    def add(self, pattern, entry):
        loose, keyed = self._by_sig.setdefault(pattern.signature, ([], {}))
        for position, arg in enumerate(pattern.args):
            if isinstance(arg, Const):
                keyed.setdefault((position, arg), []).append(entry)
                return
        loose.append(entry)

    def entries(self, sig, args):
        """The entries whose pattern of `sig` the ground arguments
        `args` may match."""
        filed = self._by_sig.get(sig)
        if filed is None:
            return
        loose, keyed = filed
        yield from loose
        for position, arg in enumerate(args):
            group = keyed.get((position, arg))
            if group:
                yield from group
