"""Query planning: the Section 5 multiple-worlds query plan.

The paper's running query — "What is the distribution of those
calcium-binding proteins that are found in neurons that receive signals
from parallel fibers in rat brains?" — is planned in four steps:

1. **push selections** (rat, parallel fiber) to the seed source and get
   bindings for the neuron/compartment pair (X, Y);
2. **select sources** that have data anchored for those concepts using
   the domain map's semantic index;
3. **push selections** given by the X, Y locations to each selected
   source and retrieve only the matching objects (e.g. proteins);
4. compute the **lub** of the locations as the distribution root and
   evaluate the distribution view via a **downward closure** along
   `has_a_star`.

:class:`CorrelationQuery` is the declarative form of such a query;
:func:`plan` turns it into inspectable :class:`PlanStep` objects and
:func:`execute` runs them against a mediator.  Planning contacts no
source: pushes are validated against the sources' registered binding
patterns — a selection no pattern covers raises
:class:`~repro.errors.PlanningError` at *planning* time — and the (X, Y)
concepts step 1 binds are read from the :class:`PlanContext` by steps
2–4 when they run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import obs
from ..errors import CapabilityError, PlanningError
from ..domainmap.graphops import lub
from ..sources.wrapper import SourceQuery


class CorrelationQuery:
    """A declarative multiple-worlds correlation query.

    Args:
        seed_class: the class the initial selections apply to (e.g.
            ``neurotransmission``).
        seed_selections: attribute -> value selections pushed to the
            seed source (e.g. organism=rat).
        anchor_attrs: attributes of seed rows whose values are DM
            concepts — the "semantic coordinates" (X, Y) joining the
            worlds (e.g. receiving_neuron, receiving_compartment).
        target_class: the class to retrieve from the selected sources
            (e.g. ``protein_amount``).
        target_anchor_attr: the target attribute carrying the anchor
            (e.g. ``location``): anchor concepts are translated back to
            source vocabulary and pushed as selections.
        target_filters: extra selections on the target class, applied
            mediator-side when the source's binding patterns cannot
            take them (e.g. ion_bound=calcium).
        group_attr / value_attr: the distribution grouping and value
            attributes (protein_name / amount).
        role / func: the DM relation to traverse and the aggregate.
        seed_source: optional explicit seed source name; inferred when
            exactly one registered source exports `seed_class`.
    """

    def __init__(
        self,
        seed_class,
        seed_selections,
        anchor_attrs,
        target_class,
        target_anchor_attr,
        group_attr,
        value_attr,
        target_filters=None,
        role="has",
        func="sum",
        seed_source=None,
    ):
        self.seed_class = seed_class
        self.seed_selections = dict(seed_selections)
        self.anchor_attrs = tuple(anchor_attrs)
        self.target_class = target_class
        self.target_anchor_attr = target_anchor_attr
        self.target_filters = dict(target_filters or {})
        self.group_attr = group_attr
        self.value_attr = value_attr
        self.role = role
        self.func = func
        self.seed_source = seed_source


class PlanStep:
    """One step of a query plan; subclasses implement `run`."""

    kind = "step"

    def __repr__(self):
        return "<%s: %s>" % (self.kind, self.describe())


class PushSelectionStep(PlanStep):
    """Step 1/3: push bound selections to one source class."""

    kind = "push-selection"

    def __init__(self, source, class_name, selections, bind_attrs=()):
        self.source = source
        self.class_name = class_name
        self.selections = dict(selections)
        self.bind_attrs = tuple(bind_attrs)

    def describe(self):
        sel = ", ".join("%s=%r" % kv for kv in sorted(self.selections.items()))
        return "push {%s} to %s.%s" % (sel, self.source, self.class_name)

    def run(self, context):
        rows = context.mediator.source_query(
            self.source,
            SourceQuery(self.class_name, self.selections),
            plan=context,
        )
        context.rows[(self.source, self.class_name)] = rows
        if self.bind_attrs:
            bindings = sorted(
                {
                    tuple(row[attr] for attr in self.bind_attrs)
                    for row in rows
                }
            )
            context.bindings[self.bind_attrs] = bindings
        return rows


class SelectSourcesStep(PlanStep):
    """Step 2: bind the anchor concepts of step 1's rows and select
    sources via the domain map's semantic index."""

    kind = "select-sources"

    def __init__(self, anchor_attrs, target_class, exclude=()):
        self.anchor_attrs = tuple(anchor_attrs)
        self.target_class = target_class
        self.exclude = set(exclude)
        #: the concepts the step ran at (empty until it runs)
        self.concepts: List[str] = []
        self.selected: List[str] = []

    def describe(self):
        return "select sources anchored at %s exporting %r" % (
            self.concepts,
            self.target_class,
        )

    def run(self, context):
        mediator = context.mediator
        pairs = context.bindings.get(self.anchor_attrs, [])
        concepts = sorted({c for pair in pairs for c in pair if c})
        for concept in concepts:
            mediator.dm.require_concept(concept)
        self.concepts = context.concepts = concepts
        self.selected = sorted(
            set(mediator.select_sources(concepts, self.target_class))
            - self.exclude
        )
        context.selected_sources = list(self.selected)
        return self.selected


class RetrieveAnchoredStep(PlanStep):
    """Step 3: push anchor-derived selections to the selected sources."""

    kind = "retrieve"

    def __init__(self, target_class, anchor_attr, filters):
        self.target_class = target_class
        self.anchor_attr = anchor_attr
        self.filters = dict(filters)
        #: the concepts the step ran at (empty until it runs)
        self.concepts: List[str] = []

    def describe(self):
        return "retrieve %r at %s from selected sources" % (
            self.target_class,
            self.concepts,
        )

    def run(self, context):
        from ..errors import SourceError, XMLTransportError

        self.concepts = list(context.concepts)
        collected = []
        for source in context.selected_sources:
            try:
                collected.extend(self._retrieve_from(context, source))
            except (SourceError, XMLTransportError) as exc:
                if context.mediator.resilience is None:
                    raise
                context.record_skipped(source, exc)
        context.retrieved = collected
        return collected

    def _retrieve_from(self, context, source):
        collected = []
        wrapper = context.mediator.wrapper(source)
        capability = context.mediator.capabilities(source)[self.target_class]
        pushable, local_filters = capability.partition_selections(
            self.filters, always_bound=(self.anchor_attr,)
        )
        for concept in self.concepts:
            for raw_value in wrapper.selection_values_for_concept(
                self.target_class, self.anchor_attr, concept
            ):
                selections = {self.anchor_attr: raw_value}
                selections.update(pushable)
                rows = context.mediator.source_query(
                    source,
                    SourceQuery(self.target_class, selections),
                    plan=context,
                )
                for row in rows:
                    if all(
                        row.get(attr) == value
                        for attr, value in local_filters.items()
                    ):
                        collected.append((source, row))
        return collected


class ComputeLubStep(PlanStep):
    """Step 4a: the distribution root as lub of the anchor concepts."""

    kind = "compute-lub"

    def __init__(self, order):
        self.order = order
        #: the concepts the step ran at (empty until it runs)
        self.concepts: List[str] = []
        self.root: Optional[str] = None

    def describe(self):
        return "lub of %s in the %r order" % (self.concepts, self.order)

    def run(self, context):
        self.concepts = list(context.concepts)
        self.root = lub(context.mediator.dm, self.concepts, order=self.order)
        context.root = self.root
        return self.root


class AggregateStep(PlanStep):
    """Step 4b: downward closure + recursive aggregation below the root."""

    kind = "aggregate"

    def __init__(self, target_class, group_attr, value_attr, role, func):
        self.target_class = target_class
        self.group_attr = group_attr
        self.value_attr = value_attr
        self.role = role
        self.func = func

    def describe(self):
        return "aggregate %s(%s) by %s below the lub via %s" % (
            self.func,
            self.value_attr,
            self.group_attr,
            self.role,
        )

    def run(self, context):
        mediator = context.mediator
        facts = []
        groups = set()
        for source, row in context.retrieved:
            wrapper = mediator.wrapper(source)
            facts.extend(wrapper.lift_rows(self.target_class, [row]))
            groups.add(row[self.group_attr])
        # Aggregate over the retrieved objects only: evaluating against
        # the mediator's eagerly loaded data would undo the plan's
        # step-3 filtering (organism, ion, location bounds).
        store = mediator.evaluate_with(facts, include_data=False).store
        answers = []
        for group_value in sorted(groups, key=repr):
            distribution = mediator.compute_distribution(
                context.root,
                self.value_attr,
                group_attr=self.group_attr,
                group_value=group_value,
                role=self.role,
                func=self.func,
                store=store,
            )
            answers.append((group_value, distribution))
        context.answers = answers
        return answers


class PlanContext:
    """Mutable execution state threaded through the steps: step 1's
    rows and `bindings`, the anchor `concepts` step 2 binds from them
    (read by steps 3 and 4a), the selected sources, retrieved rows,
    root and answers, and this plan's source-call outcomes and
    deadline.

    Under the mediator's resilience guard, retrieval errors from
    individual sources are recorded in `errors` instead of aborting
    the plan — the remaining sources still answer (partial results are
    the norm in federations of independently operated labs); without
    a guard the first failure raises.  Skips are *not* silent: each
    one is kept in `errors`, mirrored on the active trace as a
    ``plan.source_skipped`` event, and summarized by :attr:`degraded`
    and :meth:`degraded_answer` so callers can tell a complete answer
    from a partial one.
    """

    def __init__(self, mediator):
        self.mediator = mediator
        self.rows: Dict = {}
        self.bindings: Dict = {}
        #: the anchor concepts step 2 bound from step 1's rows
        self.concepts: List[str] = []
        self.selected_sources: List[str] = []
        self.retrieved: List = []
        self.root: Optional[str] = None
        self.answers: List = []
        self.errors: List = []
        # The plan's own source-call state: a plan runs on one
        # thread, and concurrent plans each have their own.
        #: :class:`~repro.resilience.CallOutcome` of every guarded
        #: call this plan made (the degraded-answer report's input)
        self.outcomes: List = []
        #: this plan's deadline on the policy clock (None = unbounded)
        self.deadline: Optional[float] = None
        guard = mediator.resilience
        if guard is not None and guard.policy.plan_deadline is not None:
            self.deadline = guard.policy.clock() + guard.policy.plan_deadline

    def record_skipped(self, source, exc):
        """Record one source skipped by the retrieve step."""
        self.errors.append((source, exc))
        obs.event(
            "plan.source_skipped",
            source=source,
            error=type(exc).__name__,
            message=str(exc),
        )
        obs.count("planner.sources_skipped")

    @property
    def degraded(self):
        """True when at least one selected source failed to answer or
        was shed by its breaker (either way the retrieve step recorded
        a skip) — `answers` may be missing that source's
        contribution."""
        return bool(self.errors)

    def degraded_answer(self):
        """The structured :class:`~repro.resilience.DegradedAnswer`
        report of this plan execution: per source, what happened
        (skipped / retried / breaker-open), attempt counts, and
        breaker state.  Works with or without a resilience policy."""
        from ..resilience.report import build_degraded_answer

        return build_degraded_answer(
            self.outcomes, self.errors, guard=self.mediator.resilience
        )


class QueryPlan:
    """An ordered, inspectable list of plan steps."""

    def __init__(self, steps):
        self.steps: List[PlanStep] = list(steps)

    @property
    def kinds(self):
        return [step.kind for step in self.steps]

    def describe(self):
        return "\n".join(
            "%d. [%s] %s" % (i + 1, step.kind, step.describe())
            for i, step in enumerate(self.steps)
        )

    def execute(self, context):
        """Run the steps in order against `context` (a
        :class:`PlanContext`); returns it."""
        for index, step in enumerate(self.steps):
            with obs.span("plan.step", index=index + 1, kind=step.kind) as span:
                try:
                    output = step.run(context)
                finally:
                    # described once it ran: steps 2-4 name the
                    # concepts they ran at
                    if span.enabled:
                        span.set(describe=step.describe())
                if span.enabled:
                    span.set(cardinality=_cardinality(output))
                    obs.count("planner.steps", kind=step.kind)
        return context


def _cardinality(output):
    """How many things a plan step produced (for EXPLAIN / spans)."""
    if output is None:
        return 0
    if isinstance(output, (list, tuple, set, dict)):
        return len(output)
    return 1


def plan(mediator, query):
    """Plan a :class:`CorrelationQuery` (without executing it).

    Contacts no source.  Performs capability checks up front: the seed
    selections must be answerable by the seed source's registered
    binding patterns.  The anchor concepts are bound when the plan
    runs: steps 2–4 read them from the :class:`PlanContext`.
    """
    with obs.span(
        "plan.build",
        seed_class=query.seed_class,
        target_class=query.target_class,
    ):
        return _plan(mediator, query)


def _plan(mediator, query):
    seed_source = query.seed_source
    if seed_source is None:
        exporters = [
            name
            for name in mediator.source_names()
            if query.seed_class in mediator.capabilities(name)
        ]
        if len(exporters) != 1:
            raise PlanningError(
                "cannot infer seed source for class %r (exporters: %s)"
                % (query.seed_class, exporters)
            )
        seed_source = exporters[0]
    capability = mediator.capabilities(seed_source).get(query.seed_class)
    if capability is None:
        raise PlanningError(
            "source %r does not export seed class %r"
            % (seed_source, query.seed_class)
        )
    try:
        capability.require_answerable(query.seed_selections)
    except CapabilityError as exc:
        raise PlanningError(str(exc)) from exc

    return QueryPlan(
        [
            PushSelectionStep(
                seed_source,
                query.seed_class,
                query.seed_selections,
                query.anchor_attrs,
            ),
            SelectSourcesStep(
                query.anchor_attrs, query.target_class, exclude={seed_source}
            ),
            RetrieveAnchoredStep(
                query.target_class,
                query.target_anchor_attr,
                query.target_filters,
            ),
            ComputeLubStep(order=query.role),
            AggregateStep(
                query.target_class,
                query.group_attr,
                query.value_attr,
                query.role,
                query.func,
            ),
        ]
    )


def execute(mediator, query):
    """Plan and execute; returns (plan, context).

    Under the mediator's resilience guard, a source failing during
    retrieval is recorded in ``context.errors`` and the plan continues
    with the remaining sources; without a guard the failure raises.
    The whole run shares one :class:`PlanContext`: one deadline budget
    and one outcome list.
    """
    context = PlanContext(mediator)
    query_plan = plan(mediator, query)
    return query_plan, query_plan.execute(context)


class CorrelationResult(tuple):
    """The result of :meth:`Mediator.correlate`: an unpackable
    ``(plan, context)`` pair that *also* surfaces degradation directly,
    so callers can detect a partial answer without re-running the
    query through ``explain()``::

        result = mediator.correlate(query)
        plan, context = result            # tuple compatibility
        if result.degraded:
            print(result.degraded_answer().format())
    """

    __slots__ = ()

    def __new__(cls, query_plan, context):
        return super().__new__(cls, (query_plan, context))

    @property
    def context(self):
        return self[1]

    @property
    def answers(self):
        """(group value, Distribution) pairs — the paper's answer(P, D)."""
        return self[1].answers

    @property
    def degraded(self):
        """True when the answer may be missing a source's contribution."""
        return self[1].degraded

    def degraded_answer(self):
        """The per-source :class:`~repro.resilience.DegradedAnswer`."""
        return self[1].degraded_answer()

    def __repr__(self):
        return "CorrelationResult(answers=%d, degraded=%r)" % (
            len(self.answers),
            self.degraded,
        )


class QueryExplain:
    """EXPLAIN output for a correlation query: the executed plan
    annotated with per-step wall time and cardinality, the skip
    records, and the trace metrics of the run.

    Returned by :meth:`Mediator.explain` when handed a
    :class:`CorrelationQuery`; render with :meth:`format` or export
    with :meth:`as_dict`.
    """

    def __init__(self, query_plan, context, steps, metrics):
        self.plan = query_plan
        self.context = context
        #: list of dicts: index, kind, describe, seconds, cardinality,
        #: events (plan.source_skipped skips plus cache.hit markers,
        #: each tagged with an ``event`` key)
        self.steps = steps
        self.metrics = metrics

    def format(self, mask_timings=False):
        """Human-readable EXPLAIN block (deterministic when timings
        are masked)."""
        lines = ["EXPLAIN correlation plan (%d steps)" % len(self.steps)]
        for step in self.steps:
            if mask_timings or step["seconds"] is None:
                timing = "      --"
            else:
                timing = "%7.2fms" % (step["seconds"] * 1000.0)
            lines.append(
                "%d. [%s] %s" % (step["index"], step["kind"], step["describe"])
            )
            lines.append(
                "     time=%s  cardinality=%s" % (timing.strip(), step["cardinality"])
            )
            for event in step["events"]:
                name = event.get("event", "plan.source_skipped")
                if name == "plan.source_skipped":
                    lines.append(
                        "     ! %s: %s (%s)"
                        % (event["source"], event["error"], event["message"])
                    )
                else:  # cache.hit markers
                    lines.append(
                        "     ! %s %s.%s"
                        % (name, event["source"], event["class_name"])
                    )
        if self.context.degraded:
            lines.extend(self.degraded_answer().format().splitlines())
        from ..obs.render import render_metrics

        lines.extend(render_metrics(self.metrics))
        return "\n".join(lines)

    def as_dict(self, mask_timings=False):
        steps = []
        for step in self.steps:
            exported = dict(step)
            if mask_timings:
                exported["seconds"] = None
            steps.append(exported)
        return {
            "steps": steps,
            "degraded": self.context.degraded,
            "skipped_sources": [source for source, _exc in self.context.errors],
            "failures": [
                {"source": source, "error": type(exc).__name__, "message": str(exc)}
                for source, exc in self.context.errors
            ],
            "degraded_answer": self.degraded_answer().as_dict(),
            "metrics": self.metrics.as_dict(),
        }

    def degraded_answer(self):
        """The per-source :class:`~repro.resilience.DegradedAnswer`
        for this run (the degraded-answer contract)."""
        return self.context.degraded_answer()

    def __repr__(self):
        return "QueryExplain(steps=%d, degraded=%r)" % (
            len(self.steps),
            self.context.degraded,
        )


#: span events surfaced per step in QueryExplain: skips (degradation)
#: and the medcache hit markers
_EXPLAIN_EVENTS = ("plan.source_skipped", "cache.hit")


def explain(mediator, query):
    """Plan *and execute* `query` under a private tracer; returns a
    :class:`QueryExplain` with per-step timings and cardinalities.

    Like SQL ``EXPLAIN ANALYZE``, this runs the query: cardinalities
    and timings are measured, not estimated.
    """
    with obs.capture("explain") as tracer:
        query_plan, context = execute(mediator, query)
    steps = []
    for span in tracer.find_spans("plan.step"):
        steps.append(
            {
                "index": span.attrs["index"],
                "kind": span.attrs["kind"],
                "describe": span.attrs["describe"],
                "seconds": span.duration(),
                "cardinality": span.attrs.get("cardinality"),
                "events": [
                    dict(event.attrs, event=event.name)
                    for event in span.events
                    if event.name in _EXPLAIN_EVENTS
                ],
            }
        )
    return QueryExplain(query_plan, context, steps, tracer.metrics)
