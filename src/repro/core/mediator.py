"""The model-based mediator (Figure 2).

:class:`Mediator` ties the stack together:

* it owns the **domain map** and the **semantic index**;
* sources **register** their CM(S) — schema, semantic rules, query
  capabilities, anchors, optional DM refinements, optionally their
  lifted data (eager mode) — with the message crossing the XML wire
  when ``via_xml=True``;
* **integrated views** (F-logic rules and distribution views) are
  defined on top;
* queries are answered either by direct F-logic evaluation over the
  assembled knowledge base (:meth:`ask`) or through the Section 5
  **correlation plan** (:meth:`correlate`): push selections, select
  sources via the semantic index, retrieve, lub + aggregate.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..errors import (
    SEVERITY_ERROR,
    MediatorError,
    RegistrationError,
    ReproError,
    SourceError,
    ViewError,
)
from ..datalog.ast import Rule
from ..domainmap.execute import compile_domain_map
from ..domainmap.index import SemanticIndex
from ..domainmap.model import DomainMap
from ..domainmap.dl import parse_axioms
from ..domainmap.registry import defined_concepts, register_concepts
from ..flogic.engine import FLogicEngine
from ..gcm.constraints import check_model
from .aggregate import Distribution, aggregate_over_dm
from ..cache import (
    AnswerCache,
    affected_concepts,
    query_fingerprint,
    refinement_seeds,
)
from ..resilience.guard import SourceGuard
from ..resilience.policy import ResiliencePolicy
from .planner import (
    CorrelationQuery,
    CorrelationResult,
    execute as planner_execute,
    explain as planner_explain,
)
from .registration import build_registration, parse_registration
from .views import DistributionView, IntegratedView

#: how many of the newest XML messages :attr:`Mediator.wire_log` keeps,
#: so a long-lived mediator's log stays bounded
WIRE_LOG_LIMIT = 1024


def _cm_rules(registration):
    """The rules a registered source adds to the schema-only program."""
    return registration.cm.all_rules()


class RegisteredSource:
    """Mediator-side record of one registered source."""

    def __init__(self, wrapper, registration):
        self.wrapper = wrapper
        self.registration = registration

    def __repr__(self):
        return "RegisteredSource(%r)" % self.name


class Mediator:
    """A model-based mediator over one domain map.

    Args:
        dm: the :class:`~repro.domainmap.DomainMap` mediated over (a
            fresh empty one is created when omitted).
        name: the mediator's name (used in ids and reprs).
        dialogue_via_xml: round-trip every source query through the
            XML wire format (the architecture's "everything in XML").
        strict: lint every registration and view definition first and
            reject it (state untouched) on error-severity diagnostics.
        resilience: the medguard layer — a
            :class:`~repro.resilience.ResiliencePolicy` the mediator
            builds its :class:`~repro.resilience.SourceGuard` from
            (None = calls go straight through).  The guard is also the
            one way a failing source degrades the answer instead of
            aborting the plan.
        cache: the medcache layer — an
            :class:`~repro.cache.AnswerCache` (None = nothing is
            cached).
    """

    def __init__(
        self,
        dm=None,
        name="mediator",
        dialogue_via_xml=False,
        strict=False,
        resilience=None,
        cache=None,
    ):
        self.name = name
        self.dm = dm if dm is not None else DomainMap("%s_dm" % name)
        self.index = SemanticIndex(self.dm)
        self.dialogue_via_xml = dialogue_via_xml
        #: with ``strict=True`` every registration and view definition
        #: is linted first and rejected (state untouched) if the
        #: analyzer reports error-severity diagnostics
        self.strict = strict
        #: the medguard layer: a :class:`~repro.resilience.SourceGuard`
        #: built from a :class:`~repro.resilience.ResiliencePolicy`, or
        #: None — in which case every source call goes straight through
        if resilience is None:
            self.resilience = None
        elif isinstance(resilience, ResiliencePolicy):
            self.resilience = SourceGuard(resilience)
        else:
            raise MediatorError(
                "resilience must be a ResiliencePolicy, not %r"
                % type(resilience).__name__
            )
        #: the medcache layer: an :class:`~repro.cache.AnswerCache`, or
        #: None — in which case source calls are never cached
        if cache is not None and not isinstance(cache, AnswerCache):
            raise MediatorError(
                "cache must be an AnswerCache, not %r" % type(cache).__name__
            )
        self.cache = cache
        self._sources: Dict[str, RegisteredSource] = {}
        self._views: Dict[str, object] = {}
        self._view_rules_by_name: Dict[str, List[Rule]] = {}
        self._facts: List[Rule] = []
        self._materialized: List[Rule] = []
        #: (dm.revision, schema-only engine, full engine): the full
        #: knowledge base continues the schema-only model with the
        #: instance data, and writes maintain both (see _write)
        self._models: Optional[Tuple[int, FLogicEngine, FLogicEngine]] = None
        self._engines_lock = threading.Lock()
        self._wire_log: Deque[Tuple[str, int]] = deque(maxlen=WIRE_LOG_LIMIT)

    # -- registration ---------------------------------------------------

    def register(self, wrapper, dm_refinement=None, eager=True, via_xml=True):
        """Register a wrapped source.

        Args:
            wrapper: the :class:`~repro.sources.Wrapper` joining.
            dm_refinement: DL axiom text refining the domain map first
                (Figure 3 mechanism).
            eager: load the source's lifted instance data now; with
                ``eager=False`` data is only fetched by query plans.
            via_xml: round-trip the registration through the XML wire
                format (the architecture's "everything in XML" path).
        """
        if wrapper.name in self._sources:
            raise RegistrationError("source %r already registered" % wrapper.name)
        with obs.span(
            "mediator.register",
            source=wrapper.name,
            via_xml=via_xml,
            eager=eager,
        ):
            return self._register(wrapper, dm_refinement, eager, via_xml)

    def _register(self, wrapper, dm_refinement, eager, via_xml):
        if via_xml:
            with obs.span(
                "xml.wire", kind="register", source=wrapper.name
            ) as wire_span:
                message = build_registration(
                    wrapper, include_data=eager, dm_refinement=dm_refinement
                )
                self._wire_log.append(
                    ("register:%s" % wrapper.name, len(message))
                )
                registration = parse_registration(message)
                wire_span.set(bytes=len(message))
            obs.count("wire.messages", kind="register")
            obs.count("wire.bytes", len(message), kind="register")
        else:
            from .registration import ParsedRegistration

            registration = ParsedRegistration(
                wrapper.name,
                wrapper.schema_cm(),
                wrapper.capabilities(),
                wrapper.anchors(),
                dm_refinement,
                wrapper.export_all_facts() if eager else [],
            )

        if self.strict:
            self._require_clean_registration(registration)
        # a registration that raises changes nothing: every anchor
        # concept is checked before the map, the index or the cache
        # is touched (register_concepts validates before it mutates)
        refinement = parse_axioms(registration.refinement or "")
        defined = defined_concepts(refinement)
        for _class_name, concept, _context in registration.anchors:
            if concept not in defined:
                self.dm.require_concept(concept)
        if registration.refinement:
            refinement_result = register_concepts(
                self.dm, refinement, allow_new_roles=True
            )
            self._cache_invalidate_change(
                refinement_seeds(refinement_result),
                reason="register:%s" % registration.source,
            )
        record = RegisteredSource(wrapper, registration)

        def commit():
            for class_name, concept, context in registration.anchors:
                self.index.add_anchor(wrapper.name, class_name, concept, context)
            self._sources[wrapper.name] = record
            self._facts.extend(registration.facts)

        self._write(
            commit,
            schema_added=_cm_rules(registration),
            data_added=registration.facts,
        )
        return registration

    def deregister(self, source_name):
        """Remove the source named `source_name` (anchors included).
        Its rules and loaded facts are retracted from the evaluated
        models (see :meth:`engine`)."""
        record = self._sources.get(source_name)
        if record is None:
            raise RegistrationError("source %r is not registered" % source_name)
        concepts = self.index.concepts_of_source(source_name)

        def commit():
            del self._sources[source_name]
            self.index.remove_source(source_name)
            self._facts = [
                fact
                for other in self._sources.values()
                for fact in other.registration.facts
            ]

        self._write(
            commit,
            schema_removed=_cm_rules(record.registration),
            data_removed=record.registration.facts,
        )
        if self.cache is not None:
            self.cache.invalidate_source(source_name)
            self._cache_invalidate_change(
                concepts, reason="deregister:%s" % source_name
            )

    def wrapper(self, source_name):
        """The registered :class:`~repro.sources.Wrapper` named
        `source_name` (raises for unknown sources)."""
        record = self._sources.get(source_name)
        if record is None:
            raise MediatorError("unknown source %r" % source_name)
        return record.wrapper

    def source_names(self):
        """Sorted names of the registered sources."""
        return sorted(self._sources)

    def capabilities(self, source_name):
        """The ``class -> QueryCapability`` map the source named
        `source_name` registered with."""
        record = self._sources.get(source_name)
        if record is None:
            raise MediatorError("unknown source %r" % source_name)
        return record.registration.capabilities

    @property
    def wire_log(self):
        """(message, size-in-bytes) pairs of the newest
        :data:`WIRE_LOG_LIMIT` XML messages exchanged."""
        return list(self._wire_log)

    def source_query(self, source_name, source_query, plan=None):
        """Send `source_query` (a :class:`~repro.sources.SourceQuery`)
        to the source named `source_name`, honouring
        `dialogue_via_xml`.

        With the XML dialogue on, the request and answer cross the wire
        format of :mod:`repro.xmlio.messages` (and are logged); the
        decoded rows are what the mediator lifts.

        Any unexpected exception escaping the wrapper is normalized to
        a :class:`~repro.errors.SourceError` here (the original kept as
        ``__cause__``), so callers — the plan's retrieve step, the
        resilience layer — see one failure vocabulary.  When a
        :class:`~repro.resilience.ResiliencePolicy` is configured, the
        call runs under the guard: retries, circuit breaking and
        timeouts apply per attempt, and the call either returns fresh
        rows or raises.

        When an :class:`~repro.cache.AnswerCache` is configured, it is
        consulted *above* the guard, keyed by
        :func:`~repro.cache.query_fingerprint`: a hit skips the wire,
        the retries and the breaker bookkeeping entirely (a cached
        answer beats an open breaker), and a miss stores the rows the
        call returned.

        Args:
            source_name: the registered source to ask.
            source_query: the class, selections and projection.
            plan: the :class:`~repro.core.planner.PlanContext` issuing
                the call, or None.  The plan's deadline bounds the
                guard's retries and the call's
                :class:`~repro.resilience.CallOutcome` joins the plan's
                outcomes.
        """
        wrapper = self.wrapper(source_name)
        class_name = source_query.class_name
        cache = self.cache
        if cache is not None:
            key = query_fingerprint(
                source_name,
                source_query,
                self.capabilities(source_name).get(class_name),
            )
            entry = cache.lookup(key)
            if entry is not None:
                obs.event("cache.hit", source=source_name, class_name=class_name)
                obs.count("cache.hits", source=source_name)
                return list(entry.rows)
            obs.count("cache.misses", source=source_name)
        guard = self.resilience
        if guard is None:
            rows = self._source_query(wrapper, source_query)
        else:
            rows = guard.call(
                source_name,
                class_name,
                lambda: self._source_query(wrapper, source_query),
                deadline=plan.deadline if plan is not None else None,
                outcomes=plan.outcomes if plan is not None else None,
            )
        if cache is not None:
            cache.store_answer(
                key,
                source_name,
                class_name,
                rows,
                concepts=self.index.concepts_of_class(source_name, class_name),
            )
            obs.count("cache.puts", source=source_name)
        return rows

    def _source_query(self, wrapper, source_query):
        """One source-call attempt, with the failure vocabulary
        normalized at this boundary."""
        try:
            if not self.dialogue_via_xml:
                return wrapper.query(source_query)
            return self._source_query_xml(wrapper, source_query)
        except ReproError:
            raise
        except Exception as exc:
            raise SourceError(
                "source %r raised %s: %s"
                % (wrapper.name, type(exc).__name__, exc)
            ) from exc

    def _source_query_xml(self, wrapper, source_query):
        from ..xmlio.messages import handle_request, query_to_xml, rows_from_xml

        source_name = wrapper.name
        with obs.span(
            "xml.wire",
            kind="query",
            source=source_name,
            class_name=source_query.class_name,
        ) as wire_span:
            request = query_to_xml(source_query)
            answer = handle_request(wrapper, request)
            wire_span.set(bytes=len(request) + len(answer))
        obs.count("wire.messages", kind="query")
        obs.count("wire.bytes", len(request) + len(answer), kind="query")
        self._wire_log.append(
            ("query:%s.%s" % (source_name, source_query.class_name),
             len(request) + len(answer))
        )
        return rows_from_xml(answer)[1]

    # -- views ---------------------------------------------------------------

    def add_view(self, view):
        """Register an integrated view definition."""
        if view.name in self._views:
            raise MediatorError("view %r already defined" % view.name)
        if self.strict:
            self._require_clean_view(view)
        # translate before recording: an add_view that raises (say,
        # an F-logic parse error) leaves the mediator unchanged
        if isinstance(view, IntegratedView):
            with obs.span("mediator.add_view", view=view.name) as span:
                rules = view.datalog_rules()
                span.set(datalog_rules=len(rules))
        else:
            rules = []

        def commit():
            if isinstance(view, IntegratedView):
                self._view_rules_by_name[view.name] = rules
            self._views[view.name] = view

        self._write(commit, schema_added=rules)
        return view

    def view(self, name):
        """The view registered under `name` (raises when unknown)."""
        view = self._views.get(name)
        if view is None:
            raise MediatorError("unknown view %r" % name)
        return view

    def view_names(self):
        """Sorted names of the defined views."""
        return sorted(self._views)

    # -- knowledge base ----------------------------------------------------

    def _write(self, commit, schema_added=(), schema_removed=(),
               data_added=(), data_removed=()):
        """The one write path: `commit()` updates the mediator's records,
        which add the rules `schema_added` to the schema-only program
        and remove `schema_removed` from it, and add and remove instance
        data likewise.

        Every evaluated model is maintained with those rules before
        anything is committed, so a write whose maintenance raises
        leaves the mediator unchanged.  The records and the maintained
        models are then swapped in together under the engine lock: a
        reader sees the models from before the write or from after it.
        Models not evaluated yet (or of an older domain-map revision)
        are just dropped.
        """
        with self._engines_lock:
            models = self._models
            if not (schema_added or schema_removed or data_added or data_removed):
                commit()
                return
        schema = full = None
        if models is not None and models[0] == self.dm.revision and models[1].evaluated:
            _revision, old_schema, old_full = models
            schema = old_schema
            if schema_added or schema_removed:
                schema = old_schema.revised(schema_added, schema_removed)
                schema.evaluate()
            if old_full is not old_schema and old_full.evaluated:
                full = old_full.revised(
                    list(schema_added) + list(data_added),
                    list(schema_removed) + list(data_removed),
                )
                full.evaluate()
        with self._engines_lock:
            commit()
            if schema is None:
                self._models = None
            else:
                if full is None or not (self._facts or self._materialized):
                    full = self._data_engine(schema)
                self._models = (models[0], schema, full)

    def _data_engine(self, schema):
        """The full knowledge base: `schema`'s model continued with the
        instance data, or that model itself when there is none."""
        data = self._facts + self._materialized
        return schema.revised(added=data) if data else schema

    def _cache_invalidate_change(self, seeds, reason):
        """Drop the cached answers anchored where a change at the
        concepts `seeds` can reach (no-op without a cache).  Answer
        entries never feed the engines, so they are not reset here."""
        if self.cache is None:
            return
        self.cache.invalidate(
            concepts=affected_concepts(self.dm, set(seeds)), reason=reason
        )

    # -- static analysis ---------------------------------------------------

    def _require_clean_registration(self, registration):
        from ..analysis.deploy import registration_diagnostics

        diagnostics = registration_diagnostics(self, registration)
        self._require_clean(
            diagnostics,
            RegistrationError,
            "strict mediator %r rejected registration of source %r"
            % (self.name, registration.source),
        )

    def _require_clean_view(self, view):
        from ..analysis.deploy import view_diagnostics

        diagnostics = view_diagnostics(self, view)
        self._require_clean(
            diagnostics,
            ViewError,
            "strict mediator %r rejected view %r" % (self.name, view.name),
        )

    @staticmethod
    def _require_clean(diagnostics, error_class, prefix):
        errors = [d for d in diagnostics if d.severity == SEVERITY_ERROR]
        if errors:
            raise error_class(
                "%s: %s" % (prefix, "; ".join(str(d) for d in errors)),
                diagnostics=diagnostics,
            )

    def assembled_rules(self, include_data=True):
        """Every rule the mediator's engine runs on.

        ``include_data=False`` yields the schema-and-knowledge-only
        program (domain map, source CMs, views) without the loaded
        instance facts — what plan execution evaluates retrieved rows
        against, so a plan's filtering is not undone by eagerly loaded
        data.
        """
        rules: List[Rule] = []
        rules.extend(compile_domain_map(self.dm))
        for record in self._sources.values():
            rules.extend(_cm_rules(record.registration))
        for view_rules in self._view_rules_by_name.values():
            rules.extend(view_rules)
        if include_data:
            rules.extend(self._facts)
            rules.extend(self._materialized)
        return rules

    def engine(self, include_data=True):
        """The mediator's F-logic engine over :meth:`assembled_rules`
        (``include_data=False``: the schema-only program).

        The schema-only program is evaluated once; the full knowledge
        base continues that model with the instance data (with none, it
        is that model).  Registrations, deregistrations, views and
        materializations maintain both models (see :meth:`_write`); a
        domain-map change drops them (a direct ``dm.add_axiom``
        included: they are keyed on ``dm.revision``).
        """
        with self._engines_lock:
            models = self._models
            if models is None or models[0] != self.dm.revision:
                schema = FLogicEngine().tell_rules(
                    self.assembled_rules(include_data=False)
                )
                models = self._models = (
                    self.dm.revision, schema, self._data_engine(schema)
                )
            return models[2] if include_data else models[1]

    def evaluate(self):
        """Evaluate the knowledge base; returns an EvaluationResult."""
        return self.engine().evaluate()

    def evaluate_with(self, extra_facts, include_data=True):
        """Evaluate with the additional (lazily fetched) `extra_facts`,
        without mutating the mediator's knowledge base: the model of
        the cached engine is continued with them (see
        :meth:`FLogicEngine.evaluate_with`).

        ``include_data=False`` evaluates the extra facts against the
        knowledge only (domain map + schemas + views), ignoring any
        eagerly loaded instance data.
        """
        extra = list(extra_facts)
        with obs.span(
            "mediator.evaluate_with",
            extra_facts=len(extra),
            include_data=include_data,
        ):
            return self.engine(include_data=include_data).evaluate_with(extra)

    def ask(self, fl_query):
        """Answer the F-logic query text `fl_query` over the mediated
        knowledge base; returns the list of answer substitutions."""
        with obs.span("mediator.ask", query=fl_query) as span:
            answers = self.engine().ask(fl_query)
            span.set(answers=len(answers))
            return answers

    def ask_lazy(self, fl_query):
        """Answer `fl_query` by fetching only the source data it
        references (navigation-driven evaluation; see
        :mod:`repro.core.lazy`).  Returns (answers, fetches)."""
        from .lazy import ask_lazy

        return ask_lazy(self, fl_query)

    def explain(self, target):
        """EXPLAIN `target` — a query, or a fact's derivation.

        * Given a :class:`CorrelationQuery`, plans *and runs* it under
          a private tracer and returns a
          :class:`~repro.core.planner.QueryExplain` — the annotated
          plan with per-step wall time and cardinalities (the analogue
          of SQL ``EXPLAIN ANALYZE``).
        * Given F-logic fact text, returns its derivation tree, whose
          leaves are source-lifted facts, DM axioms and builtin checks
          (see :mod:`repro.datalog.provenance`).
        """
        if isinstance(target, CorrelationQuery):
            return planner_explain(self, target)
        return self.engine().explain(target)

    def check_integrity(self, constraints=(), raise_on_violation=False):
        """Two-phase integrity check of the given `constraints` over
        the mediated object base — the model :meth:`ask` answers from;
        with `raise_on_violation` the first violation raises instead of
        being reported."""
        return check_model(
            self.evaluate().store,
            constraints,
            raise_on_violation=raise_on_violation,
        )

    # -- source selection --------------------------------------------------

    def select_sources(self, concepts, target_class=None):
        """Sources with data anchored at any of the `concepts` (step 2
        of the Section 5 plan), optionally filtered to exporters of
        `target_class`."""
        sources = self.index.sources_for_any(concepts)
        if target_class is not None:
            sources = [
                source
                for source in sources
                if target_class in self.capabilities(source)
            ]
        return sources

    # -- distribution views ---------------------------------------------------

    def compute_distribution(
        self,
        root,
        value_attr,
        group_attr=None,
        group_value=None,
        filters=None,
        role="has",
        func="sum",
        store=None,
    ):
        """Run the recursive aggregate over the mediated object base.

        Args:
            root: DM concept the distribution is rooted at.
            value_attr: attribute carrying the aggregated value.
            group_attr / group_value: optional grouping attribute and
                the group to aggregate (e.g. one protein).
            filters: extra attribute -> value filters on the
                aggregated objects.
            role: DM relation traversed downward from the root.
            func: the aggregate function name (e.g. ``sum``).
            store: an evaluated fact store to aggregate over (the
                mediator's own evaluation when omitted).
        """
        if store is None:
            store = self.evaluate().store
        return aggregate_over_dm(
            self.dm,
            store,
            root,
            value_attr,
            role=role,
            func=func,
            group_attr=group_attr,
            group_value=group_value,
            filters=filters,
        )

    def materialize_distribution(
        self, view_name, group_value, root, filters=None, extra=None
    ):
        """Materialize one instance of the :class:`DistributionView`
        named `view_name` — the distribution of `group_value` rooted at
        `root`, optionally narrowed by `filters` — into the knowledge
        base, attaching any `extra` facts; returns the
        :class:`Distribution`."""
        view = self.view(view_name)
        if not isinstance(view, DistributionView):
            raise MediatorError("%r is not a distribution view" % view_name)
        distribution = self.compute_distribution(
            root,
            view.value_attr,
            group_attr=view.group_attr,
            group_value=group_value,
            filters=filters,
            role=view.role,
            func=view.func,
        )
        facts = view.materialize_facts(group_value, root, distribution, extra)
        self._write(
            lambda: self._materialized.extend(facts), data_added=facts
        )
        return distribution

    # -- planned queries -----------------------------------------------------

    def correlate(self, query):
        """Plan and execute the correlation `query`; returns a
        :class:`~repro.core.planner.CorrelationResult` — a ``(plan,
        context)`` pair that also surfaces degradation directly
        (``result.degraded``, ``result.degraded_answer()``).

        ``context.answers`` holds (group value, Distribution) pairs —
        the paper's ``answer(P, D)``.  Under a resilience guard, a
        failing source is recorded rather than aborting the plan, and
        the result reports the partial answer per source; without one
        the failure raises.
        """
        with obs.span("mediator.correlate", seed_class=query.seed_class) as span:
            query_plan, context = planner_execute(self, query)
            span.set(
                answers=len(context.answers),
                skipped=len(context.errors),
            )
            return CorrelationResult(query_plan, context)

    def __repr__(self):
        return "Mediator(%r, sources=%r, views=%r)" % (
            self.name,
            self.source_names(),
            self.view_names(),
        )
