"""Writes maintain the mediator's models instead of dropping them.

``register`` continues each evaluated model with the source's rules and
facts, ``deregister`` retracts them, and the full knowledge base is the
schema-only model continued with the instance data.  These tests hold
the maintained models to fresh evaluations on the Section 5 scenario,
pin the deletion counts of a decoy source's deregistration, and check
that the overlay chain stays folded and that a failed maintenance
changes nothing.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.flogic.engine as flogic_engine
from repro import obs
from repro.core import Mediator
from repro.datalog.store import MAX_OVERLAY_DEPTH
from repro.errors import EvaluationError
from repro.flogic import FLogicEngine
from repro.neuro import build_scenario, ncmir, section5_query
from repro.sources import AnchorSpec, Column, RelStore, Wrapper
from tests.cache.conftest import build_cells_wrapper, build_dm, build_glia_wrapper
from tests.conftest import examples
from tests.datalog.test_continue import fallbacks

QUERIES = (
    "X : protein_amount",
    "X : 'Compartment'",
    "T = sum{A [C]; X : protein_amount[ion_bound -> calcium; amount -> A], "
    "anchor(X, C)}",
)


def decoy_source(name, seed):
    """A small NCMIR-shaped source of seeded protein measurements; its
    schema facts are NCMIR's."""
    rng = random.Random("%s/%s" % (seed, name))
    rows = rng.sample(ncmir.generate_rows(seed=rng.randrange(1 << 30)), 6)
    store = RelStore(name)
    table = store.create_table(
        "protein_amount",
        [
            Column("id", "int"),
            Column("protein", "str"),
            Column("ion", "str"),
            Column("location", "str"),
            Column("amount", "float"),
            Column("organism", "str"),
        ],
        key="id",
    )
    for row_id, row in enumerate(rows, start=1):
        table.insert(dict(row, id=row_id))
    wrapper = Wrapper(name, store)
    wrapper.export_class(
        "protein_amount",
        "protein_amount",
        "id",
        methods={
            "protein_name": "protein",
            "ion_bound": "ion",
            "location": "location",
            "amount": "amount",
            "organism": "organism",
        },
        anchor=AnchorSpec(column="location", mapping=ncmir.LOCATION_CONCEPTS),
        selectable={"location", "protein_name", "organism"},
    )
    return wrapper


def rounded(answers):
    """Answers with floats rounded: sums may add in another order."""
    return [
        {name: round(value, 9) if isinstance(value, float) else value
         for name, value in answer.items()}
        for answer in answers
    ]


def assert_models_fresh(mediator):
    """Both cached models equal fresh evaluations of the mediator's
    rules, and every query answers as a fresh engine does."""
    for include_data in (False, True):
        fresh = FLogicEngine().tell_rules(
            mediator.assembled_rules(include_data=include_data)
        )
        model = mediator.engine(include_data).evaluate()
        assert model.store.same_facts(fresh.evaluate().store), include_data
        if include_data:
            for query in QUERIES:
                assert rounded(mediator.ask(query)) == rounded(fresh.ask(query))


class TestWritesEqualFreshModels:
    @settings(max_examples=examples(3), deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["write", "ask"]), st.integers(0, 1)),
            min_size=1,
            max_size=5,
        )
    )
    def test_random_decoy_writes(self, steps):
        mediator = build_scenario().mediator
        mediator.evaluate()
        decoys = [decoy_source("DECOY%d" % k, 11) for k in range(2)]
        for kind, k in steps:
            if kind == "ask":
                assert_models_fresh(mediator)
            elif decoys[k].name in mediator.source_names():
                mediator.deregister(decoys[k].name)
            else:
                mediator.register(decoys[k], eager=True, via_xml=True)
        assert_models_fresh(mediator)

    def test_writes_maintain_without_reevaluating(self):
        mediator = build_scenario().mediator
        mediator.ask("X : 'Compartment'")
        with obs.capture("writes") as tracer:
            mediator.register(decoy_source("DECOY", 11), eager=True)
            mediator.ask("X : 'Compartment'")
            mediator.deregister("DECOY")
            mediator.ask("X : 'Compartment'")
        assert tracer.metrics.counter_total("datalog.evaluations") == 0
        assert set(fallbacks(tracer)) == {None}
        assert_models_fresh(mediator)

    def test_a_schema_fact_two_sources_state_stays(self):
        # the decoys' schema facts are NCMIR's too
        mediator = build_scenario().mediator
        mediator.register(decoy_source("DECOY", 11), eager=True)
        mediator.evaluate()
        mediator.deregister("NCMIR")
        assert_models_fresh(mediator)
        assert mediator.ask("X : protein_amount")

    def test_views_and_materializations_are_maintained(self):
        from repro.core.views import IntegratedView

        dm = build_dm()
        dm.add_axioms("Organelle < Tissue_Part")
        mediator = Mediator(dm, name="two-worlds")
        mediator.register(build_cells_wrapper(), eager=True)
        mediator.ask("X : C")
        mediator.add_view(IntegratedView("orgs", "X : orgs :- X : 'Organelle'."))
        mediator.register(build_glia_wrapper(), eager=True)
        assert_models_fresh(mediator)
        mediator.deregister(build_cells_wrapper().name)
        assert_models_fresh(mediator)


class TestOneModelChain:
    def test_non_eager_correlate_and_ask_evaluate_once(self):
        mediator = build_scenario(eager=False).mediator
        with obs.capture("chain") as tracer:
            mediator.correlate(section5_query())
            mediator.ask("X : 'Compartment'")
        assert tracer.metrics.counter_total("datalog.evaluations") == 1
        assert mediator.engine(True) is mediator.engine(False)

    def test_the_full_model_continues_the_schema_model(self):
        mediator = build_scenario().mediator
        with obs.capture("chain") as tracer:
            mediator.evaluate()
        assert tracer.metrics.counter_total("datalog.evaluations") == 1
        assert [span.name for span in tracer.find_spans("flogic.evaluate")] == [
            "flogic.evaluate"
        ]
        assert fallbacks(tracer) == [None]
        assert_models_fresh(mediator)


class TestDeletionCounts:
    def test_decoy_deregister_checks_only_its_own_facts(self):
        """The decoy's 48 registration facts take 102 facts with them;
        8 more are checked and keep a proof, so no cascade through the
        Table 1 axioms over-deletes shared classes."""
        mediator = build_scenario(include_anatom_source=True).mediator
        mediator.evaluate()
        mediator.register(decoy_source("DECOY", 11), eager=True, via_xml=True)
        with obs.capture("deregister") as tracer:
            mediator.deregister("DECOY")
        full = [
            span.attrs
            for span in tracer.find_spans("datalog.retract")
            if span.attrs["removed"]
        ]
        assert [
            (attrs["removed"], attrs["checked"], attrs["rederived"])
            for attrs in full
        ] == [(102, 110, 8)]
        counters = tracer.metrics
        assert counters.counter_total("datalog.facts_removed") == 102
        assert counters.counter_total("datalog.facts_checked") == 110
        assert counters.counter_total("datalog.facts_rederived") == 8
        assert set(fallbacks(tracer)) == {None}


class TestOverlayDepth:
    def test_many_cycles_stay_within_the_fold_constant(self):
        mediator = Mediator(build_dm(), name="cycles")
        mediator.register(build_cells_wrapper(), eager=True)
        mediator.ask("X : C")
        glia = build_glia_wrapper()
        for _cycle in range(200):
            mediator.register(glia, eager=True, via_xml=False)
            mediator.deregister(glia.name)
            for include_data in (False, True):
                depth = mediator.engine(include_data).evaluate().store.depth
                assert depth <= MAX_OVERLAY_DEPTH
        assert_models_fresh(mediator)


class TestFailedMaintenance:
    def test_a_register_whose_maintenance_raises_changes_nothing(self, monkeypatch):
        mediator = build_scenario().mediator
        mediator.ask("X : 'Compartment'")
        names = mediator.source_names()
        rules = mediator.assembled_rules()
        schema, full = mediator.engine(False), mediator.engine()
        concepts = mediator.index.concepts_of_source("NCMIR")

        def failing(program, *args, base=None, **options):
            if base is not None:
                raise EvaluationError("maintenance failed")
            return evaluate(program, *args, **options)

        evaluate = flogic_engine.evaluate
        monkeypatch.setattr(flogic_engine, "evaluate", failing)
        with pytest.raises(EvaluationError):
            mediator.register(decoy_source("DECOY", 11), eager=True)
        with pytest.raises(EvaluationError):
            mediator.deregister("NCMIR")
        monkeypatch.undo()
        assert mediator.source_names() == names
        assert mediator.assembled_rules() == rules
        assert mediator.engine(False) is schema and mediator.engine() is full
        assert mediator.index.concepts_of_source("NCMIR") == concepts
        assert mediator.index.concepts_of_source("DECOY") == []
        assert_models_fresh(mediator)
