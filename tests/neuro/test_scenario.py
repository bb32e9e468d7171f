"""Integration tests: the full KIND Neuroscience scenario."""

import pytest

from repro.core import CorrelationQuery, planner
from repro.domainmap import Reasoner, edge_census, has_a_star, isa_closure, lub
from repro.errors import PlanningError
from repro.neuro import (
    FIGURE3_REGISTRATION,
    build_anatom,
    build_figure1,
    build_figure3_base,
    build_ncmir,
    build_scenario,
    build_senselab,
    build_synapse,
    section5_query,
)
from repro.neuro.ncmir import generate_rows as ncmir_rows
from repro.neuro.senselab import generate_rows as senselab_rows
from repro.neuro.synapse import generate_rows as synapse_rows


@pytest.fixture(scope="module")
def scenario():
    return build_scenario()


@pytest.fixture(scope="module")
def mediator(scenario):
    return scenario.mediator


class TestAnatomDomainMap:
    def test_figure1_shape(self):
        dm = build_figure1()
        census = edge_census(dm)
        assert census == {"eqv": 2, "ex": 10, "isa": 10}
        assert len(dm.concepts) == 16

    def test_figure1_axiom_consequences(self):
        dm = build_figure1()
        closure = isa_closure(dm)
        assert ("Purkinje_Cell", "Neuron") in closure
        star = has_a_star(dm, "has")
        assert ("Purkinje_Cell", "Spine") in star
        assert ("Pyramidal_Cell", "Spine") in star

    def test_figure3_registration(self):
        from repro.domainmap import definite_projections, register_concepts

        dm = build_figure3_base()
        result = register_concepts(dm, FIGURE3_REGISTRATION)
        assert result.new_concepts == ["MyDendrite", "MyNeuron"]
        assert definite_projections(dm, "MyNeuron", "proj") == [
            "Globus_Pallidus_External"
        ]

    def test_anatom_contains_all_layers(self):
        dm = build_anatom()
        for concept in ("Spine", "Medium_Spiny_Neuron", "Cerebellum", "Parallel_Fiber"):
            assert concept in dm.concepts

    def test_region_containment(self):
        dm = build_anatom()
        star = has_a_star(dm, "has")
        assert ("Cerebellum", "Cerebellar_Cortex") in star
        assert ("Purkinje_Cell", "Purkinje_Dendrite") in star

    def test_lub_of_purkinje_parts(self):
        dm = build_anatom()
        assert lub(dm, ["Purkinje_Dendrite", "Purkinje_Soma"], order="has") == "Purkinje_Cell"
        assert lub(dm, ["Purkinje_Cell", "Purkinje_Dendrite"], order="has") == "Purkinje_Cell"


class TestSourceGenerators:
    def test_deterministic(self):
        assert ncmir_rows(seed=7) == ncmir_rows(seed=7)
        assert synapse_rows(seed=7) == synapse_rows(seed=7)
        assert senselab_rows(seed=7) == senselab_rows(seed=7)

    def test_seed_changes_data(self):
        assert ncmir_rows(seed=7) != ncmir_rows(seed=8)

    def test_scale_multiplies(self):
        assert len(ncmir_rows(scale=2)) == 2 * len(ncmir_rows(scale=1))
        assert len(senselab_rows(scale=3)) == 3 * len(senselab_rows(scale=1))

    def test_ncmir_has_calcium_and_controls(self):
        ions = {row["ion"] for row in ncmir_rows()}
        assert "calcium" in ions
        assert len(ions) > 1

    def test_synapse_condition_effect(self):
        rows = synapse_rows(seed=3, scale=4)
        spines = [r for r in rows if "spine" in r["location"]]
        mean = lambda cond: sum(
            r["length_um"] for r in spines if r["condition"] == cond
        ) / len([r for r in spines if r["condition"] == cond])
        assert mean("enriched") > mean("deprived")

    def test_senselab_parallel_fiber_pathway_present(self):
        rows = senselab_rows()
        pf = [r for r in rows if r["t_compartment"] == "parallel fiber"]
        assert pf
        assert all(r["r_neuron"] == "Purkinje_Cell" for r in pf)


class TestMediatedSystem:
    def test_three_sources_registered(self, mediator):
        assert mediator.source_names() == ["NCMIR", "SENSELAB", "SYNAPSE"]

    def test_wire_messages_logged(self, mediator):
        assert len(mediator.wire_log) == 3

    def test_multiple_worlds_visible_through_dm(self, mediator):
        # SYNAPSE data is Spine data; NCMIR data is Dendrite data —
        # both visible through their DM superconcepts.
        assert len(mediator.ask("X : 'Pyramidal_Spine'")) > 0
        assert len(mediator.ask("X : 'Spine'")) > 0
        assert len(mediator.ask("X : 'Purkinje_Dendrite'")) > 0
        assert len(mediator.ask("X : 'Compartment'")) > 0

    def test_loose_federation_join(self, mediator):
        # Example 1's correlation: spine morphology (SYNAPSE) and
        # calcium-binding proteins (NCMIR) meet at the Spine concept.
        spine_objects = {r["X"] for r in mediator.ask("X : 'Spine'")}
        assert any(obj.startswith("SYNAPSE") for obj in spine_objects)
        assert any(obj.startswith("NCMIR") for obj in spine_objects)

    def test_views_answer(self, mediator):
        names = {r["N"] for r in mediator.ask("X : calcium_binding_protein[name -> N]")}
        assert "Ryanodine Receptor" in names
        assert "GABA-A Receptor" not in names

    def test_spine_change_view(self, mediator):
        rows = mediator.ask("X : spine_change[condition -> C; length_um -> L]")
        assert {r["C"] for r in rows} == {"control", "enriched", "deprived"}

    def test_neurotransmission_path_view(self, mediator):
        rows = mediator.ask(
            "X : neurotransmission_path[from -> 'Granule Cell'; to -> T]"
        )
        assert {r["T"] for r in rows} == {"Purkinje_Cell"}

    def test_source_semantic_rules_active(self, mediator):
        assert len(mediator.ask("X : excitatory_transmission")) > 0
        assert len(mediator.ask("X : large_spine")) > 0


class TestExample4:
    def test_protein_distribution(self, mediator):
        distribution = mediator.compute_distribution(
            "Cerebellum",
            "amount",
            group_attr="protein_name",
            group_value="Ryanodine Receptor",
            filters={"organism": "rat"},
        )
        dendrite = distribution.row("Purkinje_Dendrite")
        soma = distribution.row("Purkinje_Soma")
        assert dendrite.direct is not None
        assert soma.direct is not None
        # dendritic RyR dominates somatic RyR (the generator encodes the
        # known biology: mean 8.0 vs 3.0)
        assert dendrite.direct > soma.direct
        assert distribution.total() == pytest.approx(
            sum(row.direct for row in distribution.rows if row.direct)
        )

    def test_distribution_isolated_from_hippocampus(self, mediator):
        cerebellum = mediator.compute_distribution(
            "Cerebellum", "amount", group_attr="protein_name", group_value="Calbindin"
        )
        assert cerebellum.row("Pyramidal_Dendrite") is None or (
            cerebellum.row("Pyramidal_Dendrite").direct is None
        )

    def test_materialized_view_queryable(self):
        scenario = build_scenario()
        mediator = scenario.mediator
        mediator.materialize_distribution(
            "protein_distribution",
            "Ryanodine Receptor",
            "Cerebellum",
            filters={"organism": "rat"},
            extra={"animal": "rat"},
        )
        rows = mediator.ask(
            "D : protein_distribution[protein_name -> 'Ryanodine Receptor'; animal -> A]"
        )
        assert rows == [{"A": "rat", "D": rows[0]["D"]}]


class TestSection5Query:
    def test_plan_shape(self, mediator):
        plan = planner.plan(mediator, section5_query())
        assert plan.kinds == [
            "push-selection",
            "select-sources",
            "retrieve",
            "compute-lub",
            "aggregate",
        ]

    def test_source_selection_returns_only_ncmir(self, mediator):
        plan, context = mediator.correlate(section5_query())
        assert context.selected_sources == ["NCMIR"]

    def test_lub_is_purkinje_cell(self, mediator):
        plan, context = mediator.correlate(section5_query())
        assert context.root == "Purkinje_Cell"

    def test_answers_are_calcium_binders_only(self, mediator):
        plan, context = mediator.correlate(section5_query())
        proteins = {group for group, _dist in context.answers}
        assert "Ryanodine Receptor" in proteins
        assert "Calbindin" in proteins
        assert "GABA-A Receptor" not in proteins
        assert "Kv1.1 Channel" not in proteins

    def test_distributions_nonempty(self, mediator):
        plan, context = mediator.correlate(section5_query())
        for _group, distribution in context.answers:
            assert distribution.total() is not None
            assert distribution.total() > 0

    def test_seed_bindings_limited_to_rat_parallel_fiber(self, mediator):
        plan, context = mediator.correlate(section5_query())
        rows = context.rows[("SENSELAB", "neurotransmission")]
        assert all(row["organism"] == "rat" for row in rows)
        assert all(
            row["transmitting_compartment"] == "parallel fiber" for row in rows
        )

    def test_unanswerable_seed_selection_rejected_at_planning(self, mediator):
        bad = CorrelationQuery(
            seed_class="neurotransmission",
            seed_selections={"epsp_mv": 1.0},  # not a declared pattern
            anchor_attrs=("receiving_neuron",),
            target_class="protein_amount",
            target_anchor_attr="location",
            group_attr="protein_name",
            value_attr="amount",
            seed_source="SENSELAB",
        )
        with pytest.raises(PlanningError):
            planner.plan(mediator, bad)

    def test_seed_source_inferred(self, mediator):
        query = section5_query()
        query.seed_source = None
        plan = planner.plan(mediator, query)
        assert plan.steps[0].source == "SENSELAB"

    def test_plan_describe_readable(self, mediator):
        text = planner.plan(mediator, section5_query()).describe()
        assert "push" in text
        assert "lub" in text

    def test_lazy_scenario_also_answers(self):
        lazy = build_scenario(eager=False)
        plan, context = lazy.mediator.correlate(section5_query())
        proteins = {group for group, _dist in context.answers}
        assert "Ryanodine Receptor" in proteins


class TestReasoningOverAnatom:
    def test_figure1_fragment_reasoner(self):
        # Figure 1 itself is in the decidable fragment.
        dm = build_figure1()
        reasoner = Reasoner(dm)
        assert reasoner.subsumes("Neuron", "Purkinje_Cell")
        assert not reasoner.subsumes("Purkinje_Cell", "Pyramidal_Cell")

    def test_full_anatom_outside_fragment(self):
        # Figure 3's disjunctive projections put ANATOM outside it.
        from repro.errors import UndecidableFragmentError

        with pytest.raises(UndecidableFragmentError):
            Reasoner(build_anatom())
