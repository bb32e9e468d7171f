"""Unit tests for the planner steps and view machinery."""

import pytest

from repro.core import (
    CorrelationQuery,
    DistributionView,
    IntegratedView,
    Mediator,
    planner,
)
from repro.core.planner import (
    ComputeLubStep,
    PlanContext,
    PushSelectionStep,
    QueryPlan,
    RetrieveAnchoredStep,
    SelectSourcesStep,
)
from repro.errors import PlanningError
from repro.neuro import build_scenario, section5_query


@pytest.fixture(scope="module")
def mediator():
    return build_scenario(eager=False).mediator


class TestPlanSteps:
    def test_push_selection_step(self, mediator):
        step = PushSelectionStep(
            "SENSELAB",
            "neurotransmission",
            {"organism": "rat"},
            bind_attrs=("receiving_neuron",),
        )
        context = PlanContext(mediator)
        rows = step.run(context)
        assert rows
        assert context.bindings[("receiving_neuron",)] == [
            ("Purkinje_Cell",),
            ("Pyramidal_Cell",),
        ]

    ANCHORS = ("receiving_neuron", "receiving_compartment")

    def test_select_sources_step(self, mediator):
        step = SelectSourcesStep(
            self.ANCHORS, "protein_amount", exclude={"SENSELAB"}
        )
        context = PlanContext(mediator)
        context.bindings[self.ANCHORS] = [("Purkinje_Cell", "Purkinje_Dendrite")]
        assert step.run(context) == ["NCMIR"]
        assert context.concepts == ["Purkinje_Cell", "Purkinje_Dendrite"]

    def test_select_sources_excludes(self, mediator):
        step = SelectSourcesStep(
            self.ANCHORS, "protein_amount", exclude={"NCMIR", "SENSELAB"}
        )
        context = PlanContext(mediator)
        context.bindings[self.ANCHORS] = [("Purkinje_Cell", "Purkinje_Dendrite")]
        # NCMIR is anchored there and exports the class: only the
        # exclusion keeps it out
        assert "NCMIR" in mediator.select_sources(
            context.bindings[self.ANCHORS][0], "protein_amount"
        )
        assert step.run(context) == []
        assert step.concepts == ["Purkinje_Cell", "Purkinje_Dendrite"]

    def test_select_sources_filters_by_class(self, mediator):
        anchors = ("receiving_compartment",)
        step = SelectSourcesStep(anchors, "protein_amount")
        context = PlanContext(mediator)
        context.bindings[anchors] = [("Pyramidal_Spine",)]
        # SYNAPSE anchors there, but does not export protein_amount
        assert "SYNAPSE" in mediator.select_sources(["Pyramidal_Spine"])
        assert step.run(context) == []
        assert context.concepts == ["Pyramidal_Spine"]

    def test_retrieve_step_translates_concepts(self, mediator):
        context = PlanContext(mediator)
        context.selected_sources = ["NCMIR"]
        context.concepts = ["Purkinje_Soma"]
        step = RetrieveAnchoredStep(
            "protein_amount", "location", {"ion_bound": "calcium"}
        )
        retrieved = step.run(context)
        assert retrieved
        assert all(
            row["location"] == "Purkinje Cell soma" for _s, row in retrieved
        )
        assert all(row["ion_bound"] == "calcium" for _s, row in retrieved)

    def test_compute_lub_step(self, mediator):
        context = PlanContext(mediator)
        context.concepts = ["Purkinje_Dendrite", "Purkinje_Soma"]
        step = ComputeLubStep("has")
        assert step.run(context) == "Purkinje_Cell"
        assert context.root == "Purkinje_Cell"

    def test_steps_name_concepts_only_once_run(self, mediator):
        plan = planner.plan(mediator, section5_query())
        assert "Purkinje" not in plan.describe()
        plan.execute(PlanContext(mediator))
        text = plan.describe()
        assert "select sources anchored at ['Purkinje_Cell', " in text
        assert "lub of ['Purkinje_Cell', 'Purkinje_Dendrite']" in text

    def test_steps_have_descriptions(self, mediator):
        plan = planner.plan(mediator, section5_query())
        for step in plan.steps:
            assert step.describe()
            assert step.kind in repr(step)

    def test_plan_kinds_property(self, mediator):
        plan = QueryPlan(planner.plan(mediator, section5_query()).steps)
        assert len(plan.kinds) == 5


class TestPlanningErrors:
    def test_unknown_seed_class(self, mediator):
        query = CorrelationQuery(
            seed_class="nonexistent",
            seed_selections={},
            anchor_attrs=("a",),
            target_class="protein_amount",
            target_anchor_attr="location",
            group_attr="protein_name",
            value_attr="amount",
        )
        with pytest.raises(PlanningError):
            planner.plan(mediator, query)

    def test_ambiguous_seed_source(self, mediator):
        # no source exports this class -> cannot infer
        query = CorrelationQuery(
            seed_class="mystery",
            seed_selections={},
            anchor_attrs=("a",),
            target_class="protein_amount",
            target_anchor_attr="location",
            group_attr="protein_name",
            value_attr="amount",
            seed_source=None,
        )
        with pytest.raises(PlanningError):
            planner.plan(mediator, query)

    def test_wrong_seed_source(self, mediator):
        query = section5_query()
        query.seed_source = "NCMIR"  # does not export neurotransmission
        with pytest.raises(PlanningError):
            planner.plan(mediator, query)


class TestDistributionViewFacts:
    def test_instance_id_deterministic(self):
        view = DistributionView("v", "c", "g", "val")
        assert view.instance_id("RyR", "Root") == view.instance_id("RyR", "Root")
        assert view.instance_id("RyR", "Root") != view.instance_id("CB", "Root")

    def test_materialize_facts_shape(self, mediator):
        from repro.core.aggregate import Distribution, DistributionRow

        view = DistributionView("v", "c", "protein", "amount")
        rows = [
            DistributionRow("Root", 0, (), None, 5.0),
            DistributionRow("Leaf", 1, (5.0,), 5.0, 5.0),
            DistributionRow("Empty", 1, (), None, None),
        ]
        distribution = Distribution("Root", "has", "sum", rows)
        facts = view.materialize_facts("RyR", "Root", distribution, {"animal": "rat"})
        text = {str(f) for f in facts}
        # frame values present
        assert any("protein" in t and "RyR" in t for t in text)
        assert any("animal" in t for t in text)
        # one dist_row per region with a cumulative value (Empty skipped)
        dist_rows = [t for t in text if t.startswith("dist_row")]
        assert len(dist_rows) == 2

    def test_integrated_view_repr(self):
        view = IntegratedView("v", "X : v :- X : c.")
        assert "v" in repr(view)
