"""The mediator evaluates its knowledge base once and answers many
queries from that model.

``ask`` and ``correlate`` continue the cached per-revision model; these
tests hold them to a from-scratch evaluation, on the Section 5
scenario and on every example deployment, and check that every kind of
change — including a direct edit of the domain map — is seen.
"""

import contextlib
import io
import pathlib
import runpy

import pytest

import repro.flogic.engine as flogic_engine
from repro import obs
from repro.analysis.deploy import capture_deployments
from repro.cache import AnswerCache
from repro.core import Mediator
from repro.core.views import IntegratedView
from repro.datalog.engine import evaluate
from repro.flogic import FLogicEngine
from repro.datalog import parse_program
from repro.gcm import Constraint
from repro.neuro import analysis, build_scenario, section5_query
from tests.cache.conftest import build_cells_wrapper, build_dm, build_glia_wrapper

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)

#: queries every deployment can answer: all memberships, subclass
#: pairs and method values
GENERIC_QUERIES = ("X : C", "X :: C", "X[M -> V]")

SECTION5_QUERIES = GENERIC_QUERIES + (
    "X : 'Compartment'",
    "X : protein_amount[ion_bound -> calcium; amount -> A], A > 1",
    "X : neurotransmission[organism -> rat]",
)


def from_scratch(program, base=None, **options):
    """``evaluate(..., base=)``'s contract, computed the slow way."""
    if base is not None:
        program = base.program + tuple(program)
    return evaluate(program, **options)


def fresh_ask(mediator, query, monkeypatch):
    """`query` answered by a new engine over the mediator's rules that
    evaluates the whole program, query rule included."""
    with monkeypatch.context() as patch:
        patch.setattr(flogic_engine, "evaluate", from_scratch)
        return FLogicEngine().tell_rules(mediator.assembled_rules()).ask(query)


def correlation_answer(result):
    return [
        (group, distribution.root, distribution.as_table())
        for group, distribution in result.answers
    ]


class TestAskEqualsFreshEvaluation:
    @pytest.fixture(scope="class")
    def mediator(self):
        return build_scenario(include_anatom_source=True).mediator

    @pytest.mark.parametrize("query", SECTION5_QUERIES)
    def test_section5_scenario(self, mediator, query, monkeypatch):
        assert mediator.ask(query) == fresh_ask(mediator, query, monkeypatch)

    def test_section5_analyses(self, mediator, monkeypatch):
        for run in (
            analysis.spine_length_by_condition,
            analysis.spine_length_by_species_age,
            analysis.protein_amount_by_compartment,
            analysis.correlate_worlds,
        ):
            with monkeypatch.context() as patch:
                patch.setattr(flogic_engine, "evaluate", from_scratch)
                fresh = run(FreshKB(mediator.assembled_rules()))
            assert run(mediator) == fresh

    def test_asks_do_not_reevaluate_the_knowledge_base(self, mediator):
        model = mediator.evaluate()
        mediator.ask("X : 'Compartment'")
        mediator.ask("X :: C")
        assert mediator.evaluate() is model

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_example_deployment(self, path, monkeypatch):
        with capture_deployments() as (mediators, _maps):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
        # domain_map_reasoning reasons over a domain map alone
        assert mediators or path.stem == "domain_map_reasoning"
        for mediator in mediators:
            for query in GENERIC_QUERIES:
                assert mediator.ask(query) == fresh_ask(
                    mediator, query, monkeypatch
                ), (path.name, mediator.name, query)


class FreshKB:
    """A new engine over a rule list, quacking like a mediator for the
    ``neuro.analysis`` helpers."""

    def __init__(self, rules):
        self.engine = FLogicEngine().tell_rules(rules)

    def ask(self, query):
        return self.engine.ask(query)


class TestDomainMapRevision:
    def test_every_mutator_bumps_the_revision(self):
        dm = build_scenario().mediator.dm
        for mutate in (
            lambda: dm.add_concept("Fresh_Concept"),
            lambda: dm.add_axiom("Fresh_Concept < Compartment"),
        ):
            before = dm.revision
            mutate()
            assert dm.revision > before

    def test_ask_sees_a_direct_domain_map_change(self):
        mediator = build_scenario().mediator
        query = "X :: 'Compartment'"
        assert {"X": "Fresh_Part"} not in mediator.ask(query)
        mediator.dm.isa("Fresh_Part", "Compartment")
        assert {"X": "Fresh_Part"} in mediator.ask(query)

    def test_correlate_sees_a_direct_domain_map_change(self):
        mediator = build_scenario(eager=False).mediator
        before = correlation_answer(mediator.correlate(section5_query()))
        mediator.dm.ex("Purkinje_Cell", "has", "Fresh_Part")
        after = correlation_answer(mediator.correlate(section5_query()))

        fresh = build_scenario(eager=False).mediator
        fresh.dm.ex("Purkinje_Cell", "has", "Fresh_Part")
        assert after == correlation_answer(fresh.correlate(section5_query()))
        assert after != before

    @staticmethod
    def two_worlds_with_orgs_view(cache):
        dm = build_dm()
        dm.add_axioms("Organelle < Tissue_Part")
        mediator = Mediator(dm, name="two-worlds", cache=cache)
        mediator.register(build_cells_wrapper(), eager=True)
        mediator.register(build_glia_wrapper(), eager=True)
        mediator.add_view(IntegratedView("orgs", "X : orgs :- X : 'Organelle'."))
        return mediator

    def test_cached_view_sees_a_direct_dm_change(self):
        cached = self.two_worlds_with_orgs_view(AnswerCache())
        assert cached.ask("X : orgs") == []  # the model is now cached
        cached.dm.add_axioms("Neuron < Organelle")

        uncached = self.two_worlds_with_orgs_view(None)
        uncached.dm.add_axioms("Neuron < Organelle")
        expected = uncached.ask("X : orgs")
        assert len(expected) == 2
        assert cached.ask("X : orgs") == expected


class TestOtherEvaluatorsShareTheModel:
    """`check_integrity` and `ask_lazy` work from the model `ask`
    answers from."""

    def test_check_integrity_sees_inherited_defaults(self):
        mediator = Mediator(build_dm(), name="m")
        mediator.add_view(
            IntegratedView(
                "items", "item[size *-> 5]. widget :: item. w1 : widget."
            )
        )
        assert mediator.ask("w1[size -> V]") == [{"V": 5}]
        too_big = Constraint(
            "too_big",
            parse_program("instance(too_big(X), ic) :- method_val(X, size, 5)."),
        )
        report = mediator.check_integrity([too_big])
        assert [str(w.term) for w in report.witnesses] == ["too_big(w1)"]

    def test_ask_lazy_continues_the_cached_model(self):
        mediator = build_scenario(eager=False).mediator
        query = "X : neurotransmission[organism -> rat; receiving_neuron -> N]"
        model = mediator.evaluate()
        with obs.capture("t") as tracer:
            answers, _fetches = mediator.ask_lazy(query)
        assert answers
        assert tracer.metrics.counter_total("datalog.evaluations") == 0
        assert mediator.evaluate() is model
