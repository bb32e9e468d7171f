"""A plan contacts each source once.

Planning builds the five steps from the query and the registered
capabilities alone; the anchor concepts step 1 binds are read by steps
2-4 when they run.  So `Mediator.plan` makes no source call, and the
calls one `correlate` makes are pairwise distinct: step 1 asks only the
seed source, step 3 excludes it, and different concepts map to disjoint
source values.
"""

import itertools

import pytest

from repro import obs
from repro.cache import capability_signature, query_fingerprint
from repro.core import planner
from repro.errors import UnknownConceptError
from repro.neuro import build_scenario, ncmir, section5_query, senselab


def count_wrapper_calls(mediator):
    """Make every registered wrapper count its queries (by source)."""
    calls = []
    for name in mediator.source_names():
        wrapper = mediator.wrapper(name)
        answer = wrapper.query

        def counting(query, _name=name, _answer=answer):
            calls.append(_name)
            return _answer(query)

        wrapper.query = counting
    return calls


def record_fingerprints(mediator):
    """Record the fingerprint of every `source_query` call."""
    fingerprints = []
    source_query = mediator.source_query

    def recording(source, query, plan=None):
        capability = mediator.capabilities(source).get(query.class_name)
        fingerprints.append(
            query_fingerprint(source, query, capability_signature(capability))
        )
        return source_query(source, query, plan=plan)

    mediator.source_query = recording
    return fingerprints


def section5_variants():
    """Every organism x transmitting compartment x bound ion variant of
    the Section 5 query, from the scenario's vocabularies (SENSELAB
    organisms and pathways, NCMIR ions)."""
    compartments = sorted({pathway[1] for pathway in senselab.PATHWAYS})
    ions = sorted({ion for ion, _profile in ncmir.PROTEIN_PROFILES.values()})
    for organism, compartment, ion in itertools.product(
        senselab.ORGANISMS, compartments, ions
    ):
        query = section5_query()
        query.seed_selections = {
            "organism": organism,
            "transmitting_compartment": compartment,
        }
        query.target_filters = {"ion_bound": ion, "organism": organism}
        yield pytest.param(
            query, id="%s-%s-%s" % (organism, compartment.replace(" ", "_"), ion)
        )


@pytest.fixture(scope="module")
def lazy_mediator():
    return build_scenario(eager=False).mediator


def test_plan_contacts_no_source():
    mediator = build_scenario(eager=False).mediator
    calls = count_wrapper_calls(mediator)
    plan = planner.plan(mediator, section5_query())
    assert calls == []
    assert len(plan.steps) == 5
    result = mediator.correlate(section5_query())
    assert len(result.answers) == 4
    assert calls.count("SENSELAB") == 1  # step 1, once


@pytest.mark.parametrize("query", section5_variants())
def test_one_correlate_makes_distinct_calls(lazy_mediator, query):
    mediator = lazy_mediator
    fingerprints = record_fingerprints(mediator)
    try:
        with obs.capture("calls") as tracer:
            result = mediator.correlate(query)
    finally:
        del mediator.source_query
    assert not result.degraded
    assert fingerprints  # step 1 always asks the seed source
    assert len(set(fingerprints)) == len(fingerprints)
    assert tracer.metrics.counter_total("source.queries") == len(fingerprints)


def test_unknown_anchor_concept_raises_when_the_plan_runs():
    mediator = build_scenario(eager=False).mediator
    mediator.wrapper("SENSELAB").query = lambda _query: [
        {
            "receiving_neuron": "Zz_Not_A_Concept",
            "receiving_compartment": "Purkinje_Dendrite",
        }
    ]
    planner.plan(mediator, section5_query())  # planning contacts no source
    with pytest.raises(UnknownConceptError):
        mediator.correlate(section5_query())
