"""Golden-file test: the masked span tree of the shipped Section 5
scenario is stable, byte for byte.

With timings masked the rendering is a pure *shape* — span names,
nesting, attributes, events, metric counters — so any change to the
instrumentation or to the evaluation itself shows up as a diff.

Regenerate after an intentional instrumentation change with::

    PYTHONPATH=src:. python -c "
    from tests.obs.test_golden_trace import traced_section5
    from repro import obs
    open('tests/obs/golden/section5_trace.txt', 'w').write(
        obs.render_tree(traced_section5(), mask_timings=True) + '\\n')"
"""

import pathlib

import pytest

from repro import obs
from repro.neuro import build_scenario, section5_query

GOLDEN = pathlib.Path(__file__).parent / "golden" / "section5_trace.txt"

#: every layer the trace must witness (ISSUE acceptance criterion)
REQUIRED_SPANS = {
    "plan.step",          # planner step execution
    "flogic.evaluate",    # F-logic evaluation
    "datalog.stratum",    # Datalog stratified evaluation
    "datalog.round",      # semi-naive rounds
    "datalog.continue",   # the plan's rows continuing the cached model
    "dm.lub",             # domain-map graph operation
    "source.query",       # wrapper retrieval
    "xml.wire",           # XML wire exchange
}


def traced_section5():
    """The shipped scenario's correlation run under a capture tracer."""
    with obs.capture("section5") as tracer:
        mediator = build_scenario(include_anatom_source=True).mediator
        mediator.correlate(section5_query())
    return tracer


@pytest.fixture(scope="module")
def tracer():
    return traced_section5()


def test_masked_trace_matches_golden_file(tracer):
    assert obs.render_tree(tracer, mask_timings=True) + "\n" == GOLDEN.read_text()


def test_trace_shape_is_deterministic():
    first = obs.render_tree(traced_section5(), mask_timings=True)
    second = obs.render_tree(traced_section5(), mask_timings=True)
    assert first == second


def test_trace_covers_every_layer(tracer):
    for name in sorted(REQUIRED_SPANS):
        assert tracer.find_spans(name), "no %r span recorded" % name


def test_trace_counts_the_evaluation_work(tracer):
    metrics = tracer.metrics
    assert metrics.counter_total("datalog.rule_firings") > 0
    assert metrics.counter_total("datalog.facts_derived") > 0
    assert metrics.counter_total("source.rows_retrieved") > 0
    assert metrics.counter_total("wire.bytes") > 0
    assert metrics.counter_total("planner.steps") == len(
        tracer.find_spans("plan.step")
    )
