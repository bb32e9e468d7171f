"""PERF-GUARD — cost of the medguard resilience layer.

Characterizes (a) the overhead of the resilience layer on the
source-query hot path — with no policy configured it is one ``is
None`` check and must be noise-level; a default policy adds a breaker
lookup and an outcome record per call — and (b) the deterministic
chaos scenario (retries, backoff on a virtual clock, breaker trips,
degraded-answer assembly), whose report must reproduce byte-for-byte.
"""

import time

from conftest import report, resilience_overhead
from repro.neuro import build_scenario, section5_query
from repro.resilience import ResiliencePolicy, SourceGuard
from repro.resilience.chaos import run_chaos_scenario


def test_source_query_overhead(benchmark):
    stats = resilience_overhead()
    lines = [
        "variant        per-call(s)   vs raw",
        "raw            %11.3e     1.00x" % stats["raw_call_s"],
        "no policy      %11.3e  %7.2fx"
        % (stats["no_policy_call_s"], stats["no_policy_overhead_ratio"]),
        "with policy    %11.3e  %7.2fx"
        % (stats["with_policy_call_s"], stats["with_policy_overhead_ratio"]),
    ]
    report("PERF-GUARD: source-query overhead", lines)

    # generous bounds: timer noise on a loaded box, not a perf budget.
    # the no-policy path adds a single attribute check.
    assert stats["no_policy_overhead_ratio"] < 2.0
    assert stats["with_policy_overhead_ratio"] < 5.0

    mediator = build_scenario(eager=False).mediator
    query = section5_query()
    benchmark(lambda: mediator.correlate(query))


def test_guarded_correlation_cost(benchmark):
    rows = []
    for label, policy in (
        ("none", None),
        ("default", ResiliencePolicy()),
        ("deadline", ResiliencePolicy(plan_deadline=30.0)),
    ):
        scenario = build_scenario(eager=False)
        if policy is not None:
            scenario.mediator.resilience = SourceGuard(policy)
        start = time.perf_counter()
        result = scenario.mediator.correlate(section5_query())
        seconds = time.perf_counter() - start
        assert len(result.answers) == 4
        assert not result.degraded
        rows.append((label, seconds))

    lines = ["policy           q5(s)"]
    for label, seconds in rows:
        lines.append("%-15s %7.4f" % (label, seconds))
    report("PERF-GUARD: Section 5 under resilience policies", lines)

    scenario = build_scenario(eager=False)
    scenario.mediator.resilience = SourceGuard(ResiliencePolicy())
    query = section5_query()
    benchmark(lambda: scenario.mediator.correlate(query))


def test_chaos_scenario_cost(benchmark):
    first = run_chaos_scenario(seed=7)
    assert first.ok, first.format()
    assert run_chaos_scenario(seed=7).format() == first.format()

    lines = [
        "seed  ok    injected            virtual-backoff(s)",
        "%4d  %-5s %-19s %7.4f"
        % (
            7,
            first.ok,
            ",".join(
                "%s=%d" % pair for pair in sorted(first.injected.items())
            ),
            first.virtual_slept,
        ),
    ]
    report("PERF-GUARD: deterministic chaos scenario", lines)

    benchmark(lambda: run_chaos_scenario(seed=7))
