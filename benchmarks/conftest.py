"""Shared helpers for the benchmark harness.

Each benchmark regenerates one artifact of the paper (figure, worked
example, or query plan) and asserts its shape, then times the kernel
with pytest-benchmark.  Run with ``-s`` to see the regenerated tables::

    pytest benchmarks/ --benchmark-only -s

Alongside the text report, every benchmark session writes
``BENCH_summary.json`` at the repo root: kernel name -> timing stats,
plus the key medtrace metric counters of one traced Section 5 run
(rule firings, facts derived, per-source rows, wire bytes), so the
bench trajectory is machine-readable run over run.
"""

from __future__ import annotations

import json
import pathlib

SUMMARY_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_summary.json"


def report(title, lines):
    """Print one regenerated artifact block (visible with -s)."""
    print()
    print("#" * 72)
    print("# %s" % title)
    print("#" * 72)
    for line in lines:
        print(line)


def _timing_rows(session_config):
    """pytest-benchmark stats, if the plugin ran any kernels."""
    bench_session = getattr(session_config, "_benchmarksession", None)
    rows = {}
    if bench_session is None:
        return rows
    for bench in getattr(bench_session, "benchmarks", ()):
        stats = getattr(bench, "stats", None)
        if stats is None:
            continue
        try:
            rows[bench.fullname] = {
                "min_s": stats.min,
                "mean_s": stats.mean,
                "max_s": stats.max,
                "stddev_s": stats.stddev,
                "rounds": stats.rounds,
            }
        except (AttributeError, TypeError):  # disabled/partial runs
            continue
    return rows


def _obs_counters():
    """Key metric counters from one traced Section 5 correlation run."""
    from repro import obs
    from repro.neuro import build_scenario, section5_query

    with obs.capture("bench-summary") as tracer:
        mediator = build_scenario(eager=False).mediator
        _plan, context = mediator.correlate(section5_query())
    metrics = tracer.metrics
    return {
        "answers": len(context.answers),
        "datalog.evaluations": metrics.counter_total("datalog.evaluations"),
        "datalog.rule_firings": metrics.counter_total("datalog.rule_firings"),
        "datalog.facts_derived": metrics.counter_total("datalog.facts_derived"),
        "dm.graphops": metrics.counter_total("dm.graphops"),
        "planner.steps": metrics.counter_total("planner.steps"),
        "source.queries": metrics.counter_total("source.queries"),
        "source.rows_retrieved": metrics.counter_total("source.rows_retrieved"),
        "wire.bytes": metrics.counter_total("wire.bytes"),
        "spans": sum(1 for _ in tracer.iter_spans()),
    }


def resilience_overhead(calls=200):
    """Per-call cost of the medguard layer on the source-query path.

    Three variants of the same repeated source query:

    * ``raw`` — the normalized call below the guard check (the
      pre-medguard hot path);
    * ``no_policy`` — through :meth:`Mediator.source_query` with no
      policy configured (adds one ``is None`` check: must be noise);
    * ``with_policy`` — through a default :class:`ResiliencePolicy`
      (breaker lookup + outcome record per call).
    """
    import time

    from repro.neuro import build_scenario
    from repro.resilience import ResiliencePolicy, SourceGuard
    from repro.sources import SourceQuery

    query = SourceQuery(
        "protein_amount", {"location": "Purkinje Cell dendrite"}
    )

    def timed(fn):
        fn()  # warm caches outside the timed window
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    mediator = build_scenario(eager=False).mediator
    wrapper = mediator.wrapper("NCMIR")
    raw_s = timed(lambda: mediator._source_query(wrapper, query))
    no_policy_s = timed(lambda: mediator.source_query("NCMIR", query))

    guarded = build_scenario(eager=False).mediator
    guarded.resilience = SourceGuard(ResiliencePolicy())
    with_policy_s = timed(lambda: guarded.source_query("NCMIR", query))

    return {
        "calls": calls,
        "raw_call_s": raw_s,
        "no_policy_call_s": no_policy_s,
        "with_policy_call_s": with_policy_s,
        "no_policy_overhead_ratio": no_policy_s / raw_s if raw_s else None,
        "with_policy_overhead_ratio": (
            with_policy_s / raw_s if raw_s else None
        ),
    }


def cache_effect(seed=2001):
    """Cold vs warm Section 5 correlation under one answer cache.

    Runs the correlation twice over the XML dialogue against the same
    mediator with medcache on: the cold run pays the wire, the warm
    run must answer entirely from cache (zero source queries, zero
    query wire bytes) and be measurably faster.
    """
    import time

    from repro import obs
    from repro.cache import AnswerCache
    from repro.neuro import build_scenario, section5_query

    mediator = build_scenario(
        seed=seed, eager=False, dialogue_via_xml=True, cache=AnswerCache()
    ).mediator
    runs = []
    for _ in range(2):
        with obs.capture("bench-cache") as tracer:
            start = time.perf_counter()
            result = mediator.correlate(section5_query())
            seconds = time.perf_counter() - start
        runs.append(
            {
                "seconds": seconds,
                "answers": len(result.context.answers),
                "source_queries": tracer.metrics.counter_total(
                    "source.queries"
                ),
                "query_wire_bytes": tracer.metrics.counter_value(
                    "wire.bytes", kind="query"
                ),
            }
        )
    cold, warm = runs

    # the correlation is dominated by datalog evaluation, so the
    # cache's effect is measured where it acts: one source call over
    # the XML wire vs one warm hit
    from repro.sources import SourceQuery

    query = SourceQuery(
        "protein_amount", {"location": "Purkinje Cell dendrite"}
    )

    def per_call(med, calls=200):
        med.source_query("NCMIR", query)  # warm outside the window
        start = time.perf_counter()
        for _ in range(calls):
            med.source_query("NCMIR", query)
        return (time.perf_counter() - start) / calls

    wire_call_s = per_call(
        build_scenario(seed=seed, eager=False, dialogue_via_xml=True).mediator
    )
    hit_call_s = per_call(mediator)

    return {
        "cold_s": cold["seconds"],
        "warm_s": warm["seconds"],
        "wire_call_s": wire_call_s,
        "hit_call_s": hit_call_s,
        "speedup_ratio": wire_call_s / hit_call_s if hit_call_s else None,
        "cold_source_queries": cold["source_queries"],
        "warm_source_queries": warm["source_queries"],
        "cold_query_wire_bytes": cold["query_wire_bytes"],
        "warm_query_wire_bytes": warm["query_wire_bytes"],
        "answers": cold["answers"],
        "entries": mediator.cache.entry_count,
        "hits": mediator.cache.stats.hits,
        "misses": mediator.cache.stats.misses,
    }


def pytest_sessionfinish(session, exitstatus):
    """Write the machine-readable benchmark summary at the repo root."""
    try:
        summary = {
            "timings": _timing_rows(session.config),
            "metrics": _obs_counters(),
            "resilience": resilience_overhead(),
            "cache": cache_effect(),
        }
    except Exception as exc:  # never fail the session over the summary
        summary = {"error": "%s: %s" % (type(exc).__name__, exc)}
    SUMMARY_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
