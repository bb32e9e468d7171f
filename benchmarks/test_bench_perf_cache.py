"""PERF-CACHE — effect and cost of the medcache layer.

Characterizes (a) the warm-cache Section 5 correlation — zero source
calls, zero query wire bytes, measurably faster than the cold run;
(b) the no-cache overhead on the source-query hot path (one ``is
None`` check: must be noise); (c) domain-map-aware invalidation — a
registration refining one branch drops only the entries anchored
there; and (d) the byte-for-byte determinism of ``repro cache stats
--json`` under a fixed seed.
"""

import contextlib
import io
import time

from conftest import cache_effect, report
from repro import obs
from repro.cache import AnswerCache
from repro.neuro import build_scenario, section5_query
from repro.neuro.anatom_source import DM_REFINEMENT, build_anatom_source
from repro.sources import SourceQuery


def test_warm_cache_correlation(benchmark):
    stats = cache_effect()
    lines = [
        "run    q5(s)     source-queries  query-wire-bytes",
        "cold   %7.4f  %14d  %16d"
        % (stats["cold_s"], stats["cold_source_queries"], stats["cold_query_wire_bytes"]),
        "warm   %7.4f  %14d  %16d"
        % (stats["warm_s"], stats["warm_source_queries"], stats["warm_query_wire_bytes"]),
        "per source call: wire %.3es  hit %.3es  speedup %.1fx"
        % (stats["wire_call_s"], stats["hit_call_s"], stats["speedup_ratio"]),
        "entries=%d hits=%d misses=%d"
        % (stats["entries"], stats["hits"], stats["misses"]),
    ]
    report("PERF-CACHE: cold vs warm Section 5 over the XML wire", lines)

    assert stats["answers"] == 4
    assert stats["warm_source_queries"] == 0
    assert stats["warm_query_wire_bytes"] == 0
    assert stats["cold_query_wire_bytes"] > 0
    # a hit skips XML framing, parsing and the source scan; the
    # measured ratio is ~80x, asserted with a generous margin
    assert stats["speedup_ratio"] > 2.0

    mediator = build_scenario(
        eager=False, dialogue_via_xml=True, cache=AnswerCache()
    ).mediator
    query = section5_query()
    mediator.correlate(query)  # prime
    benchmark(lambda: mediator.correlate(query))


def test_no_cache_overhead(calls=200):
    query = SourceQuery(
        "protein_amount", {"location": "Purkinje Cell dendrite"}
    )

    def timed(fn):
        fn()  # warm interpreter caches outside the timed window
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    mediator = build_scenario(eager=False).mediator
    wrapper = mediator.wrapper("NCMIR")
    raw_s = timed(lambda: mediator._source_query(wrapper, query))
    no_cache_s = timed(lambda: mediator.source_query("NCMIR", query))

    cached = build_scenario(eager=False, cache=AnswerCache()).mediator
    warm_hit_s = timed(lambda: cached.source_query("NCMIR", query))

    lines = [
        "variant        per-call(s)   vs raw",
        "raw            %11.3e     1.00x" % raw_s,
        "cache=None     %11.3e  %7.2fx" % (no_cache_s, no_cache_s / raw_s),
        "warm hit       %11.3e  %7.2fx" % (warm_hit_s, warm_hit_s / raw_s),
    ]
    report("PERF-CACHE: source-query overhead with the cache off", lines)

    # generous bound, timer noise not a budget: the disabled-cache
    # path adds a single attribute check to the hot path
    assert no_cache_s / raw_s < 2.0


def _tiny_wrapper(name):
    from repro.sources import Column, RelStore, Wrapper

    store = RelStore(name)
    store.create_table(
        "t", [Column("id", "int"), Column("v", "int")], key="id"
    ).insert_many([{"id": 1, "v": 1}])
    wrapper = Wrapper(name, store)
    wrapper.export_class("%s_data" % name.lower(), "t", "id", methods={"v": "v"})
    return wrapper


def test_selective_invalidation_by_entry_count():
    mediator = build_scenario(
        eager=False, dialogue_via_xml=True, cache=AnswerCache()
    ).mediator
    mediator.correlate(section5_query())  # Purkinje-anchored entries
    mediator.source_query(  # one Pyramidal-anchored entry
        "SYNAPSE", SourceQuery("reconstruction", {"condition": "control"})
    )
    cache = mediator.cache
    counts = [cache.entry_count]

    # the ANATOM refinement grows the *basket/stellate/golgi* branch:
    # nothing cached depends on it, so nothing may be dropped
    mediator.register(
        build_anatom_source(), dm_refinement=DM_REFINEMENT.strip(), eager=False
    )
    counts.append(cache.entry_count)
    untouched = cache.stats.invalidated_entries

    # a refinement *below Granule_Cell* hits the NCMIR anchors; the
    # SENSELAB and SYNAPSE entries are anchored elsewhere and survive
    mediator.register(
        _tiny_wrapper("GRANULE2"),
        dm_refinement="Granule_Subtype < Granule_Cell",
        eager=False,
    )
    counts.append(cache.entry_count)
    survivors = sorted({entry.source for entry in cache.entries()})

    lines = [
        "entries after correlate+synapse query: %d" % counts[0],
        "after ANATOM refinement (basket branch): %d  (invalidated %d)"
        % (counts[1], untouched),
        "after Granule_Cell refinement: %d  (survivors: %s)"
        % (counts[2], ",".join(survivors)),
    ]
    report("PERF-CACHE: domain-map-aware selective invalidation", lines)

    assert counts[0] == 4
    assert untouched == 0 and counts[1] == counts[0]  # no global flush
    assert counts[2] == 2 and survivors == ["SENSELAB", "SYNAPSE"]
    assert cache.stats.invalidated_entries == counts[1] - counts[2]


def _cache_stats_json():
    from repro.__main__ import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["cache", "stats", "--json"])
    assert code == 0
    return stdout.getvalue().encode("utf-8")


def test_cache_stats_json_is_byte_deterministic():
    first = _cache_stats_json()
    second = _cache_stats_json()
    report(
        "PERF-CACHE: repro cache stats --json determinism",
        ["bytes=%d  identical=%s" % (len(first), first == second)],
    )
    assert first == second


def test_plan_asks_each_source_once_without_a_cache():
    mediator = build_scenario(eager=False).mediator
    assert mediator.cache is None
    with obs.capture("bench-plan-calls") as tracer:
        result = mediator.correlate(section5_query())
    seed = tracer.metrics.counter_value("source.queries", source="SENSELAB")
    queries = tracer.metrics.counter_total("source.queries")
    report(
        "PERF-CACHE: source calls of one plan (cache disabled)",
        ["source queries=%d  seed-source queries=%d" % (queries, seed)],
    )
    assert len(result.context.answers) == 4
    assert seed == 1  # planning contacts no source; step 1 asks once
