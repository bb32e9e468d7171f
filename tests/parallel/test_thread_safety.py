"""Lock-hammer regression tests for state shared across caller threads.

Each test drives one previously thread-naive structure from many
threads at once and asserts no update is lost.  Before the locks
landed these raced (lost counter increments, corrupted LRU order,
duplicate fault indices); with GIL scheduling the races are
probabilistic, so the hammers use enough iterations to have failed
reliably on the unlocked code.
"""

import sys
import threading

from repro.cache.answers import AnswerCache, CacheEntry
from repro.cache.store import LRUStore
from repro.obs.metrics import Metrics
from repro.resilience import ResiliencePolicy, SourceGuard, VirtualClock
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultInjectingWrapper, FaultSchedule

THREADS = 8
ROUNDS = 400


def hammer(fn):
    """Run `fn(thread_index)` from THREADS threads simultaneously."""
    barrier = threading.Barrier(THREADS)

    def run(index):
        barrier.wait()
        fn(index)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
        assert not thread.is_alive(), "hammer thread hung"


class TestMetricsHammer:
    def test_no_lost_counter_increments(self):
        metrics = Metrics()
        hammer(
            lambda i: [
                metrics.count("hits", source="S%d" % (i % 2))
                for _ in range(ROUNDS)
            ]
        )
        assert metrics.counter_total("hits") == THREADS * ROUNDS


class TestBreakerHammer:
    def test_no_lost_failure_counts(self):
        breaker = CircuitBreaker(threshold=THREADS * ROUNDS + 1, cooldown=30.0)
        hammer(
            lambda i: [breaker.record_failure(now=0.0) for _ in range(ROUNDS)]
        )
        assert breaker.failures == THREADS * ROUNDS
        assert breaker.state(0.0) == "closed"  # threshold not reached


class TestLRUStoreHammer:
    def test_bounded_and_consistent_under_concurrent_puts(self):
        store = LRUStore(max_entries=64, max_rows=1_000_000)
        def put_many(i):
            for j in range(ROUNDS):
                key = ("k", i, j)
                store.put(
                    key, CacheEntry(key, "S%d" % i, "c", rows=({"r": j},))
                )
                store.get(("k", i, max(0, j - 1)))
        hammer(put_many)
        assert len(store) == 64
        # the recency order and the row accounting survived the races
        entries = list(store.items())
        assert len(entries) == 64
        assert store.row_count == sum(
            len(entry.rows) for _key, entry in entries
        )


class TestAnswerCacheHammer:
    def test_stats_and_entries_consistent(self):
        # unbounded: no eviction
        cache = AnswerCache(store=LRUStore(max_entries=None, max_rows=None))
        def store_and_lookup(i):
            for j in range(ROUNDS):
                key = ("k", i, j)
                cache.store_answer(key, "S%d" % i, "c", rows=[{"r": j}])
                assert cache.lookup(key) is not None
                cache.lookup(("missing", i, j))
        hammer(store_and_lookup)
        assert cache.entry_count == THREADS * ROUNDS
        assert cache.stats.hits == THREADS * ROUNDS
        assert cache.stats.misses == THREADS * ROUNDS


class TestFaultWrapperHammer:
    class _Inner:
        name = "S"

        def query(self, source_query):
            return [source_query]

    def test_call_indices_are_not_lost(self):
        wrapper = FaultInjectingWrapper(self._Inner(), FaultSchedule())
        hammer(lambda i: [wrapper.query("q") for _ in range(ROUNDS)])
        assert wrapper.calls == THREADS * ROUNDS


class TestVirtualClockHammer:
    def test_sleep_accounting_is_exact(self):
        clock = VirtualClock()
        hammer(lambda i: [clock.sleep(0.5) for _ in range(ROUNDS)])
        assert clock.slept == THREADS * ROUNDS * 0.5
        assert clock.now() == THREADS * ROUNDS * 0.5


class TestJitterRngHammer:
    def test_one_stream_per_source_class_pair(self):
        guard = SourceGuard(ResiliencePolicy(seed=42))
        rngs = [None] * THREADS
        def fetch(i):
            rngs[i] = guard._jitter_rng("S", "c")
        hammer(fetch)
        assert all(rng is rngs[0] for rng in rngs), (
            "concurrent first touches must converge on one RNG stream"
        )


class TestEvaluateOnceHammer:
    """Concurrent ``correlate`` and ``ask`` on one cold mediator: the
    threads race to build and evaluate the schema-only model and the
    full model that continues it, and then continue from the same
    models.  With a writer registering and deregistering a source
    among them, every ask sees the models from before a write or from
    after it, never a mix."""

    ASKS = (
        "X : 'Compartment'",
        "T = sum{A [C]; X : protein_amount[ion_bound -> calcium; "
        "amount -> A], anchor(X, C)}",
        "X : protein_amount[ion_bound -> calcium; organism -> rat]",
    )

    @staticmethod
    def variants():
        """Section 5 variants whose answers share protein names but not
        objects, so one query's facts leaking into another's model would
        change a sum."""
        from repro.neuro import section5_query

        queries = []
        for organism in ("rat", "mouse"):
            for compartment in ("parallel fiber", "climbing fiber"):
                query = section5_query()
                query.seed_selections = {
                    "organism": organism,
                    "transmitting_compartment": compartment,
                }
                query.target_filters = dict(
                    query.target_filters, organism=organism
                )
                queries.append(query)
        return queries

    def work(self, mediator, index):
        queries = self.variants()
        result = mediator.correlate(queries[index % len(queries)])
        answers = [
            (group, distribution.root, distribution.as_table())
            for group, distribution in result.answers
        ]
        asks = [
            mediator.ask(self.ASKS[(index + turn) % len(self.ASKS)])
            for turn in range(3 * len(self.ASKS))
        ]
        return answers, asks

    def test_answers_equal_a_sequential_run(self):
        from repro.neuro import build_scenario

        sequential = build_scenario().mediator
        expected = {i: self.work(sequential, i) for i in range(THREADS)}
        assert len({repr(answer) for answer, _ in expected.values()}) > 1
        mediator = build_scenario().mediator
        results = {}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hammer(lambda i: results.__setitem__(i, self.work(mediator, i)))
        finally:
            sys.setswitchinterval(interval)
        assert results == expected
        # no continuation leaked into the cached models
        for include_data in (False, True):
            assert mediator.engine(include_data).evaluate().store.same_facts(
                sequential.engine(include_data).evaluate().store
            )

    def test_interleaved_writes_show_whole_models(self):
        from repro.neuro import build_scenario
        from tests.core.test_maintain_models import decoy_source, rounded

        queries = ("X : protein_amount", self.ASKS[1])
        mediator = build_scenario().mediator
        decoy = decoy_source("DECOY", 11)
        without = [rounded(mediator.ask(query)) for query in queries]
        mediator.register(decoy, eager=True)
        with_decoy = [rounded(mediator.ask(query)) for query in queries]
        mediator.deregister(decoy.name)
        assert all(a != b for a, b in zip(without, with_decoy))
        torn = []

        def work(index):
            if index == 0:
                for _cycle in range(10):
                    mediator.register(decoy, eager=True)
                    mediator.deregister(decoy.name)
                return
            for turn in range(40):
                which = (index + turn) % len(queries)
                answer = rounded(mediator.ask(queries[which]))
                if answer not in (without[which], with_decoy[which]):
                    torn.append((queries[which], answer))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hammer(work)
        finally:
            sys.setswitchinterval(interval)
        assert torn == []
        fresh = build_scenario().mediator
        for include_data in (False, True):
            assert mediator.engine(include_data).evaluate().store.same_facts(
                fresh.engine(include_data).evaluate().store
            )
