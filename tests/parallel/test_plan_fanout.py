"""Integration tests: medpar fan-out through plan execution.

Covers the determinism contract (parallel answers == sequential
answers; chaos reports byte-identical per seed in both modes), the
wall-clock timeout through the medguard layer, and within-plan dedup
on the plan's call memo.
"""

import threading
import time

import pytest

from repro import Mediator, obs
from repro.cache import query_fingerprint
from repro.core.planner import PlanContext
from repro.errors import MediatorError, SourceTimeoutError
from repro.neuro import build_anatom
from repro.parallel import ParallelExecutor, build_fanout_deployment
from repro.resilience import ResiliencePolicy, SourceGuard, VirtualClock
from repro.resilience.chaos import run_chaos_scenario
from repro.sources import SourceQuery


class TestMediatorParallelConfig:
    def test_off_by_default(self):
        assert Mediator(build_anatom()).parallel is None

    def test_false_and_none_mean_off(self):
        assert Mediator(build_anatom(), parallel=False).parallel is None
        assert Mediator(build_anatom(), parallel=None).parallel is None

    def test_true_builds_a_default_pool(self):
        mediator = Mediator(build_anatom(), name="M", parallel=True)
        assert isinstance(mediator.parallel, ParallelExecutor)
        assert mediator.parallel.name == "M-medpar"
        mediator.parallel.shutdown()

    def test_int_sets_the_width(self):
        mediator = Mediator(build_anatom(), parallel=7)
        assert mediator.parallel.max_workers == 7
        mediator.parallel.shutdown()

    def test_executor_instance_is_adopted(self):
        executor = ParallelExecutor(max_workers=2)
        mediator = Mediator(build_anatom(), parallel=executor)
        assert mediator.parallel is executor
        executor.shutdown()

    def test_invalid_value_rejected(self):
        with pytest.raises(MediatorError):
            Mediator(build_anatom(), parallel="yes")


class TestDeterministicMerge:
    def test_parallel_answers_match_sequential(self):
        answers = {}
        for label, parallel in (("seq", False), ("par", 3)):
            mediator, query = build_fanout_deployment(
                sources=3, delay=0.01, parallel=parallel
            )
            result = mediator.correlate(query)
            answers[label] = [
                (group, distribution.total())
                for group, distribution in result.context.answers
            ]
            if mediator.parallel is not None:
                mediator.parallel.shutdown()
        assert answers["par"] == answers["seq"]
        assert answers["seq"], "deployment produced no answers"

    def test_fanout_metrics_emitted_only_in_parallel_mode(self):
        for parallel, expect_batches in ((False, 0), (3, 1)):
            mediator, query = build_fanout_deployment(
                sources=3, delay=0.0, parallel=parallel
            )
            with obs.capture("fanout") as tracer:
                mediator.correlate(query)
            if mediator.parallel is not None:
                mediator.parallel.shutdown()
            batches = tracer.metrics.counter_total("fanout.batches")
            assert batches == expect_batches, (
                "parallel=%r: expected %d fan-out batches, saw %d"
                % (parallel, expect_batches, batches)
            )

    @pytest.mark.parametrize("seed", [7, 42])
    def test_chaos_reports_byte_identical_across_modes(self, seed):
        sequential = run_chaos_scenario(seed=seed)
        repeat = run_chaos_scenario(seed=seed)
        parallel = run_chaos_scenario(seed=seed, parallel=4)
        assert repeat.format() == sequential.format()
        assert parallel.format() == sequential.format()


class TestGuardTimeoutThroughExecutor:
    def test_hung_wrapper_is_abandoned_at_the_wall_clock_deadline(self):
        policy = ResiliencePolicy(call_timeout=0.05, max_retries=0)
        assert policy.wall_clock
        guard = SourceGuard(policy)
        executor = ParallelExecutor(max_workers=2)
        hung = threading.Event()

        def hang():
            hung.wait(5.0)
            return "rows"

        outcomes = []
        start = time.perf_counter()
        with pytest.raises(SourceTimeoutError):
            guard.call("S", "c", hang, executor=executor, outcomes=outcomes)
        elapsed = time.perf_counter() - start
        hung.set()
        assert elapsed < 2.0, "the hung wrapper was waited out"
        assert outcomes[-1].status == "failed"

    def test_timeout_then_retry_recovers(self):
        policy = ResiliencePolicy(call_timeout=0.05, max_retries=1,
                                  backoff_base=0.0)
        guard = SourceGuard(policy)
        executor = ParallelExecutor(max_workers=2)
        hung = threading.Event()
        state = {"first": True}

        def sometimes_hung():
            if state.pop("first", False):
                hung.wait(5.0)
            return "rows"

        outcomes = []
        assert guard.call(
            "S", "c", sometimes_hung, executor=executor, outcomes=outcomes
        ) == "rows"
        hung.set()
        assert outcomes[-1].status == "retried"

    def test_virtual_clock_keeps_the_deterministic_path(self):
        """Chaos runs use a virtual clock; the executor must stay cold
        so measured-elapsed timeouts remain reproducible."""

        class BombExecutor:
            def call(self, fn, timeout=None):
                raise AssertionError(
                    "executor must not run calls under a virtual clock"
                )

        clock = VirtualClock()
        policy = ResiliencePolicy(
            clock=clock.now, sleep=clock.sleep, call_timeout=1.0,
            max_retries=0,
        )
        assert not policy.wall_clock
        guard = SourceGuard(policy)

        def slow():
            clock.advance(5.0)
            return "rows"

        with pytest.raises(SourceTimeoutError):
            guard.call("S", "c", slow, executor=BombExecutor())


class TestWithinPlanDedup:
    QUERY = SourceQuery("protein_amount", {"location": "dendrite"})

    @staticmethod
    def counting_mediator():
        mediator, _query = build_fanout_deployment(sources=1, delay=0.0)
        wrapper = mediator.wrapper("SLOW0")
        calls = []
        wrapper.inner.query = lambda query: calls.append(query) or [{"v": 1}]
        return mediator, calls

    def test_sequential_memo_still_works(self):
        mediator, calls = self.counting_mediator()
        context = PlanContext(mediator)
        with obs.capture("dedup") as tracer:
            first = mediator.source_query("SLOW0", self.QUERY, plan=context)
            second = mediator.source_query("SLOW0", self.QUERY, plan=context)
        assert first == second == [{"v": 1}]
        assert len(calls) == 1
        assert tracer.metrics.counter_total("cache.dedup") == 1
        # the memo belongs to the plan: another plan asks the source
        mediator.source_query("SLOW0", self.QUERY, plan=PlanContext(mediator))
        assert len(calls) == 2

    def test_distinct_queries_are_not_coalesced(self):
        mediator, calls = self.counting_mediator()
        context = PlanContext(mediator)
        other = SourceQuery("protein_amount", {"location": "soma"})
        mediator.source_query("SLOW0", self.QUERY, plan=context)
        mediator.source_query("SLOW0", other, plan=context)
        assert len(calls) == 2
        capability = mediator.capabilities("SLOW0")["protein_amount"]
        assert sorted(context.call_memo) == sorted(
            query_fingerprint("SLOW0", query, capability)
            for query in (self.QUERY, other)
        )
