"""Unit tests for the medpar executor primitives."""

import threading
import time

import pytest

from repro import obs
from repro.errors import SourceError, SourceTimeoutError
from repro.parallel import (
    DEFAULT_MAX_WORKERS,
    FanoutOutcome,
    ParallelExecutor,
)


class TestFanoutOutcome:
    def test_capture_success(self):
        outcome = FanoutOutcome.capture(lambda x: x * 2, 21)
        assert outcome.ok
        assert outcome.value == 42
        assert outcome.error is None

    def test_capture_error(self):
        boom = ValueError("boom")
        outcome = FanoutOutcome.capture(
            lambda _x: (_ for _ in ()).throw(boom), None
        )
        assert not outcome.ok
        assert outcome.error is boom


class TestMapOrdered:
    def test_empty(self):
        with ParallelExecutor(max_workers=2) as executor:
            assert executor.map_ordered([], lambda x: x) == []

    def test_single_item_runs_inline(self):
        thread_names = []

        def record(item):
            thread_names.append(threading.current_thread().name)
            return item

        with ParallelExecutor(max_workers=2) as executor:
            outcomes = executor.map_ordered(["only"], record)
        assert [o.value for o in outcomes] == ["only"]
        assert thread_names == [threading.current_thread().name]

    def test_results_in_input_order_regardless_of_completion(self):
        # earlier items sleep longer, so completion order is reversed
        delays = {"a": 0.06, "b": 0.03, "c": 0.0}

        def work(item):
            time.sleep(delays[item])
            return item.upper()

        with ParallelExecutor(max_workers=4) as executor:
            outcomes = executor.map_ordered(["a", "b", "c"], work)
        assert [o.value for o in outcomes] == ["A", "B", "C"]

    def test_errors_positional_and_other_tasks_still_run(self):
        ran = []

        def work(item):
            ran.append(item)
            if item == "bad":
                raise SourceError("down")
            return item

        with ParallelExecutor(max_workers=2) as executor:
            outcomes = executor.map_ordered(["ok", "bad", "ok2"], work)
        assert sorted(ran) == ["bad", "ok", "ok2"]
        assert outcomes[0].ok and outcomes[2].ok
        assert isinstance(outcomes[1].error, SourceError)

    def test_counts_fanout_metrics(self):
        with obs.capture("test") as tracer:
            with ParallelExecutor(max_workers=2) as executor:
                executor.map_ordered([1, 2, 3], lambda x: x, kind="retrieve")
        metrics = tracer.metrics
        assert metrics.counter_value("fanout.batches", kind="retrieve") == 1
        assert metrics.counter_value("fanout.tasks", kind="retrieve") == 3

    def test_single_item_counts_nothing(self):
        with obs.capture("test") as tracer:
            with ParallelExecutor(max_workers=2) as executor:
                executor.map_ordered([1], lambda x: x)
        assert tracer.metrics.counter_total("fanout.batches") == 0

    def test_worker_spans_nest_under_submitting_span(self):
        with obs.capture("test") as tracer:
            with ParallelExecutor(max_workers=2) as executor:
                with tracer.span("plan.step"):
                    executor.map_ordered(
                        ["a", "b"],
                        lambda item: tracer.span(
                            "task", item=item
                        ).__exit__(None, None, None),
                    )
        (root,) = tracer.roots
        assert root.name == "plan.step"
        assert sorted(c.attrs["item"] for c in root.children) == ["a", "b"]


class TestExecutorLifecycle:
    def test_max_workers_validated(self):
        with pytest.raises(ValueError):
            ParallelExecutor(max_workers=0)

    def test_default_width(self):
        assert ParallelExecutor().max_workers == DEFAULT_MAX_WORKERS

    def test_shutdown_idempotent_and_restartable(self):
        executor = ParallelExecutor(max_workers=2)
        outcomes = executor.map_ordered([1, 2], lambda x: x + 1)
        assert [o.value for o in outcomes] == [2, 3]
        executor.shutdown()
        executor.shutdown()  # idempotent
        outcomes = executor.map_ordered([3, 4], lambda x: x + 1)
        assert [o.value for o in outcomes] == [4, 5]
        executor.shutdown()


class TestWallClockTimeout:
    def test_no_timeout_is_plain_call(self):
        executor = ParallelExecutor(max_workers=1)
        assert executor.call(lambda: 42) == 42

    def test_result_within_timeout(self):
        executor = ParallelExecutor(max_workers=1)
        assert executor.call(lambda: "fast", timeout=5.0) == "fast"

    def test_error_within_timeout_propagates(self):
        executor = ParallelExecutor(max_workers=1)
        with pytest.raises(SourceError):
            executor.call(
                lambda: (_ for _ in ()).throw(SourceError("down")),
                timeout=5.0,
            )

    def test_hung_call_abandoned_at_the_deadline(self):
        executor = ParallelExecutor(max_workers=1)
        hung = threading.Event()

        def hang():
            hung.wait(5.0)

        start = time.perf_counter()
        with obs.capture("test") as tracer:
            with pytest.raises(SourceTimeoutError):
                executor.call(hang, timeout=0.05)
        elapsed = time.perf_counter() - start
        hung.set()  # release the abandoned thread
        assert elapsed < 2.0, "timeout did not bound the wait"
        assert tracer.metrics.counter_total("fanout.timeouts") == 1
