"""Concurrent plans on one guarded mediator keep their own state.

Each ``correlate()`` owns its call memo, its call outcomes and its
deadline (on its :class:`~repro.core.planner.PlanContext`); the shared
:class:`~repro.resilience.SourceGuard` holds only per-source state.
These tests run plans side by side and check that no plan sees
another's calls, budget or stale answers.
"""

import sys
import threading

from repro.cache import AnswerCache
from repro.errors import SourceError
from repro.neuro import build_scenario, section5_query
from repro.resilience import ResiliencePolicy, SourceGuard, VirtualClock
from repro.sources import SourceQuery


def guarded_scenario(policy, **kwargs):
    mediator = build_scenario(eager=False, **kwargs).mediator
    mediator.resilience = SourceGuard(policy)
    return mediator


def calls_by_source(result):
    return {
        report.source: report.calls
        for report in result.degraded_answer().sources
    }


class Facade:
    """Delegates to a wrapper; ``query`` runs through `hook` first."""

    def __init__(self, inner, hook):
        self.inner = inner
        self.hook = hook

    @property
    def name(self):
        return self.inner.name

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def query(self, source_query):
        self.hook(source_query)
        return self.inner.query(source_query)


def swap_wrapper(mediator, source, hook):
    record = mediator._sources[source]
    record.wrapper = Facade(record.wrapper, hook)


class TestReports:
    def test_each_plan_reports_its_own_calls(self):
        mediator = guarded_scenario(
            ResiliencePolicy(max_retries=0, backoff_base=0.0)
        )
        solo = calls_by_source(mediator.correlate(section5_query()))
        assert solo == {"NCMIR": 2, "SENSELAB": 1}

        threads = 8
        barrier = threading.Barrier(threads)
        reports = [None] * threads

        def run(index):
            barrier.wait()
            reports[index] = calls_by_source(
                mediator.correlate(section5_query())
            )

        workers = [
            threading.Thread(target=run, args=(index,))
            for index in range(threads)
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the plans finely
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(worker.is_alive() for worker in workers)
        assert reports == [solo] * threads


class TestDeadlines:
    BUDGET = 4.0

    def deployment(self):
        clock = VirtualClock()
        policy = ResiliencePolicy(
            clock=clock.now,
            sleep=clock.sleep,
            max_retries=10,
            backoff_base=1.0,
            backoff_multiplier=1.0,
            breaker_threshold=1000,
            plan_deadline=self.BUDGET,
        )
        mediator = guarded_scenario(policy)

        def dead(_query):
            raise SourceError("NCMIR is down")

        swap_wrapper(mediator, "NCMIR", dead)
        return mediator, clock

    def test_later_plan_gets_its_full_budget(self):
        mediator, clock = self.deployment()
        solo = mediator.correlate(section5_query()).degraded_answer()
        solo_ncmir = solo.report_for("NCMIR").attempts
        assert solo_ncmir > 2  # the budget allows several retries

        mediator, clock = self.deployment()
        held = threading.Event()
        release = threading.Event()
        hold_next = [True]

        def hold_first_seed_call(_query):
            if hold_next:
                hold_next.pop()
                held.set()
                release.wait(30.0)

        swap_wrapper(mediator, "SENSELAB", hold_first_seed_call)
        first = threading.Thread(
            target=mediator.correlate, args=(section5_query(),)
        )
        first.start()
        try:
            assert held.wait(30.0)
            # the first plan is blocked in its seed call, most of its
            # budget spent; a second plan starts now
            clock.advance(self.BUDGET - 1.0)
            started = clock.now()
            second = mediator.correlate(section5_query())
        finally:
            release.set()
            first.join(30.0)
        assert not first.is_alive()
        assert second.degraded_answer().report_for("NCMIR").attempts == (
            solo_ncmir
        )
        assert second.context.deadline == started + self.BUDGET

    def test_seed_call_and_retrieval_share_one_budget(self):
        mediator, clock = self.deployment()

        def slow_seed(_query):
            clock.advance(1.0)

        swap_wrapper(mediator, "SENSELAB", slow_seed)
        started = clock.now()
        result = mediator.correlate(section5_query())
        # the seed call's time counts against the deadline retrieval
        # runs under
        assert result.context.deadline == started + self.BUDGET
        report = result.degraded_answer().report_for("NCMIR")
        assert report.attempts == self.BUDGET  # t=1,2,3 and one at t=4


class TestStaleNeverCached:
    def test_stale_answers_stay_out_of_the_cache(self):
        cache = AnswerCache()
        mediator = guarded_scenario(
            ResiliencePolicy(max_retries=0, backoff_base=0.0, serve_stale=True),
            cache=cache,
        )
        # NCMIR calls will be served stale while SENSELAB calls finish
        # fresh on the neighbouring threads
        calls = [
            ("NCMIR", SourceQuery("protein_amount", {"organism": organism}))
            for organism in ("rat", "mouse")
        ] + [
            ("SENSELAB", SourceQuery("neurotransmission", {"organism": organism}))
            for organism in ("rat", "mouse", "human")
        ]
        for source, query in calls:  # fills the last-known-good store
            mediator.source_query(source, query)

        def down(_query):
            raise SourceError("NCMIR is down")

        swap_wrapper(mediator, "NCMIR", down)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the workers finely
        try:
            for _ in range(30):
                cache.flush()
                errors = []

                def run(call):
                    try:
                        mediator.source_query(*call)
                    except Exception as exc:
                        errors.append(exc)

                threads = [
                    threading.Thread(target=run, args=(call,))
                    for call in calls * 2
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                cached = {entry.source for entry in cache.entries()}
                assert cached == {"SENSELAB"}, "a stale answer was cached"
        finally:
            sys.setswitchinterval(switch)
