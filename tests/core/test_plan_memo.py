"""The plan's call memo: identical source calls inside one plan run once.

The memo lives on :class:`~repro.core.planner.PlanContext` and works
with no cache configured; it is keyed by the same
:func:`~repro.cache.query_fingerprint` as the answer cache.
"""

from repro import Mediator, obs
from repro.cache import query_fingerprint
from repro.core.planner import PlanContext
from repro.neuro import build_anatom
from repro.neuro.ncmir import build_ncmir
from repro.sources import SourceQuery


class TestWithinPlanDedup:
    QUERY = SourceQuery("protein_amount", {"location": "dendrite"})

    @staticmethod
    def counting_mediator():
        mediator = Mediator(build_anatom())
        mediator.register(build_ncmir(2001), eager=False, via_xml=False)
        calls = []
        mediator.wrapper("NCMIR").query = (
            lambda query: calls.append(query) or [{"v": 1}]
        )
        return mediator, calls

    def test_sequential_memo_still_works(self):
        mediator, calls = self.counting_mediator()
        context = PlanContext(mediator)
        with obs.capture("dedup") as tracer:
            first = mediator.source_query("NCMIR", self.QUERY, plan=context)
            second = mediator.source_query("NCMIR", self.QUERY, plan=context)
        assert first == second == [{"v": 1}]
        assert len(calls) == 1
        assert tracer.metrics.counter_total("cache.dedup") == 1
        # the memo belongs to the plan: another plan asks the source
        mediator.source_query("NCMIR", self.QUERY, plan=PlanContext(mediator))
        assert len(calls) == 2

    def test_distinct_queries_are_not_coalesced(self):
        mediator, calls = self.counting_mediator()
        context = PlanContext(mediator)
        other = SourceQuery("protein_amount", {"location": "soma"})
        mediator.source_query("NCMIR", self.QUERY, plan=context)
        mediator.source_query("NCMIR", other, plan=context)
        assert len(calls) == 2
        capability = mediator.capabilities("NCMIR")["protein_amount"]
        assert sorted(context.call_memo) == sorted(
            query_fingerprint("NCMIR", query, capability)
            for query in (self.QUERY, other)
        )
