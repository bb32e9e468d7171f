"""Fingerprints: deterministic, order-insensitive, capability-aware."""

from repro import Mediator
from repro.cache import (
    AnswerCache,
    capability_signature,
    query_fingerprint,
)
from repro.core.planner import PlanContext
from repro.neuro import build_anatom, build_ncmir
from repro.resilience import ResiliencePolicy
from repro.sources import SourceQuery
from repro.sources.capabilities import BindingPattern, ClassCapability


def capability(**kwargs):
    defaults = dict(
        class_name="c",
        attributes=["a", "b"],
        key="a",
        scannable=True,
        binding_patterns=[BindingPattern(["a", "b"], "bf")],
    )
    defaults.update(kwargs)
    return ClassCapability(**defaults)


class TestQueryFingerprint:
    def test_selection_order_does_not_matter(self):
        q1 = SourceQuery("c", {"a": 1, "b": 2})
        q2 = SourceQuery("c", {"b": 2, "a": 1})
        assert query_fingerprint("S", q1) == query_fingerprint("S", q2)

    def test_different_selections_differ(self):
        q1 = SourceQuery("c", {"a": 1})
        q2 = SourceQuery("c", {"a": 2})
        assert query_fingerprint("S", q1) != query_fingerprint("S", q2)

    def test_source_and_class_distinguish(self):
        q = SourceQuery("c", {"a": 1})
        assert query_fingerprint("S", q) != query_fingerprint("T", q)
        assert query_fingerprint("S", q) != query_fingerprint(
            "S", SourceQuery("d", {"a": 1})
        )

    def test_projection_distinguishes(self):
        base = query_fingerprint("S", SourceQuery("c", {"a": 1}))
        projected = query_fingerprint(
            "S", SourceQuery("c", {"a": 1}, projection=["a"])
        )
        assert base != projected

    def test_fingerprint_is_hashable(self):
        fp = query_fingerprint(
            "S", SourceQuery("c", {"a": 1}), capability()
        )
        assert {fp: 1}[fp] == 1

    def test_unhashable_selection_value_canonicalized(self):
        q1 = SourceQuery("c", {"a": [1, 2]})
        q2 = SourceQuery("c", {"a": [1, 2]})
        fp1, fp2 = query_fingerprint("S", q1), query_fingerprint("S", q2)
        assert fp1 == fp2
        assert {fp1: 1}[fp2] == 1


class TestCapabilitySignature:
    def test_none_capability(self):
        assert capability_signature(None) is None

    def test_equal_capabilities_equal_signatures(self):
        assert capability_signature(capability()) == capability_signature(
            capability()
        )

    def test_binding_patterns_change_signature(self):
        changed = capability(binding_patterns=[BindingPattern(["a", "b"], "fb")])
        assert capability_signature(capability()) != capability_signature(
            changed
        )

    def test_signature_feeds_the_fingerprint(self):
        q = SourceQuery("c", {"a": 1})
        changed = capability(scannable=False)
        assert query_fingerprint("S", q, capability()) != query_fingerprint(
            "S", q, changed
        )


class TestOneKeyPerCall:
    def test_guarded_call_is_cached_under_its_fingerprint(self):
        cache = AnswerCache()
        mediator = Mediator(
            build_anatom(), cache=cache, resilience=ResiliencePolicy()
        )
        mediator.register(build_ncmir(2002), eager=False)
        q = SourceQuery("protein_amount", {"organism": "rat"})
        context = PlanContext(mediator)
        mediator.source_query("NCMIR", q, plan=context)
        key = query_fingerprint(
            "NCMIR", q, mediator.capabilities("NCMIR")["protein_amount"]
        )
        assert cache.lookup(key) is not None
