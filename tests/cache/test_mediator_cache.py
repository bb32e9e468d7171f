"""medcache wired into the mediator: ctor dispatch, the cache-consult
path in source_query, selective invalidation, and
within-plan dedup (which works with the cache disabled)."""

import pytest

from repro import obs
from repro.cache import AnswerCache, LRUStore
from repro.core import Mediator
from repro.errors import MediatorError
from repro.neuro import build_scenario, section5_query
from repro.sources import SourceQuery

from .conftest import build_cells_wrapper, build_dm, build_glia_wrapper


class TestCtorDispatch:
    def test_default_is_no_cache(self):
        assert Mediator(build_dm(), name="m").cache is None

    def test_answer_cache_taken_as_is(self):
        cache = AnswerCache()
        assert Mediator(build_dm(), name="m", cache=cache).cache is cache

    # an AnswerCache is the one accepted form: neither ``True`` nor a
    # bare store builds one
    @pytest.mark.parametrize(
        "cache",
        [True, LRUStore(max_entries=4), "lots please"],
        ids=["True", "LRUStore", "string"],
    )
    def test_bad_configuration_rejected(self, cache):
        with pytest.raises(MediatorError):
            Mediator(build_dm(), name="m", cache=cache)


class TestSourceQueryCache:
    def test_hit_skips_the_source(self, two_world_mediator):
        mediator = two_world_mediator
        with obs.capture("t") as tracer:
            cold = mediator.source_query("CELLS", SourceQuery("m"))
            warm = mediator.source_query("CELLS", SourceQuery("m"))
        assert warm == cold and len(cold) == 2
        stats = mediator.cache.stats
        assert (stats.misses, stats.puts, stats.hits) == (1, 1, 1)
        # one real source call, not two
        assert tracer.metrics.counter_total("source.queries") == 1
        assert tracer.metrics.counter_total("cache.hits") == 1

    def test_selections_key_separate_entries(self, two_world_mediator):
        mediator = two_world_mediator
        mediator.source_query("CELLS", SourceQuery("m"))
        mediator.source_query(
            "CELLS", SourceQuery("m", {"kind": "pyramidal"})
        )
        assert mediator.cache.entry_count == 2

    def test_entries_carry_anchor_concepts(self, two_world_mediator):
        mediator = two_world_mediator
        mediator.source_query("CELLS", SourceQuery("m"))
        mediator.source_query("GLIA", SourceQuery("g"))
        by_source = {
            entry.source: entry.concepts
            for entry in mediator.cache.entries()
        }
        assert by_source == {
            "CELLS": frozenset({"Neuron"}),
            "GLIA": frozenset({"Glia"}),
        }

    def test_rows_are_copies(self, two_world_mediator):
        mediator = two_world_mediator
        first = mediator.source_query("CELLS", SourceQuery("m"))
        first.append("garbage")
        second = mediator.source_query("CELLS", SourceQuery("m"))
        assert "garbage" not in second


class TestSelectiveInvalidation:
    def populate(self, mediator):
        mediator.source_query("CELLS", SourceQuery("m"))
        mediator.source_query("GLIA", SourceQuery("g"))
        assert mediator.cache.entry_count == 2

    def cached_sources(self, mediator):
        return sorted(entry.source for entry in mediator.cache.entries())

    def test_refinement_below_neuron_spares_the_glia_world(
        self, two_world_mediator
    ):
        mediator = two_world_mediator
        self.populate(mediator)
        mediator.register(
            build_third_wrapper(),
            dm_refinement="Basket_Cell < Neuron",
            eager=False,
        )
        # upward closure of {Basket_Cell, Neuron} reaches the CELLS
        # anchor but not Glia: exactly one entry dies
        assert self.cached_sources(mediator) == ["GLIA"]
        assert mediator.cache.stats.invalidated_entries == 1

    def test_plain_registration_spares_all_entries(self, two_world_mediator):
        mediator = two_world_mediator
        self.populate(mediator)
        mediator.register(build_third_wrapper(), eager=False)
        assert self.cached_sources(mediator) == ["CELLS", "GLIA"]

    def test_deregister_drops_the_sources_entries(self, two_world_mediator):
        mediator = two_world_mediator
        self.populate(mediator)
        mediator.deregister("CELLS")
        assert self.cached_sources(mediator) == ["GLIA"]

    @pytest.mark.parametrize("anchored", [True, False])
    def test_reregistered_source_answers_its_new_rows(
        self, two_world_mediator, anchored
    ):
        # an unanchored source's entries carry no concepts, so only the
        # deregistered source's name can drop them
        mediator = two_world_mediator
        if anchored:
            name, query, other = "CELLS", SourceQuery("m"), build_cells_clone("CELLS")
        else:
            name, query, other = "EXTRA", SourceQuery("x"), build_third_wrapper(value=8)
            mediator.register(build_third_wrapper(), eager=False)
        before = mediator.source_query(name, query)
        mediator.deregister(name)
        mediator.register(other, eager=False)
        after = mediator.source_query(name, query)
        assert after != before
        assert after == other.query(query)

    def test_same_class_exporter_spares_entries(self, two_world_mediator):
        # an entry is one source's rows for one class; a *new* source
        # exporting the same class cannot change those rows
        mediator = two_world_mediator
        self.populate(mediator)
        mediator.register(build_cells_clone(), eager=False)
        assert self.cached_sources(mediator) == ["CELLS", "GLIA"]


def build_third_wrapper(name="EXTRA", class_name="x", value=7):
    from repro.sources import Column, RelStore, Wrapper

    store = RelStore(name)
    store.create_table(
        "t", [Column("id", "int"), Column("v", "int")], key="id"
    ).insert_many([{"id": 1, "v": value}])
    wrapper = Wrapper(name, store)
    wrapper.export_class(class_name, "t", "id", methods={"v": "v"})
    return wrapper


def build_cells_clone(name="CELLS2"):
    """Another exporter of class ``m`` with one extra neuron."""
    from repro.sources import AnchorSpec, Column, RelStore, Wrapper

    store = RelStore(name)
    store.create_table(
        "m2",
        [Column("id", "int"), Column("kind", "str"), Column("size", "float")],
        key="id",
    ).insert_many([{"id": 9, "kind": "granule", "size": 6.0}])
    wrapper = Wrapper(name, store)
    wrapper.export_class(
        "m",
        "m2",
        "id",
        methods={"kind": "kind", "size": "size"},
        anchor=AnchorSpec(concept="Neuron"),
        selectable={"kind"},
    )
    return wrapper


class TestPlanDedup:
    """Without a cache, EXPLAIN and correlate run the same plan."""

    @pytest.fixture(scope="class")
    def explained(self):
        mediator = build_scenario(eager=False).mediator
        assert mediator.cache is None
        return mediator.explain(section5_query())

    def test_answers_unchanged_by_dedup(self, explained):
        mediator = build_scenario(eager=False).mediator
        result = mediator.correlate(section5_query())
        assert [group for group, _d in result.context.answers] == [
            group for group, _d in explained.context.answers
        ]
