"""AnswerCache semantics: stats, selective invalidation by anchor
concept or source, and the explicit flush."""

from repro.cache import AnswerCache, CacheEntry, LRUStore


def cache_with(*entries):
    cache = AnswerCache()
    for key, concepts in entries:
        cache.store_answer(key, "S", "c", [{"v": 1}], concepts=concepts)
    return cache


class TestLookupAndStats:
    def test_miss_then_hit(self):
        cache = AnswerCache()
        assert cache.lookup("k") is None
        cache.store_answer("k", "S", "c", [{"v": 1}], concepts=["A"])
        entry = cache.lookup("k")
        assert isinstance(entry, CacheEntry)
        assert entry.rows == ({"v": 1},)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.puts == 1

    def test_entry_and_row_counts(self):
        cache = AnswerCache()
        cache.store_answer("k1", "S", "c", [{"v": 1}, {"v": 2}])
        cache.store_answer("k2", "T", "d", [{"v": 3}])
        assert cache.entry_count == 2
        assert cache.row_count == 3

    def test_evictions_counted(self):
        cache = AnswerCache(store=LRUStore(max_entries=1))
        cache.store_answer("k1", "S", "c", [])
        cache.store_answer("k2", "S", "c", [])
        assert cache.stats.evictions == 1
        assert cache.entry_count == 1

    def test_stats_dict_shape(self):
        cache = AnswerCache()
        stats = cache.stats_dict()
        assert sorted(stats) == [
            "entries",
            "evictions",
            "flushes",
            "hits",
            "invalidated_entries",
            "misses",
            "puts",
            "rows",
        ]
        assert stats["entries"] == 0


class TestEntryInvalidation:
    def test_concept_overlap_kills_entry(self):
        cache = cache_with(("k1", ["Neuron"]), ("k2", ["Glia"]))
        entries = cache.invalidate(concepts=["Neuron"], reason="t")
        assert entries == 1
        assert cache.lookup("k1") is None
        assert cache.lookup("k2") is not None
        assert cache.stats.invalidated_entries == 1

    def test_unanchored_entry_survives_concept_invalidation(self):
        cache = cache_with(("k", []))
        entries = cache.invalidate(concepts=["Neuron"], reason="t")
        assert entries == 0

    def test_invalidate_source_drops_only_that_source(self):
        cache = AnswerCache()
        cache.store_answer("k1", "S", "c", [], concepts=["A"])
        cache.store_answer("k2", "T", "c", [], concepts=["A"])
        dropped = cache.invalidate_source("S")
        assert dropped == 1
        assert cache.lookup("k1") is None
        assert cache.lookup("k2") is not None


class TestFullFlush:
    def test_explicit_flush(self):
        cache = cache_with(("k", ["A"]))
        assert cache.flush(reason="test") == 1
        assert cache.entry_count == 0
        assert cache.stats.flushes == 1

    def test_store_can_be_shared(self):
        store = LRUStore(max_entries=None, max_rows=None)
        cache = AnswerCache(store=store)
        cache.store_answer("k", "S", "c", [])
        assert store.get("k") is not None
