"""LRU store behaviour: bounds, recency, eviction accounting."""

from repro.cache import CacheEntry, LRUStore


def entry(key, rows=1):
    return CacheEntry(key, "S", "c", [{"v": i} for i in range(rows)])


class TestLRUStore:
    def test_get_put_roundtrip(self):
        store = LRUStore()
        store.put("k", entry("k"))
        assert store.get("k").key == "k"
        assert store.get("missing") is None
        assert len(store) == 1

    def test_entry_bound_evicts_oldest(self):
        store = LRUStore(max_entries=2)
        store.put("a", entry("a"))
        store.put("b", entry("b"))
        evicted = store.put("c", entry("c"))
        assert [e.key for e in evicted] == ["a"]
        assert store.get("a") is None
        assert store.get("b") is not None

    def test_lookup_refreshes_recency(self):
        store = LRUStore(max_entries=2)
        store.put("a", entry("a"))
        store.put("b", entry("b"))
        store.get("a")  # 'b' is now the coldest
        evicted = store.put("c", entry("c"))
        assert [e.key for e in evicted] == ["b"]

    def test_row_bound(self):
        store = LRUStore(max_entries=None, max_rows=5)
        store.put("a", entry("a", rows=3))
        store.put("b", entry("b", rows=3))  # 6 rows > 5
        assert store.get("a") is None
        assert store.row_count == 3

    def test_most_recent_survives_even_when_oversized(self):
        store = LRUStore(max_entries=None, max_rows=2)
        store.put("big", entry("big", rows=10))
        assert store.get("big") is not None

    def test_overwrite_updates_row_count(self):
        store = LRUStore()
        store.put("a", entry("a", rows=5))
        store.put("a", entry("a", rows=1))
        assert store.row_count == 1
        assert len(store) == 1

    def test_discard(self):
        store = LRUStore()
        store.put("a", entry("a", rows=2))
        assert store.discard("a") is True
        assert store.discard("a") is False
        assert store.row_count == 0

    def test_clear(self):
        store = LRUStore()
        store.put("a", entry("a"))
        store.clear()
        assert len(store) == 0 and store.row_count == 0

    def test_unbounded_never_evicts(self):
        store = LRUStore(max_entries=None, max_rows=None)
        for i in range(1000):
            assert store.put(i, entry(i, rows=i % 3)) == []
        assert len(store) == 1000
        assert store.row_count == sum(i % 3 for i in range(1000))

    def test_items_snapshot(self):
        store = LRUStore(max_entries=None, max_rows=None)
        store.put("a", entry("a"))
        items = store.items()
        store.discard("a")
        assert [key for key, _e in items] == ["a"]
