"""Pluggable entry stores for the answer cache.

A store is a plain keyed container of :class:`CacheEntry` objects; the
:class:`AnswerCache` owns the policy (stats, invalidation,
materializations) and delegates entry storage here.  The default is a
bounded in-memory LRU; an unbounded dict-backed store exists for tests
and for shared-store verification runs.  Anything implementing the
:class:`CacheStore` interface can be plugged into
``Mediator(cache=<store>)``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class CacheStore:
    """The minimal store interface the :class:`AnswerCache` needs."""

    def get(self, key):
        """The entry under `key`, or None (may refresh recency)."""
        raise NotImplementedError

    def put(self, key, entry):
        """Store `entry`; returns the list of entries evicted to make
        room (empty for unbounded stores)."""
        raise NotImplementedError

    def discard(self, key):
        """Drop `key` if present; returns True when an entry was
        removed."""
        raise NotImplementedError

    def items(self):
        """A snapshot list of (key, entry) pairs, oldest first."""
        raise NotImplementedError

    def clear(self):
        raise NotImplementedError

    def __len__(self):
        raise NotImplementedError

    @property
    def row_count(self):
        """Total cached rows across entries."""
        return sum(len(entry.rows) for _key, entry in self.items())


class DictStore(CacheStore):
    """An unbounded store: never evicts.  Useful in tests and for
    cross-deployment verification runs where eviction would hide
    invalidation behaviour.

    Thread-safe: concurrent caller threads may populate the store.
    """

    def __init__(self):
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            return self._entries.get(key)

    def put(self, key, entry):
        with self._lock:
            self._entries[key] = entry
        return []

    def discard(self, key):
        with self._lock:
            return self._entries.pop(key, None) is not None

    def items(self):
        with self._lock:
            return list(self._entries.items())

    def clear(self):
        with self._lock:
            self._entries.clear()

    def __len__(self):
        return len(self._entries)


class LRUStore(CacheStore):
    """A bounded least-recently-used store (the default).

    Two independent bounds: `max_entries` (answer count) and `max_rows`
    (total cached rows, a proxy for memory).  Either may be None for
    unbounded.  Lookups refresh recency; eviction pops from the cold
    end until both bounds hold (the most recent entry always stays,
    even if alone it exceeds `max_rows`).

    Thread-safe: recency refreshes and the eviction loop mutate shared
    state, so every operation holds the store lock — two caller
    threads putting at once must not interleave the row accounting.
    """

    def __init__(self, max_entries=256, max_rows=100_000):
        self.max_entries = max_entries
        self.max_rows = max_rows
        self._entries = OrderedDict()
        self._rows = 0
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key, entry):
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._rows -= len(old.rows)
            self._entries[key] = entry
            self._rows += len(entry.rows)
            evicted = []
            while self._over_bounds() and len(self._entries) > 1:
                _cold_key, cold = self._entries.popitem(last=False)
                self._rows -= len(cold.rows)
                evicted.append(cold)
            return evicted

    def _over_bounds(self):
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            return True
        return self.max_rows is not None and self._rows > self.max_rows

    def discard(self, key):
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._rows -= len(entry.rows)
            return True

    def items(self):
        with self._lock:
            return list(self._entries.items())

    def clear(self):
        with self._lock:
            self._entries.clear()
            self._rows = 0

    def __len__(self):
        return len(self._entries)

    @property
    def row_count(self):
        return self._rows

    def __repr__(self):
        return "LRUStore(entries=%d/%s, rows=%d/%s)" % (
            len(self._entries),
            self.max_entries,
            self._rows,
            self.max_rows,
        )
