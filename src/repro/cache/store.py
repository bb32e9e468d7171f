"""The entry store behind the answer cache.

A store is a plain keyed container of :class:`CacheEntry` objects; the
:class:`AnswerCache` owns the policy (stats, invalidation) and
delegates entry storage here.  :class:`LRUStore` is the one store: by
default bounded, and unbounded (it never evicts) with
``LRUStore(max_entries=None, max_rows=None)`` — what shared-store
verification runs use, where eviction would hide invalidation
behaviour.  A mediator takes the store inside its cache:
``Mediator(cache=AnswerCache(store))``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class LRUStore:
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
        """Store `entry`; returns the list of entries evicted to make
        room."""
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
        """A snapshot list of (key, entry) pairs, oldest first."""
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
