"""The answer cache: entries, stats, and the invalidation policy.

:class:`AnswerCache` is what :class:`~repro.core.mediator.Mediator`
holds when caching is on.  It owns

* an :class:`~repro.cache.store.LRUStore` of :class:`CacheEntry`
  objects (source-call answers keyed by fingerprint), and
* the :class:`CacheStats` counters every mutation feeds.

Invalidation semantics (the contract the mediator relies on): an
entry dies when a deployment change touches one of the concepts its
rows are anchored at (the upward closure computed by
:func:`~repro.cache.invalidation.affected_concepts`), or when its
source deregisters.  A *class* overlap alone does not kill an entry:
entries are per-source rows, and another source exporting the same
class cannot change what this source answered.

Derived facts are not cached here: the mediator evaluates its
knowledge base once per domain-map revision and answers every
``ask``/``explain`` from that model.
"""

from __future__ import annotations

import threading

from .. import obs
from .store import LRUStore


class CacheEntry:
    """One cached source-call answer."""

    __slots__ = ("key", "source", "class_name", "rows", "concepts")

    def __init__(self, key, source, class_name, rows, concepts=()):
        self.key = key
        self.source = source
        self.class_name = class_name
        self.rows = tuple(rows)
        #: DM concepts the source's class is anchored at — the hook the
        #: domain-map-aware invalidation engine keys on
        self.concepts = frozenset(concepts)

    def __repr__(self):
        return "CacheEntry(%s.%s, rows=%d, concepts=%d)" % (
            self.source,
            self.class_name,
            len(self.rows),
            len(self.concepts),
        )


class CacheStats:
    """Monotonic counters of cache life; deterministic export."""

    FIELDS = (
        "hits",
        "misses",
        "puts",
        "evictions",
        "invalidated_entries",
        "flushes",
    )

    def __init__(self):
        for field in self.FIELDS:
            setattr(self, field, 0)

    def as_dict(self):
        return {field: getattr(self, field) for field in self.FIELDS}

    def __repr__(self):
        return "CacheStats(%s)" % ", ".join(
            "%s=%d" % (field, getattr(self, field)) for field in self.FIELDS
        )


class AnswerCache:
    """The medcache policy object: entry store + stats.

    One AnswerCache normally serves one mediator.  Sharing the *store*
    between caches (e.g. warming a second deployment from a first) is
    supported.

    Args:
        store: the :class:`~repro.cache.store.LRUStore` holding the
            entries (default: a bounded one).

    Lookups, puts, and invalidation sweeps hold a lock: concurrent
    caller threads hit the cache, and the stats counters and
    sweep-then-discard loops are not atomic on their own.
    """

    def __init__(self, store=None):
        self.store = store if store is not None else LRUStore()
        self.stats = CacheStats()
        self._lock = threading.Lock()

    # -- entries ---------------------------------------------------------

    def lookup(self, key):
        """The live entry under `key`, or None; counts a hit/miss.

        Args:
            key: the call fingerprint the answer was stored under.
        """
        with self._lock:
            entry = self.store.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return entry

    def store_answer(self, key, source, class_name, rows, concepts=()):
        """Cache one fresh source answer; returns the new entry.

        Args:
            key: the call fingerprint to store under.
            source: name of the source that answered.
            class_name: exported class the rows belong to.
            rows: the answer rows (stored as a tuple).
            concepts: DM concepts the class is anchored at, for
                domain-map-aware invalidation.
        """
        with self._lock:
            entry = CacheEntry(key, source, class_name, rows, concepts)
            evicted = self.store.put(key, entry)
            self.stats.puts += 1
            self.stats.evictions += len(evicted)
            if evicted:
                obs.count("cache.evictions", len(evicted))
            return entry

    @property
    def entry_count(self):
        return len(self.store)

    @property
    def row_count(self):
        return self.store.row_count

    def entries(self):
        """Snapshot list of live entries (oldest first)."""
        return [entry for _key, entry in self.store.items()]

    # -- invalidation ----------------------------------------------------

    def invalidate(self, concepts=(), reason=""):
        """Drop the entries a deployment change outdated: those
        anchored at any of `concepts`, the affected-concept closure of
        the change.  `reason` is recorded on the invalidation event.
        Returns the number of dropped entries.
        """
        with self._lock:
            concepts = frozenset(concepts)
            dropped = 0
            for key, entry in self.store.items():
                if entry.concepts & concepts:
                    self.store.discard(key)
                    dropped += 1
            self._record_invalidation(dropped, reason)
            return dropped

    def invalidate_source(self, source, reason=""):
        """Drop every entry cached from `source` (deregistration).

        Args:
            source: the deregistered source name.
            reason: free-text reason recorded on the invalidation
                event.
        """
        with self._lock:
            dropped = 0
            for key, entry in self.store.items():
                if entry.source == source:
                    self.store.discard(key)
                    dropped += 1
            self._record_invalidation(
                dropped, reason or "deregister:%s" % source
            )
            return dropped

    def flush(self, reason="flush"):
        """Drop every entry; returns how many were dropped.

        Args:
            reason: free-text reason recorded on the invalidation
                event.
        """
        with self._lock:
            dropped = len(self.store)
            self.store.clear()
            self.stats.flushes += 1
            self._record_invalidation(dropped, reason)
            return dropped

    def _record_invalidation(self, entries, reason):
        self.stats.invalidated_entries += entries
        if entries:
            obs.event("cache.invalidated", entries=entries, reason=reason)
            obs.count("cache.invalidated_entries", entries)

    # -- export ----------------------------------------------------------

    def stats_dict(self):
        """Deterministic JSON-ready snapshot (counts only, no
        timings)."""
        out = {"entries": self.entry_count, "rows": self.row_count}
        out.update(self.stats.as_dict())
        return out

    def __repr__(self):
        return "AnswerCache(entries=%d, %r)" % (self.entry_count, self.stats)
