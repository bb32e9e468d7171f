"""The answer cache: entries, stats, and the invalidation policy.

:class:`AnswerCache` is what :class:`~repro.core.mediator.Mediator`
holds when caching is on.  It owns

* a pluggable :class:`~repro.cache.store.CacheStore` of
  :class:`CacheEntry` objects (source-call answers keyed by
  fingerprint),
* the named :class:`~repro.cache.views.Materialization` objects of
  materialized integrated views, and
* the :class:`CacheStats` counters every mutation feeds.

Invalidation semantics (the contract the mediator relies on):

* **entries** die when a deployment change touches one of the concepts
  their rows are anchored at (the upward closure computed by
  :func:`~repro.cache.invalidation.affected_concepts`), or when their
  source deregisters.  A *class* overlap alone does not kill an entry:
  entries are per-source rows, and another source exporting the same
  class cannot change what this source answered.
* **materializations** die on concept overlap *or* class overlap —
  a view's derivation reads every source exporting its classes, so a
  new exporter of `protein_amount` outdates a materialized view over
  it even if no concept moved.  A materialization with an empty
  anchor-concept set is *uncacheable* (the MBM034 lint warning): the
  engine cannot scope its dependencies, so it dies on every
  deployment change.
* ``full_flush_on_change=True`` is the conservative escape hatch:
  any invalidation event flushes everything.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from .. import obs
from .store import CacheStore, LRUStore
from .views import Materialization


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
        "invalidated_materializations",
        "materializations",
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
    """The medcache policy object: store + materializations + stats.

    One AnswerCache normally serves one mediator.  Sharing the *store*
    between caches (e.g. warming a second deployment from a first) is
    supported; sharing the AnswerCache itself would cross-wire the
    materializations, which are per-deployment.

    Args:
        store: the :class:`~repro.cache.store.CacheStore` holding the
            entries (default: a bounded
            :class:`~repro.cache.store.LRUStore`).
        full_flush_on_change: conservative mode — any deployment
            change flushes every entry and materialization instead of
            running the domain-map-aware invalidation.

    Lookups, puts, and invalidation sweeps hold a re-entrant lock:
    concurrent caller threads hit the cache, and the stats counters
    and sweep-then-discard loops are not atomic on their own.
    """

    def __init__(self, store=None, full_flush_on_change=False):
        self.store: CacheStore = store if store is not None else LRUStore()
        self.stats = CacheStats()
        self.materializations: Dict[str, Materialization] = {}
        #: conservative mode: any deployment change flushes everything
        self.full_flush_on_change = full_flush_on_change
        #: set by the owning mediator so dropping a materialization
        #: resets the mediator's assembled engine
        self.on_materializations_changed = None
        # re-entrant: flush() runs under invalidate()'s lock when
        # full_flush_on_change is set
        self._lock = threading.RLock()

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

    # -- materializations ------------------------------------------------

    def add_materialization(self, materialization):
        self.materializations[materialization.view_name] = materialization
        self.stats.materializations += 1
        self._materializations_changed()

    def drop_materialization(self, view_name):
        """Drop one materialization; returns True if it existed."""
        if self.materializations.pop(view_name, None) is None:
            return False
        self._materializations_changed()
        return True

    def _materializations_changed(self):
        if self.on_materializations_changed is not None:
            self.on_materializations_changed()

    # -- invalidation ----------------------------------------------------

    def invalidate(self, concepts=(), classes=(), reason=""):
        """Drop what a deployment change outdated.

        `concepts` is the affected-concept closure of the change;
        `classes` the exported/derived class names it touched; `reason`
        is recorded on the invalidation event.  Returns
        ``(dropped_entries, dropped_materializations)``.  See the
        module docstring for the exact overlap semantics.
        """
        with self._lock:
            if self.full_flush_on_change:
                return self.flush(reason=reason or "full_flush_on_change")
            concepts = frozenset(concepts)
            classes = frozenset(classes)
            dropped_entries = 0
            for key, entry in self.store.items():
                if entry.concepts & concepts:
                    self.store.discard(key)
                    dropped_entries += 1
            dropped_materializations = 0
            for name in sorted(self.materializations):
                materialization = self.materializations[name]
                if (
                    materialization.uncacheable
                    or materialization.concepts & concepts
                    or materialization.classes & classes
                ):
                    del self.materializations[name]
                    dropped_materializations += 1
            self._record_invalidation(
                dropped_entries, dropped_materializations, reason
            )
            return dropped_entries, dropped_materializations

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
                dropped, 0, reason or "deregister:%s" % source
            )
            return dropped

    def flush(self, reason="flush"):
        """The escape hatch: drop every entry and materialization.

        Args:
            reason: free-text reason recorded on the invalidation
                event.
        """
        with self._lock:
            dropped_entries = len(self.store)
            dropped_materializations = len(self.materializations)
            self.store.clear()
            self.materializations.clear()
            self.stats.flushes += 1
            self._record_invalidation(
                dropped_entries, dropped_materializations, reason
            )
            return dropped_entries, dropped_materializations

    def _record_invalidation(self, entries, materializations, reason):
        self.stats.invalidated_entries += entries
        self.stats.invalidated_materializations += materializations
        if materializations:
            self._materializations_changed()
        if entries or materializations:
            obs.event(
                "cache.invalidated",
                entries=entries,
                materializations=materializations,
                reason=reason,
            )
            obs.count("cache.invalidated_entries", entries)
            obs.count("cache.invalidated_materializations", materializations)

    # -- export ----------------------------------------------------------

    def stats_dict(self):
        """Deterministic JSON-ready snapshot (counts only, no
        timings)."""
        out = {
            "entries": self.entry_count,
            "rows": self.row_count,
            "materialized_views": sorted(self.materializations),
        }
        out.update(self.stats.as_dict())
        return out

    def __repr__(self):
        return "AnswerCache(entries=%d, materialized=%d, %r)" % (
            self.entry_count,
            len(self.materializations),
            self.stats,
        )
