"""medcache: the mediator-side answer cache and materialized views.

The paper's semantic index anchors source data at domain-map concepts —
exactly the key structure a cache needs: an answer is reusable for as
long as the anchoring concepts and the registered capabilities are
unchanged.  medcache exploits that in three layers:

* an **answer cache** on :meth:`Mediator.source_query`, keyed by a
  deterministic fingerprint of (source, class, bound selections,
  capability signature) — see :mod:`repro.cache.fingerprint`;
* **within-plan deduplication** on each plan's call memo, under the
  same fingerprint (on even when no cache is configured);
* **materialized integrated views** (:meth:`Mediator.materialize`),
  evaluated once and served to later ``ask``/``correlate`` calls.

Invalidation is domain-map-aware: a registration, ``dm_refinement`` or
``add_view`` computes the *affected* anchored concepts via the graphops
closures and drops exactly the dependent entries and materializations
(:mod:`repro.cache.invalidation`) — no global flush, though
``AnswerCache(full_flush_on_change=True)`` is the conservative escape
hatch.  Correctness contract: a cache hit returns the same rows the
source call would have (stale medguard results are never cached), so
caching is invisible to answers, only to timings and wire traffic.

Everything is off by default; with ``Mediator(cache=None)`` the hot
path is a single ``is None`` check, same discipline as medtrace and
medguard.
"""

from .answers import AnswerCache, CacheEntry, CacheStats
from .fingerprint import (
    capability_signature,
    fingerprint_digest,
    query_fingerprint,
)
from .invalidation import affected_concepts, refinement_seeds
from .store import CacheStore, DictStore, LRUStore
from .views import Materialization

__all__ = [
    "AnswerCache",
    "CacheEntry",
    "CacheStats",
    "CacheStore",
    "DictStore",
    "LRUStore",
    "Materialization",
    "affected_concepts",
    "capability_signature",
    "fingerprint_digest",
    "query_fingerprint",
    "refinement_seeds",
]
