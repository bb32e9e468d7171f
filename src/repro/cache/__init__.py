"""medcache: the mediator-side answer cache.

The paper's semantic index anchors source data at domain-map concepts —
exactly the key structure a cache needs: an answer is reusable for as
long as the anchoring concepts and the registered capabilities are
unchanged.  medcache exploits that with an **answer cache** on
:meth:`Mediator.source_query`, keyed by a deterministic fingerprint of
(source, class, bound selections, capability signature) — see
:mod:`repro.cache.fingerprint`.  The same fingerprint keys medguard's
last-known-good store.

Derived facts are not medcache's concern: the mediator evaluates its
knowledge base once per domain-map revision and serves every
``ask``/``explain`` from that model.

Invalidation is domain-map-aware: a registration, ``dm_refinement`` or
deregistration computes the *affected* anchored concepts via the
graphops closures and drops exactly the dependent entries
(:mod:`repro.cache.invalidation`) — no global flush.  Correctness
contract: a cache hit returns the same rows the source call would have
(stale medguard results are never cached), so caching is invisible to
answers, only to timings and wire traffic.

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
from .store import LRUStore

__all__ = [
    "AnswerCache",
    "CacheEntry",
    "CacheStats",
    "LRUStore",
    "affected_concepts",
    "capability_signature",
    "fingerprint_digest",
    "query_fingerprint",
    "refinement_seeds",
]
