"""medtrace metrics: counters and gauges collected during a trace.

Two flavours:

* :class:`Metrics` — a labelled counter/gauge registry owned by a
  :class:`~repro.obs.tracer.Tracer`; instrumentation reports through
  ``tracer.count(...)`` / ``tracer.gauge(...)`` and never touches this
  module directly.
* :class:`EvaluationMetrics` — the per-evaluation record the Datalog
  engine fills in when tracing is enabled: rule firings, facts derived
  per stratum, semi-naive delta sizes per round, well-founded
  alternation count, final store size, and the ``derived_at`` map
  (atom -> (stratum, round)) that provenance uses to annotate
  derivation trees.

Metric names are dotted, lower-case, and stable — they are part of the
JSON schema documented in ``docs/observability.md``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple


class Metrics:
    """Labelled counters and gauges with deterministic export order.

    Thread-safe: concurrent caller threads bump counters, and the
    read-modify-write of an increment would lose updates unlocked.
    """

    __slots__ = ("_counters", "_gauges", "_lock")

    def __init__(self):
        self._counters: Dict[Tuple, float] = {}
        self._gauges: Dict[Tuple, float] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _key(name, labels):
        return (name,) + tuple(sorted(labels.items()))

    def count(self, name, value=1, **labels):
        """Add `value` to a (labelled) counter."""
        key = self._key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name, value, **labels):
        """Set a (labelled) gauge to its latest value."""
        with self._lock:
            self._gauges[self._key(name, labels)] = value

    def counter_value(self, name, **labels):
        return self._counters.get(self._key(name, labels), 0)

    def counter_total(self, name):
        """Sum of a counter across all label sets."""
        return sum(v for k, v in self._counters.items() if k[0] == name)

    def counters_with_prefix(self, prefix):
        """``{counter name: total across label sets}`` for counters
        whose name starts with `prefix` — e.g. ``"cache."`` collects
        the medcache family (``cache.hits``, ``cache.misses``,
        ``cache.puts``, ``cache.evictions``,
        ``cache.invalidated_entries``).  Sorted by name, so the
        export is deterministic."""
        totals = {}
        for key, value in self._counters.items():
            if key[0].startswith(prefix):
                totals[key[0]] = totals.get(key[0], 0) + value
        return dict(sorted(totals.items()))

    def merge(self, other):
        """Fold another registry into this one (counters add, gauges
        take the other's value)."""
        with other._lock:
            counters = dict(other._counters)
            gauges = dict(other._gauges)
        with self._lock:
            for key, value in counters.items():
                self._counters[key] = self._counters.get(key, 0) + value
            self._gauges.update(gauges)
        return self

    def as_dict(self):
        """JSON-ready: {"counters": [...], "gauges": [...]} sorted by
        name then labels."""

        def rows(table):
            out = []
            for key in sorted(table, key=repr):
                name, labels = key[0], key[1:]
                out.append(
                    {
                        "name": name,
                        "labels": {k: v for k, v in labels},
                        "value": table[key],
                    }
                )
            return out

        return {"counters": rows(self._counters), "gauges": rows(self._gauges)}

    def __len__(self):
        return len(self._counters) + len(self._gauges)

    def __repr__(self):
        return "Metrics(counters=%d, gauges=%d)" % (
            len(self._counters),
            len(self._gauges),
        )


class StratumMetrics:
    """Per-stratum record: how many facts each semi-naive round derived."""

    __slots__ = ("index", "relations", "facts_derived", "rounds")

    def __init__(self, index, relations=()):
        self.index = index
        self.relations = sorted(relations)
        self.facts_derived = 0
        self.rounds: List[int] = []  # delta size per semi-naive round

    def __repr__(self):
        return "StratumMetrics(index=%d, facts=%d, rounds=%r)" % (
            self.index,
            self.facts_derived,
            self.rounds,
        )


class EvaluationMetrics:
    """What one Datalog evaluation did (attached to EvaluationResult)."""

    def __init__(self):
        self.rule_firings = 0
        self.strata: List[StratumMetrics] = []
        self.wf_alternations = 0
        self.store_size = 0
        self.undefined_count = 0
        #: atom -> (stratum index, round index); round 0 is the initial
        #: full pass (facts included), rounds 1.. are semi-naive deltas.
        #: Empty under the well-founded fallback (the alternating
        #: fixpoint re-derives facts many times; "the" round is not
        #: well defined there).
        self.derived_at: Dict = {}

    def begin_stratum(self, index, relations=()):
        stratum = StratumMetrics(index, relations)
        self.strata.append(stratum)
        return stratum

    @property
    def facts_derived(self):
        return sum(s.facts_derived for s in self.strata)

    def __repr__(self):
        return (
            "EvaluationMetrics(firings=%d, facts=%d, strata=%d, wf=%d)"
            % (
                self.rule_firings,
                self.facts_derived,
                len(self.strata),
                self.wf_alternations,
            )
        )
