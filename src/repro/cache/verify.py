"""Cache-correctness verification: run twice, compare byte-for-byte.

The medcache contract is that caching changes *timings and wire
traffic*, never answers.  This module checks that operationally, the
same way `repro chaos` checks the degraded-answer contract:

* **scenario mode** (:func:`verify_scenario`) — the Section 5
  correlation over the XML wire, twice, against one mediator with the
  cache on: the second run must issue zero source queries and zero
  query-kind wire bytes, with answers equal to both the first run and
  an uncached control run.
* **script mode** (:func:`verify_script`) — run a deployment script
  twice in-process with every mediator it builds silently given an
  answer cache over one shared store (the same monkeypatch mechanism
  as the chaos harness); the two runs' stdout must be byte-identical
  and the second run's query wire traffic must not exceed the first's
  (zero when every source call was cacheable).
"""

from __future__ import annotations

import contextlib
import io
import runpy

from .. import obs
from .answers import AnswerCache
from .store import LRUStore


class VerifyReport:
    """The outcome of one verification: named checks + measurements."""

    def __init__(self, target):
        self.target = target
        self.checks = []  # (name, ok, detail)
        self.measurements = {}

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _name, ok, _detail in self.checks)

    def format(self):
        lines = ["cache verify: %s" % self.target]
        for name, ok, detail in self.checks:
            mark = "PASS" if ok else "FAIL"
            suffix = "  (%s)" % detail if detail else ""
            lines.append("  [%s] %s%s" % (mark, name, suffix))
        for key in sorted(self.measurements):
            lines.append("  %s = %s" % (key, self.measurements[key]))
        return "\n".join(lines)

    def as_dict(self):
        return {
            "target": self.target,
            "ok": self.ok,
            "checks": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
            "measurements": dict(sorted(self.measurements.items())),
        }


def _answer_table(result):
    """Deterministic, comparable form of a correlation answer."""
    return [
        (group, distribution.total())
        for group, distribution in result.answers
    ]


def verify_scenario(seed=2001):
    """Scenario mode: Section 5 over the XML wire, cold then warm."""
    from ..neuro import build_scenario, section5_query

    report = VerifyReport("section5 scenario (seed=%d)" % seed)
    control = build_scenario(seed=seed, eager=False, dialogue_via_xml=True)
    control_answers = _answer_table(control.mediator.correlate(section5_query()))

    scenario = build_scenario(
        seed=seed, eager=False, dialogue_via_xml=True, cache=AnswerCache()
    )
    mediator = scenario.mediator
    runs = []
    for _run in range(2):
        with obs.capture("cache-verify") as tracer:
            answers = _answer_table(mediator.correlate(section5_query()))
        runs.append(
            {
                "answers": answers,
                "source_queries": tracer.metrics.counter_total("source.queries"),
                "query_wire_bytes": tracer.metrics.counter_value(
                    "wire.bytes", kind="query"
                ),
            }
        )
    cold, warm = runs
    report.check(
        "uncached and cold-cache answers equal",
        cold["answers"] == control_answers,
    )
    report.check("warm answers byte-identical", warm["answers"] == cold["answers"])
    report.check(
        "warm run issues zero source queries",
        warm["source_queries"] == 0,
        "got %d" % warm["source_queries"],
    )
    report.check(
        "warm run moves zero query wire bytes",
        warm["query_wire_bytes"] == 0,
        "got %d" % warm["query_wire_bytes"],
    )
    report.check(
        "cold run did go over the wire", cold["query_wire_bytes"] > 0
    )
    report.measurements.update(
        {
            "cold.source_queries": cold["source_queries"],
            "cold.query_wire_bytes": cold["query_wire_bytes"],
            "warm.source_queries": warm["source_queries"],
            "warm.query_wire_bytes": warm["query_wire_bytes"],
            "cache.entries": mediator.cache.entry_count,
            "cache.hits": mediator.cache.stats.hits,
            "cache.misses": mediator.cache.stats.misses,
        }
    )
    return report


@contextlib.contextmanager
def cached_mediators(store):
    """Monkeypatch :class:`Mediator` so every instance a script builds
    without its own cache gets an :class:`AnswerCache` over `store`
    (one shared store = answers survive into the script's second
    run)."""
    from ..core.mediator import Mediator

    original_init = Mediator.__init__

    def cached_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        if self.cache is None:
            self.cache = AnswerCache(store=store)

    Mediator.__init__ = cached_init
    try:
        yield
    finally:
        Mediator.__init__ = original_init


def _run_script(path):
    """Run one deployment script; returns (stdout, query wire bytes,
    source queries)."""
    stdout = io.StringIO()
    with obs.capture("cache-verify-script") as tracer:
        with contextlib.redirect_stdout(stdout):
            runpy.run_path(path, run_name="__main__")
    return (
        stdout.getvalue(),
        tracer.metrics.counter_value("wire.bytes", kind="query"),
        tracer.metrics.counter_total("source.queries"),
    )


def verify_script(path):
    """Script mode: run `path` twice over one shared cache store."""
    report = VerifyReport(path)
    store = LRUStore(max_entries=None, max_rows=None)
    with cached_mediators(store):
        out1, wire1, queries1 = _run_script(path)
        out2, wire2, queries2 = _run_script(path)
    report.check("second run stdout byte-identical", out1 == out2)
    report.check(
        "second run query wire bytes <= first",
        wire2 <= wire1,
        "%d -> %d" % (wire1, wire2),
    )
    report.check(
        "second run source queries <= first",
        queries2 <= queries1,
        "%d -> %d" % (queries1, queries2),
    )
    report.measurements.update(
        {
            "run1.query_wire_bytes": wire1,
            "run1.source_queries": queries1,
            "run2.query_wire_bytes": wire2,
            "run2.source_queries": queries2,
            "store.entries": len(store),
        }
    )
    return report
