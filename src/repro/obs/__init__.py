"""medtrace: span-based tracing and metrics for the mediator stack.

A zero-dependency observability layer threaded through every layer of
the deployment — correlation plan steps, F-logic translation, Datalog
strata and semi-naive rounds, domain-map graph operations, and the
wrapper/XML wire.  The process-wide default tracer is a no-op, so
instrumentation costs one module-attribute read and an identity check
when tracing is off (the common case); install a real
:class:`Tracer` with :func:`install` or the :func:`capture` context
manager to record.

Typical use::

    from repro import obs

    with obs.capture("section5") as tracer:
        mediator.correlate(section5_query())
    print(obs.render_tree(tracer))
    open("trace.json", "w").write(obs.to_json(tracer))

Instrumentation points call the module-level helpers —
:func:`span`, :func:`event`, :func:`count` — which
dispatch to the active tracer.  Span taxonomy, metric names, and the
JSON schema are documented in ``docs/observability.md``.
"""

from __future__ import annotations

from contextlib import contextmanager

from .metrics import EvaluationMetrics, Metrics, StratumMetrics
from .render import render_metrics, render_tree, to_json
from .tracer import NOOP, NOOP_SPAN, Span, SpanEvent, Tracer

#: the process-wide active tracer; NOOP unless :func:`install`-ed.
_active = NOOP


def active():
    """The currently installed tracer (the shared no-op by default)."""
    return _active


def install(tracer=None):
    """Install `tracer` (a fresh one when omitted) process-wide and
    return it.  Remember to :func:`uninstall` — or use
    :func:`capture`, which does both."""
    global _active
    _active = tracer if tracer is not None else Tracer()
    return _active


def uninstall():
    """Restore the no-op default; returns the tracer that was active."""
    global _active
    previous = _active
    _active = NOOP
    return previous


@contextmanager
def capture(name="trace"):
    """Install a fresh tracer for the block; yields it."""
    tracer = Tracer(name)
    previous = _active
    install(tracer)
    try:
        yield tracer
    finally:
        install(previous)


# -- instrumentation entry points (hot-path cheap) ------------------------


def span(name, **attrs):
    """Open a span on the active tracer (no-op span when disabled)."""
    tracer = _active
    if tracer is NOOP:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def event(name, **attrs):
    """Record an event on the active tracer's current span."""
    tracer = _active
    if tracer is not NOOP:
        tracer.event(name, **attrs)


def count(name, value=1, **labels):
    """Bump a counter on the active tracer's metrics."""
    tracer = _active
    if tracer is not NOOP:
        tracer.count(name, value, **labels)


__all__ = [
    "EvaluationMetrics",
    "Metrics",
    "NOOP",
    "NOOP_SPAN",
    "Span",
    "SpanEvent",
    "StratumMetrics",
    "Tracer",
    "active",
    "capture",
    "count",
    "event",
    "install",
    "render_metrics",
    "render_tree",
    "span",
    "to_json",
    "uninstall",
]
