"""medtrace spans: nested wall-time measurements of mediator work.

A :class:`Span` is one timed region — a plan step, a Datalog stratum, a
wrapper call — with a name, sorted attributes, point-in-time *events*,
and child spans.  A :class:`Tracer` maintains the current-span stack
and the per-trace :class:`~repro.obs.metrics.Metrics`.

The process-wide default is the singleton :data:`NOOP` tracer, so
instrumentation in the hot paths costs one module-attribute read and an
identity check when tracing is off (see :func:`span` and friends in
:mod:`repro.obs`).  Timings come from :func:`time.perf_counter`; trees
are rendered by :mod:`repro.obs.render`.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from .metrics import Metrics


class SpanEvent:
    """A point-in-time annotation inside a span (e.g. a skipped source)."""

    __slots__ = ("name", "attrs", "at")

    def __init__(self, name, attrs, at):
        self.name = name
        self.attrs = dict(attrs)
        self.at = at

    def as_dict(self, mask_timings=False):
        return {
            "name": self.name,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
            "at_ms": None if mask_timings else round(self.at * 1000.0, 3),
        }

    def __repr__(self):
        return "SpanEvent(%r, %r)" % (self.name, self.attrs)


class Span:
    """One timed, attributed region of work; usable as a context manager
    only through :meth:`Tracer.span`."""

    __slots__ = ("name", "attrs", "parent", "children", "events",
                 "_tracer", "_start", "_end")

    def __init__(self, name, attrs, parent, tracer):
        self.name = name
        self.attrs: Dict = dict(attrs)
        self.parent = parent
        self.children: List[Span] = []
        self.events: List[SpanEvent] = []
        self._tracer = tracer
        self._start: Optional[float] = None
        self._end: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self):
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._end = perf_counter()
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        self._tracer._pop(self)
        return False

    @property
    def enabled(self):
        return True

    def duration(self):
        """Wall-clock seconds (None while the span is still open)."""
        if self._start is None or self._end is None:
            return None
        return self._end - self._start

    # -- annotation --------------------------------------------------------

    def set(self, **attrs):
        """Attach/overwrite attributes (e.g. a cardinality known only
        after the work ran)."""
        self.attrs.update(attrs)
        return self

    def event(self, name, **attrs):
        """Record a point-in-time event inside this span."""
        self.events.append(SpanEvent(name, attrs, perf_counter()))
        return self

    # -- export ------------------------------------------------------------

    def as_dict(self, mask_timings=False):
        duration = self.duration()
        return {
            "name": self.name,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
            "duration_ms": (
                None
                if mask_timings or duration is None
                else round(duration * 1000.0, 3)
            ),
            "events": [e.as_dict(mask_timings) for e in self.events],
            "children": [c.as_dict(mask_timings) for c in self.children],
        }

    def iter_spans(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def __repr__(self):
        return "Span(%r, children=%d)" % (self.name, len(self.children))


class _NoopSpan:
    """The shared do-nothing span: every method is inert, so code can
    annotate its span unconditionally."""

    __slots__ = ()
    enabled = False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return self


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects a forest of spans plus per-trace metrics."""

    enabled = True

    def __init__(self, name="trace"):
        self.name = name
        self.roots: List[Span] = []
        self.metrics = Metrics()
        # one span stack per thread: concurrent caller threads open
        # spans, and a shared stack would interleave parents
        self._stacks = threading.local()

    @property
    def _stack(self):
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    # -- span stack --------------------------------------------------------

    def span(self, name, **attrs):
        """Open a child span of the current span (context manager)."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, attrs, parent, self)
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def _pop(self, span):
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # tolerate out-of-order exits
            self._stack.remove(span)

    @property
    def current(self):
        """The innermost open span (or the shared no-op span)."""
        return self._stack[-1] if self._stack else NOOP_SPAN

    def event(self, name, **attrs):
        """Record an event on the current span (dropped at top level)."""
        current = self.current
        if current is not NOOP_SPAN:
            current.event(name, **attrs)

    # -- metrics proxies ---------------------------------------------------

    def count(self, name, value=1, **labels):
        self.metrics.count(name, value, **labels)

    def gauge(self, name, value, **labels):
        self.metrics.gauge(name, value, **labels)

    # -- export ------------------------------------------------------------

    def iter_spans(self):
        for root in self.roots:
            yield from root.iter_spans()

    def find_spans(self, name):
        """All spans with the given name, depth-first order."""
        return [s for s in self.iter_spans() if s.name == name]

    def as_dict(self, mask_timings=False):
        """The one-document JSON form: span forest + metrics."""
        return {
            "trace": self.name,
            "spans": [r.as_dict(mask_timings) for r in self.roots],
            "metrics": self.metrics.as_dict(),
        }

    def __repr__(self):
        return "Tracer(%r, roots=%d)" % (self.name, len(self.roots))


class _NoopTracer:
    """The disabled default: every operation is inert."""

    __slots__ = ()
    enabled = False
    name = "noop"
    roots = ()
    current = NOOP_SPAN

    def span(self, name, **attrs):
        return NOOP_SPAN

    def count(self, name, value=1, **labels):
        pass

    def __repr__(self):
        return "NoopTracer()"


NOOP = _NoopTracer()
