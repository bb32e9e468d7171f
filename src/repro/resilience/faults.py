"""Deterministic fault injection for wrapped sources.

:class:`FaultInjectingWrapper` decorates any
:class:`~repro.sources.Wrapper` and misbehaves on a *seeded schedule*
(:class:`FaultSchedule`): the same seed injects the same faults at the
same call indices, so chaos runs reproduce byte-for-byte.  Supported
fault kinds:

* ``error`` — raise :class:`~repro.errors.SourceError` (lost
  connection, backend down);
* ``transport`` — raise :class:`~repro.errors.XMLTransportError`;
* ``malformed`` — corrupt the XML answer payload (truncated document,
  wrong root element, or a lying ``count``), exercising the wire
  codec's hardening; on the direct (non-XML) dialogue this degenerates
  to a transport error;
* ``latency`` — stall the call (advances the harness's
  :class:`VirtualClock`, or really sleeps on a wall clock), driving
  per-call timeouts;
* ``truncate`` — silently drop trailing result rows (a misbehaving
  source returning partial data);
* killing (:meth:`FaultSchedule.kill`) — from a given call on, every
  call fails (a source dying mid-plan).

Time during chaos runs is virtual: the shared :class:`VirtualClock`
only moves when someone sleeps on it or a latency fault advances it,
which makes timeout and breaker-cooldown behaviour exactly
reproducible.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..errors import SourceError, XMLTransportError

KIND_ERROR = "error"
KIND_TRANSPORT = "transport"
KIND_MALFORMED = "malformed"
KIND_LATENCY = "latency"
KIND_TRUNCATE = "truncate"

FAULT_KINDS = (
    KIND_ERROR,
    KIND_TRANSPORT,
    KIND_MALFORMED,
    KIND_LATENCY,
    KIND_TRUNCATE,
)

#: malformed-payload corruption variants
MALFORMED_VARIANTS = ("truncated-doc", "wrong-root", "bad-count")


class VirtualClock:
    """A deterministic clock: time only moves when told to.

    Mutations are locked: several caller threads may sleep on or
    advance the shared clock, and the float accumulations
    are read-modify-write.
    """

    __slots__ = ("_now", "slept", "_lock")

    def __init__(self, start=0.0):
        self._now = float(start)
        #: total seconds spent in :meth:`sleep` (backoff accounting)
        self.slept = 0.0
        self._lock = threading.Lock()

    def now(self):
        return self._now

    def sleep(self, seconds):
        with self._lock:
            self._now += seconds
            self.slept += seconds

    def advance(self, seconds):
        with self._lock:
            self._now += seconds

    def __repr__(self):
        return "VirtualClock(%.3f)" % self._now


class Fault:
    """One scheduled fault at one (source, call-index) slot."""

    __slots__ = ("kind", "latency", "drop", "variant")

    def __init__(self, kind, latency=0.0, drop=1, variant=None):
        if kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind %r" % kind)
        self.kind = kind
        self.latency = latency
        self.drop = drop
        self.variant = variant

    def describe(self):
        if self.kind == KIND_LATENCY:
            return "latency+%.2fs" % self.latency
        if self.kind == KIND_TRUNCATE:
            return "truncate-%d" % self.drop
        if self.kind == KIND_MALFORMED:
            return "malformed(%s)" % (self.variant or MALFORMED_VARIANTS[0])
        return self.kind

    def __repr__(self):
        return "Fault(%s)" % self.describe()


class FaultSchedule:
    """A deterministic per-source fault plan, indexed by call number
    (1-based: the n-th ``query``/``run_template`` call the wrapper
    receives, retries included)."""

    def __init__(self):
        self._slots: Dict[Tuple[str, int], List[Fault]] = {}
        self._kill_from: Dict[str, int] = {}

    # -- authoring ---------------------------------------------------------

    def add(self, source, call, fault):
        """Inject `fault` on `source`'s `call`-th call."""
        self._slots.setdefault((source, call), []).append(fault)
        return self

    def kill(self, source, after=0):
        """Permanently fail `source` for every call index > `after`
        (``after=0`` kills it outright)."""
        self._kill_from[source] = after + 1
        return self

    @classmethod
    def from_seed(
        cls,
        seed,
        sources,
        calls=30,
        rate=0.2,
        kinds=(KIND_ERROR, KIND_TRANSPORT, KIND_LATENCY),
        max_consecutive=2,
        latency=0.5,
    ):
        """A seeded random schedule of *recoverable* faults.

        At most `max_consecutive` successive call indices of one source
        are faulted, so a retry budget of ``max_retries >=
        max_consecutive`` always recovers.  The same (seed, sources,
        parameters) produce the identical schedule.
        """
        schedule = cls()
        for source in sorted(sources):
            rng = random.Random("%s/%s" % (seed, source))
            consecutive = 0
            for call in range(1, calls + 1):
                if consecutive >= max_consecutive:
                    consecutive = 0
                    continue
                if rng.random() < rate:
                    kind = kinds[rng.randrange(len(kinds))]
                    variant = (
                        MALFORMED_VARIANTS[
                            rng.randrange(len(MALFORMED_VARIANTS))
                        ]
                        if kind == KIND_MALFORMED
                        else None
                    )
                    schedule.add(
                        source,
                        call,
                        Fault(kind, latency=latency, variant=variant),
                    )
                    consecutive += 1
                else:
                    consecutive = 0
        return schedule

    # -- lookup ------------------------------------------------------------

    def faults_for(self, source, call):
        """The faults to apply to `source`'s `call`-th call."""
        faults = list(self._slots.get((source, call), ()))
        kill_from = self._kill_from.get(source)
        if kill_from is not None and call >= kill_from:
            faults.append(Fault(KIND_ERROR))
        return faults

    def describe(self):
        """Deterministic text rendering of the schedule."""
        lines = []
        for source, call in sorted(self._slots):
            for fault in self._slots[(source, call)]:
                lines.append(
                    "%s call %d: %s" % (source, call, fault.describe())
                )
        for source in sorted(self._kill_from):
            lines.append(
                "%s: killed from call %d" % (source, self._kill_from[source])
            )
        return lines

    def __repr__(self):
        return "FaultSchedule(slots=%d, kills=%d)" % (
            len(self._slots),
            len(self._kill_from),
        )


class FaultInjectingWrapper:
    """A :class:`~repro.sources.Wrapper` decorator misbehaving on a
    deterministic :class:`FaultSchedule`.

    Only the *query endpoints* (``query`` / ``run_template``) inject
    faults — schema export, registration, and lifting delegate to the
    wrapped source untouched, mirroring a source whose data plane
    flakes while its control plane stays up.  With ``mode="xml"``,
    malformed faults corrupt the serialized XML answer (via the
    ``mangle_answer`` hook honoured by
    :func:`repro.xmlio.messages.handle_request`) instead of raising.
    """

    def __init__(self, inner, schedule, clock=None, mode="direct"):
        if mode not in ("direct", "xml"):
            raise ValueError("mode must be 'direct' or 'xml'")
        self.inner = inner
        self.schedule = schedule
        self.clock = clock
        self.mode = mode
        self.calls = 0
        #: (call index, fault) pairs actually injected, in order
        self.injected: List[Tuple[int, Fault]] = []
        self._mangle_next: Optional[Fault] = None
        # call-index assignment must be atomic: concurrent caller
        # threads racing `calls += 1` would replay or skip schedule
        # slots
        self._lock = threading.Lock()

    # -- delegation --------------------------------------------------------

    @property
    def name(self):
        return self.inner.name

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    # -- the faulted data plane --------------------------------------------

    def query(self, source_query):
        rows = self._faulted_call(lambda: self.inner.query(source_query))
        return rows

    def run_template(self, class_name, template_name, **arguments):
        return self._faulted_call(
            lambda: self.inner.run_template(
                class_name, template_name, **arguments
            )
        )

    def _faulted_call(self, fn):
        with self._lock:
            self.calls += 1
            call = self.calls
        truncate = None
        for fault in self.schedule.faults_for(self.name, call):
            self.injected.append((call, fault))
            obs.count("resilience.faults_injected", source=self.name)
            obs.event(
                "resilience.fault_injected",
                source=self.name,
                call=call,
                kind=fault.kind,
            )
            if fault.kind == KIND_LATENCY:
                if self.clock is not None:
                    self.clock.advance(fault.latency)
            elif fault.kind == KIND_ERROR:
                raise SourceError(
                    "injected outage at %s (call %d)" % (self.name, call)
                )
            elif fault.kind == KIND_TRANSPORT:
                raise XMLTransportError(
                    "injected transport fault at %s (call %d)"
                    % (self.name, call)
                )
            elif fault.kind == KIND_MALFORMED:
                if self.mode == "xml":
                    self._mangle_next = fault
                else:
                    raise XMLTransportError(
                        "injected malformed payload at %s (call %d)"
                        % (self.name, call)
                    )
            elif fault.kind == KIND_TRUNCATE:
                truncate = fault
        rows = fn()
        if truncate is not None and isinstance(rows, list) and rows:
            rows = rows[: max(0, len(rows) - truncate.drop)]
        return rows

    def mangle_answer(self, answer_xml):
        """Corrupt the XML answer when a malformed fault is pending
        (the :func:`~repro.xmlio.messages.handle_request` hook)."""
        fault = self._mangle_next
        if fault is None:
            return answer_xml
        self._mangle_next = None
        variant = fault.variant or MALFORMED_VARIANTS[0]
        if variant == "truncated-doc":
            return answer_xml[: max(1, len(answer_xml) // 2)]
        if variant == "wrong-root":
            return answer_xml.replace("<answer", "<wrong", 1).replace(
                "</answer>", "</wrong>"
            )
        # bad-count: the declared row count lies
        return answer_xml.replace('count="', 'count="9', 1)

    def injected_counts(self):
        """Deterministic ``fault kind -> count`` summary."""
        counts: Dict[str, int] = {}
        for _call, fault in self.injected:
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        return dict(sorted(counts.items()))

    def __repr__(self):
        return "FaultInjectingWrapper(%r, calls=%d, injected=%d)" % (
            self.name,
            self.calls,
            len(self.injected),
        )
