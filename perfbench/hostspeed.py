"""The host-speed probe that calibrates the benchmark's timings.

``run.py`` runs :func:`probe` in its own process whenever a worker asks
for it, while the worker waits; the worker turns the probe times into a
host factor with :func:`host_factor`.  Running the probe apart from the
measured interpreter keeps that interpreter's threads and heap out of
it: a change that slows the operations without slowing the host shows
in the calibrated figures.
"""

from __future__ import annotations

import gc
import statistics
import time

#: the probe's time on the reference host: a 2-vCPU Intel Xeon VM with
#: Python 3.11.7, in a quiet period
PROBE_REFERENCE_S = 0.026


class _Item:
    __slots__ = ("rank", "label")

    def __init__(self, rank, label):
        self.rank = rank
        self.label = label


def probe():
    """Seconds taken by fixed pure-Python work that calls nothing of
    ``repro``: it measures how fast the host runs Python right now.

    Half is an arithmetic and dict loop, half is allocating and sorting
    small objects.  The first tracked ``kb_mixed``'s speed best, the
    second ``section5``'s; their sum tracks both about as well as the
    better of the two on each.  The cyclic garbage collector is off
    while it runs."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0
        table = {}
        for i in range(100_000):
            total += i * i
            table[i & 1023] = total
        items = [_Item(i % 97, str(i % 1013)) for i in range(14_000)]
        items.sort(key=lambda item: (item.label, item.rank))
        total += sum(item.rank for item in items)
        del items
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def host_factor(probes):
    """Reference probe time / median measured probe time: multiplying a
    timing by it gives the time the reference host would have taken.

    A shared host runs the same code up to twice as slowly for seconds
    or minutes at a time, which no run length averages away; the probe
    slows with it."""
    return PROBE_REFERENCE_S / statistics.median(probes)
