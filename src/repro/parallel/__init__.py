"""medpar: bounded parallel source fan-out for plan execution.

The mediator's correlation plan queries *independent* wrapped sources
(Section 2 of the paper); sequentially their latencies add, so
wall-clock time is the sum when it should be the max.  This package
fans the per-source calls of a plan step out over a bounded thread
pool while keeping every determinism contract intact: results merge in
source-name order, medtrace spans stay well-nested across workers, and
``repro chaos`` reruns stay byte-identical.

Attach with ``Mediator(parallel=...)`` — ``True`` for the default pool,
an int for a ``max_workers`` knob, or a prebuilt
:class:`ParallelExecutor` to share one pool between mediators.  Off by
default: the sequential path pays a single ``is None`` check.

See ``docs/parallelism.md`` for the executor model, the determinism
contract, and how the layer composes with medguard and medcache.
"""

from .executor import (
    DEFAULT_MAX_WORKERS,
    FanoutOutcome,
    ParallelExecutor,
)

__all__ = [
    "DEFAULT_MAX_WORKERS",
    "FanoutOutcome",
    "ParallelExecutor",
    "build_fanout_deployment",
]


def __getattr__(name):
    # build_fanout_deployment lives in .synthetic, which imports the
    # mediator stack; loading it lazily keeps repro.parallel a leaf
    # package importable from repro.core without a cycle
    if name == "build_fanout_deployment":
        from .synthetic import build_fanout_deployment

        return build_fanout_deployment
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
