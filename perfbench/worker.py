"""One workload in one fresh interpreter (started by ``run.py``).

Sets the workload's deployment up, warms it with one operation and
prints ``READY`` (``run.py`` times set-up up to that line), then
``HOST <factor>``, the host-speed factor of that moment (see
``hostspeed.host_factor``).  For each probe it prints ``PROBE <n>`` and
reads the times of `n` probes from standard input: ``run.py`` runs them
in its own process.  With ``--setup-only`` it stops after ``HOST``.
Otherwise it prepares the seeded inputs in a forked child and then
either

* ``--trace 0``: runs the operation stream in a closed loop, one
  operation at a time, until the operations themselves have taken
  ``--seconds`` seconds, checking every answer outside the timed
  region, and reports timings calibrated to the reference host speed;
  or
* ``--trace 1``: runs a fixed prefix of the stream twice on two fresh,
  identical deployments, untraced and then under the outside tracer and
  ``obs.capture``, and reports per-layer numbers per operation.

The last line printed is the JSON result for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import sys
import time
import traceback

from repro import obs

from hostspeed import host_factor
from tracer import LAYERS, OP, STEP_KINDS, OutsideTracer
from workloads import WORKLOADS

#: the wall-clock ceiling of a measured loop, whatever --seconds says
MAX_LOOP_WALL_S = 120.0
#: mismatches reported in full before going quiet
REPORTED_MISMATCHES = 5
#: op time between two probes of the measured loop
PROBE_EVERY_S = 0.25


def probe_times(count):
    """Seconds taken by `count` host probes (``hostspeed.probe``), run
    by ``run.py`` in its own process while this one waits."""
    print("PROBE %d" % count, flush=True)
    times = [float(field) for field in sys.stdin.readline().split()]
    if len(times) != count:
        raise RuntimeError("no probe times on stdin: start workers with run.py")
    return times


def prepare_apart(workload, seed):
    """Run ``workload.prepare(seed)`` in a forked child and take over
    the operation stream and oracle data it made.

    The oracles build whole extra deployments and evaluate them; made
    in this process, their memory would set ``peak_rss_mb`` instead of
    the measured deployment's."""
    read_end, write_end = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 1
        try:
            with os.fdopen(write_end, "wb") as out:
                ops = workload.prepare(seed)
                pickle.dump((ops, vars(workload)), out, pickle.HIGHEST_PROTOCOL)
            code = 0
        except BaseException:  # reported; the parent sees the exit code
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as stream:
        try:
            ops, state = pickle.load(stream)
        except (EOFError, pickle.UnpicklingError):
            ops = state = None
    _pid, status = os.waitpid(pid, 0)
    if status != 0 or state is None:
        raise RuntimeError("preparing the %s inputs failed" % workload.name)
    vars(workload).update(state)
    return ops


def percentile(values, share):
    """The `share` quantile (inclusive method) of `values`."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs and checks operations, tallying attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def fail(self, op, message):
        self.failed += 1
        if self.failed <= REPORTED_MISMATCHES:
            print("FAILED %s %r: %s" % (self.workload.name, op, message))

    def timed(self, deployment, op):
        """Run one op; returns its duration in seconds, or None when it
        raised or answered wrongly."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = self.workload.run(deployment, op)
        except Exception:  # the loop must go on; the failure is counted
            self.fail(op, traceback.format_exc(limit=3))
            return None
        elapsed = time.perf_counter() - started
        return elapsed if self.verify(deployment, op, result) else None

    def verify(self, deployment, op, result):
        if self.workload.check(deployment, op, result):
            return True
        self.fail(op, "answer differs from the oracle")
        return False


def measure(workload, deployment, ops, seconds):
    """The untraced closed loop; returns the end-to-end result.

    The loop stops on a round boundary of the stream, so every run
    measures whole rounds of the same mix whatever the host's speed.
    The probe runs before the first operation, after every
    :data:`PROBE_EVERY_S` of operation time and at the end of every
    round, outside the timed region.  The operations between two
    probes are calibrated by the mean of those two probe times: the
    host's speed changes within a round, and a ``kb_mixed`` operation
    (longer than the probe interval) gets probes of its own on both
    sides.  Throughput is the median over rounds of each round's
    operations per second of calibrated operation time."""
    runner = Runner(workload)
    samples = {kind: [] for kind in workload.kinds}
    raw = []
    rates = []
    factors = []
    segment = []  # (kind, seconds) since the last probe
    calibrated = []  # calibrated seconds of the round in progress
    last_probe = probe_times(1)

    def close_segment():
        nonlocal last_probe
        probe = probe_times(1)
        factor = host_factor(last_probe + probe)
        last_probe = probe
        factors.append(factor)
        for kind, elapsed in segment:
            samples[kind].append(elapsed * factor)
            calibrated.append(elapsed * factor)
        segment.clear()

    def close_round():
        close_segment()
        if calibrated:
            rates.append(len(calibrated) / sum(calibrated))
        calibrated.clear()

    spent = 0.0
    since_probe = 0.0
    wall_start = time.perf_counter()
    index = 0
    while (
        spent < seconds or index % workload.round_ops
    ) and time.perf_counter() - wall_start < MAX_LOOP_WALL_S:
        op = ops[index % len(ops)]
        index += 1
        elapsed = runner.timed(deployment, op)
        if elapsed is not None:
            spent += elapsed
            since_probe += elapsed
            segment.append((op[0], elapsed))
            raw.append(elapsed)
        if index % workload.round_ops == 0:
            close_round()
            since_probe = 0.0
        elif since_probe >= PROBE_EVERY_S:
            close_segment()
            since_probe = 0.0
    if segment or calibrated:  # the wall-clock ceiling cut a round short
        close_round()
    latencies = [value for kind in workload.kinds for value in samples[kind]]
    if not latencies:  # every operation failed; the result says so
        latencies = [0.0]
    metrics = {
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "ops_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    counts = {"op_p50_ms": len(latencies), "ops_per_s": len(rates)}
    print(
        "%s: %d ops in %.1f s of op time, %d failed (ops_failed_ratio %.4f)"
        % (
            workload.name,
            runner.attempted,
            spent,
            runner.failed,
            runner.failed / runner.attempted,
        )
    )
    if raw:
        print(
            "  raw (uncalibrated) op_p50_ms %.4f ms; host factor median %.3f "
            "over %d probe intervals" % (
                statistics.median(raw) * 1e3,
                statistics.median(factors),
                len(factors),
            )
        )
    for kind in workload.kinds:
        values = samples[kind]
        if not values:
            continue
        scale, unit = (1e6, "us") if kind == "source_call" else (1e3, "ms")
        print(
            "  %s_p50_%s %.4f %s  %s_p95_%s %.4f %s  (n=%d)"
            % (
                kind,
                unit,
                statistics.median(values) * scale,
                unit,
                kind,
                unit,
                percentile(values, 0.95) * scale,
                unit,
                len(values),
            )
        )
    if "source_call" in samples:
        print("  source_calls_per_s %.1f 1/s" % metrics["ops_per_s"][0])
    for name, (value, unit) in metrics.items():
        count = " (n=%d)" % counts[name] if name in counts else ""
        print("  %s %.4f %s%s" % (name, value, unit, count))
    return runner, metrics


def traced(workload, deployment, ops):
    """Untraced then traced pass over `ops` on identical deployments;
    returns per-layer metrics per operation."""
    runner = Runner(workload)
    untraced = [runner.timed(deployment, op) for op in ops]

    twin = workload.build()
    workload.warm_up(twin)
    workload.install(twin)
    counters = obs.Metrics()
    with OutsideTracer() as tracer:
        for op in ops:
            runner.attempted += 1
            tracer.recording = True
            try:
                with obs.capture("perfbench") as capture:
                    span = tracer.open(OP)
                    try:
                        result = workload.run(twin, op)
                    finally:
                        tracer.close(span)
            except Exception:  # counted; the pass goes on
                runner.fail(op, traceback.format_exc(limit=3))
                continue
            finally:
                tracer.recording = False
            counters.merge(capture.metrics)
            runner.verify(twin, op, result)
        totals = tracer.layer_totals()
        op_seconds = tracer.op_durations()

    count = float(len(ops))

    def calls(layer):
        return totals.get(layer, [0, 0.0, 0])[0]

    def self_s(layer):
        return totals.get(layer, [0, 0.0, 0])[1]

    def per_call(value, layer):
        return value / calls(layer) if calls(layer) else 0.0

    hits = counters.counter_total("cache.hits")
    lookups = hits + counters.counter_total("cache.misses")
    wire_bytes = counters.counter_value(
        "wire.bytes", kind="query"
    ) + counters.counter_value("wire.bytes", kind="register")
    attributed = sum(self_s(layer) for layer in LAYERS)
    timed_untraced = [value for value in untraced if value is not None]
    metrics = {
        "datalog.evaluate.calls_per_op": (calls("datalog.evaluate") / count, "count"),
        "datalog.rule_firings_per_op": (
            counters.counter_total("datalog.rule_firings") / count,
            "count",
        ),
        "datalog.facts_derived_per_op": (
            counters.counter_total("datalog.facts_derived") / count,
            "count",
        ),
        "domainmap.graphops.calls_per_op": (
            calls("domainmap.graphops") / count,
            "count",
        ),
        "xmlio.bytes_per_op": (wire_bytes / count, "bytes"),
        "sources.query.calls_per_op": (calls("sources.query") / count, "count"),
        "sources.rows_per_call": (
            per_call(totals.get("sources.query", [0, 0.0, 0])[2], "sources.query"),
            "count",
        ),
        "cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "cache.lookups_per_op": (lookups / count, "count"),
        "cache.evictions_per_op": (
            counters.counter_total("cache.evictions") / count,
            "count",
        ),
        "cache.lookup.self_us_per_call": (
            per_call(self_s("cache.lookup") * 1e6, "cache.lookup"),
            "us",
        ),
        "resilience.calls_per_op": (calls("resilience.call") / count, "count"),
        "resilience.retries_per_call": (
            per_call(counters.counter_total("resilience.retry"), "resilience.call"),
            "count",
        ),
        "resilience.call.self_us_per_call": (
            per_call(self_s("resilience.call") * 1e6, "resilience.call"),
            "us",
        ),
        "unattributed.self_ms_per_op": (self_s(OP) * 1e3 / count, "ms"),
        "trace.coverage_ratio": (
            attributed / sum(op_seconds) if op_seconds else 0.0,
            "ratio",
        ),
        "obs.tracing_overhead_ratio": (
            statistics.median(op_seconds) / statistics.median(timed_untraced)
            if op_seconds and timed_untraced
            else 0.0,
            "ratio",
        ),
    }
    for layer in SELF_MS_LAYERS:
        metrics["%s.self_ms_per_op" % layer] = (self_s(layer) * 1e3 / count, "ms")

    total_ms = sum(op_seconds) * 1e3 / count if op_seconds else 0.0
    print(
        "%s traced: %d ops, %.3f ms per traced op, %d failed"
        % (workload.name, len(ops), total_ms, runner.failed)
    )
    for layer in sorted(totals, key=lambda name: -totals[name][1]):
        layer_calls, layer_self, _rows = totals[layer]
        print(
            "  %-34s calls/op %10.2f  self ms/op %9.3f  share %5.1f%%"
            % (
                layer,
                layer_calls / count,
                layer_self * 1e3 / count,
                100.0 * layer_self * 1e3 / count / total_ms if total_ms else 0.0,
            )
        )
    return runner, metrics


#: layers reported as ``<layer>.self_ms_per_op``
SELF_MS_LAYERS = (
    "datalog.evaluate",
    "datalog.stratify",
    "datalog.safety",
    "datalog.provenance",
    "domainmap.graphops",
    "domainmap.compile",
    "flogic.ask",
    "core.mediator.assembled_rules",
) + tuple("core.planner.%s" % kind for kind in STEP_KINDS) + (
    "core.aggregate",
    "xmlio",
    "sources.query",
    "sources.lift_rows",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    deployment = workload.build()
    workload.warm_up(deployment)
    print("READY", flush=True)
    print("HOST %r" % host_factor(probe_times(5)), flush=True)
    if args.setup_only:
        return 0

    ops = prepare_apart(workload, args.seed)
    workload.install(deployment)
    if args.trace:
        runner, metrics = traced(workload, deployment, ops[: workload.trace_ops])
    else:
        runner, metrics = measure(workload, deployment, ops, args.seconds)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
