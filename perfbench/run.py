"""The mediator benchmark: one command, one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload section5 --seed 1 --seconds 20 --trace 0

Each workload runs in fresh interpreters started from this process (one
client, closed loop, sized for two cores):

* ``--trace 0`` starts :data:`SETUPS` interpreters; each imports
  ``repro``, builds the deployment and runs one warm-up operation, and
  the median of those set-up times, each calibrated by the host factor
  of the moment right after (see ``hostspeed.host_factor``), is
  ``setup_s``.  The last of them goes on to the measured loop and
  reports the other end-to-end metrics.
* ``--trace 1`` starts one interpreter that reports per-layer metrics
  from a traced pass (see ``worker.py``).

Whenever a worker asks for host probes (``PROBE <n>``), this process
runs them while the worker waits and writes their times back.  This
process and its workers share one CPU, so that the probe measures the
CPU the operations run on: on a shared host the CPUs of one machine
can run at different speeds at the same time.

The last line of standard output is the JSON result.  The interpreters
run with ``PYTHONHASHSEED=0`` so that traced counts repeat exactly
across processes.  See ``METRICS.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from hostspeed import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("section5", "kb_mixed", "source_calls")
#: interpreters whose set-up is timed; the last one also measures
SETUPS = 9
#: the whole invocation must end within this many seconds
DEADLINE_S = 170.0


class WorkerError(Exception):
    pass


def start_worker(argv, deadline):
    """Run ``worker.py`` with `argv` in a fresh interpreter; returns
    (seconds until it printed READY, the host factor it printed next,
    the lines it printed after those)."""
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
    )
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")] + argv,
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), process.kill)
    watchdog.start()
    ready = factor = None
    lines = []
    try:
        for line in iter(process.stdout.readline, ""):
            if line.startswith("PROBE "):
                times = [probe() for _ in range(int(line.split()[1]))]
                try:
                    process.stdin.write(" ".join(map(repr, times)) + "\n")
                    process.stdin.flush()
                except OSError:  # the worker is gone; its exit code tells
                    pass
            elif ready is None and line.strip() == "READY":
                ready = time.perf_counter() - started
            elif factor is None and line.startswith("HOST "):
                factor = float(line.split()[1])
            else:
                lines.append(line.rstrip("\n"))
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
        process.wait()
        process.stdout.close()
        try:
            process.stdin.close()
        except OSError:
            pass
    if code != 0 or ready is None or factor is None:
        raise WorkerError("worker %s exited with code %s" % (argv, code))
    return ready, factor, lines


def report(lines):
    """Echo a measuring worker's report; returns its JSON result."""
    if not lines:
        raise WorkerError("worker printed no result")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="The mediator benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under %s" % ROOT, file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    worker_argv = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        if args.trace:
            result = report(start_worker(worker_argv, deadline)[2])
        else:
            setups = [
                start_worker(worker_argv + ["--setup-only"], deadline)[:2]
                for _ in range(SETUPS - 1)
            ]
            ready, factor, lines = start_worker(worker_argv, deadline)
            setups.append((ready, factor))
            result = report(lines)
            setup_s = statistics.median(r * f for r, f in setups)
            print(
                "  setup_s %.4f s (median of %d; raw %.4f s)"
                % (setup_s, len(setups), statistics.median(r for r, _f in setups))
            )
            result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    except (WorkerError, ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
