"""Steadiness runs and the recorded baseline.

Runs ``run.py`` once per seed (1 to 10) on each workload of
``BENCHMARK.json``, untraced, and reports
for every end-to-end metric the median, the quartiles and the spread
(inter-quartile distance as a share of the median) next to the metric's
bound from ``BENCHMARK.json``; then one traced run per workload.  With
``--write`` the summary replaces ``perfbench/baseline.json``.

    python3 perfbench/baseline.py --write
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=200,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def summarize(values):
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": quartiles[0],
        "q3": quartiles[2],
        "spread": (quartiles[2] - quartiles[0]) / median if median else 0.0,
        "values": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    summary = {
        "seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        failed = sum(result["failed"] for result in results)
        attempted = sum(result["attempted"] for result in results)
        entry = {"attempted": attempted, "failed": failed, "end_to_end": {}}
        print("%s: %d attempted, %d failed" % (workload, attempted, failed))
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for result in results]
            stats = summarize(values)
            stats["unit"] = results[0]["metrics"][name]["unit"]
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            print(
                "  %-12s median %12.4f %-5s q1 %12.4f q3 %12.4f "
                "spread %.3f (bound %.2f, a third %.3f)"
                % (
                    name,
                    stats["median"],
                    stats["unit"],
                    stats["q1"],
                    stats["q3"],
                    stats["spread"],
                    bound,
                    bound / 3,
                )
            )
            print("    runs: " + " ".join("%.4g" % value for value in values))
        traced = run(workload, 1, spec["run_seconds"], 1)
        entry["per_layer"] = {
            name: metric["value"] for name, metric in traced["metrics"].items()
        }
        summary["workloads"][workload] = entry
    if args.write:
        with open(os.path.join(HERE, "baseline.json"), "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
