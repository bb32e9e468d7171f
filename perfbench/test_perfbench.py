"""Tests of the benchmark itself (not part of the repository's tier-1
suite; run with ``python3 -m pytest perfbench -q`` from the repository
root).  They check that the oracles reject wrong answers, that a short
run of each workload prints every metric with its unit and no failure,
and that traced per-layer counts repeat exactly across processes."""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from workloads import KBMixed, Section5, SourceCalls  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]

#: per-layer metrics that count work and must repeat exactly
DETERMINISTIC = [
    metric["name"]
    for metric in SPEC["per_layer"]
    if metric["unit"] in ("count", "bytes") or metric["name"] == "cache.hit_ratio"
]
#: a traced section5 op's per-layer self times must cover this share of
#: its traced duration (the rest is time in no traced layer)
COVERAGE_TOLERANCE = 0.10


def run_benchmark(workload, trace, seed=3, seconds=1):
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
        timeout=180,
    )
    assert completed.returncode == 0
    return json.loads(completed.stdout.splitlines()[-1])


def first_op(workload, ops, kind):
    return next(op for op in ops if op[0] == kind)


# -- oracles ---------------------------------------------------------------


def test_section5_oracle_rejects_a_corrupted_distribution():
    workload = Section5()
    ops = workload.prepare(seed=1)
    deployment = workload.build()
    op = ("correlate", 0)  # the Section 5 query itself
    assert op in ops
    result = workload.run(deployment, op)
    assert workload.check(deployment, op, result)
    row = result.answers[0][1].rows[0]
    row.cumulative = (row.cumulative or 0) + 1.0
    assert not workload.check(deployment, op, result)


def test_kb_mixed_oracles_reject_corrupted_answers():
    workload = KBMixed()
    ops = workload.prepare(seed=1)
    deployment = workload.build()
    workload.install(deployment)

    ask = ("ask", 0)  # spine_length_by_condition: {condition: mean}
    answer = workload.run(deployment, ask)
    assert workload.check(deployment, ask, answer)
    corrupted = dict(answer)
    condition = sorted(corrupted)[0]
    corrupted[condition] += 0.5
    assert not workload.check(deployment, ask, corrupted)

    explain = first_op(workload, ops, "explain")
    tree = workload.run(deployment, explain)
    assert workload.check(deployment, explain, tree)
    other = next(
        op for op in [("explain", i) for i in range(len(workload.facts))]
        if workload.facts[op[1]] != workload.facts[explain[1]]
    )
    assert not workload.check(deployment, other, tree)

    register, deregister = ("write", 0), ("write", 1)
    registration = workload.run(deployment, register)
    assert workload.check(deployment, register, registration)
    # the ask oracle follows the KB state: the decoy moves protein sums
    by_ion = workload.asks.index(
        next(a for a in workload.asks if a[0].startswith("protein_amount_by"))
    )
    with_decoy = workload.run(deployment, ("ask", by_ion))
    assert workload.check(deployment, ("ask", by_ion), with_decoy)
    assert not workload.check(deployment, deregister, None)
    workload.run(deployment, deregister)
    assert workload.check(deployment, deregister, None)
    assert not workload.check(deployment, ("ask", by_ion), with_decoy)


def test_source_calls_oracle_rejects_a_dropped_row():
    workload = SourceCalls()
    ops = workload.prepare(seed=1)
    deployment = workload.build()
    workload.install(deployment)
    op = next(
        op for op in ops if len(workload.run(deployment, op)) > 1
    )
    rows = workload.run(deployment, op)
    assert workload.check(deployment, op, rows)
    assert not workload.check(deployment, op, rows[:-1])
    changed = copy.deepcopy(rows)
    changed[0]["amount" if "amount" in changed[0] else "_object"] = "wrong"
    assert not workload.check(deployment, op, changed)


# -- end-to-end runs ---------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_short_run_prints_every_metric_without_failures(workload):
    result = run_benchmark(workload, trace=0)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module")
def traced_pairs():
    """Two traced runs with the same seed, per workload."""
    return {
        workload: (run_benchmark(workload, trace=1), run_benchmark(workload, trace=1))
        for workload in WORKLOAD_NAMES
    }


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counts_repeat_across_processes(traced_pairs, workload):
    first, second = traced_pairs[workload]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert result["correct"] is True and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name in DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def _self_times(result):
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if name.endswith(".self_ms_per_op") and not name.startswith("unattributed")
    }


@pytest.mark.parametrize("workload", ["section5", "kb_mixed"])
def test_datalog_evaluate_is_the_largest_layer(traced_pairs, workload):
    self_times = _self_times(traced_pairs[workload][0])
    assert max(self_times, key=self_times.get) == "datalog.evaluate.self_ms_per_op"


def test_source_calls_run_no_datalog(traced_pairs):
    metrics = traced_pairs["source_calls"][0]["metrics"]
    assert metrics["datalog.evaluate.calls_per_op"]["value"] == 0
    assert metrics["cache.hit_ratio"]["value"] > 0.5
    assert metrics["resilience.retries_per_call"]["value"] > 0


def test_section5_layer_self_times_cover_the_traced_op(traced_pairs):
    metrics = traced_pairs["section5"][0]["metrics"]
    assert metrics["trace.coverage_ratio"]["value"] >= 1 - COVERAGE_TOLERANCE
    assert metrics["trace.coverage_ratio"]["value"] <= 1 + 1e-9


def test_without_the_sources_the_benchmark_fails(tmp_path):
    """Beside only its own files the benchmark must fail, not report."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [
            sys.executable, str(tmp_path / "perfbench" / "run.py"),
            "--workload", "section5", "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
