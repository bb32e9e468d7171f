"""Golden outputs of every deployment: the ``repro`` CLI and the examples.

Each deployment runs in a fresh interpreter under ``PYTHONHASHSEED=0``
from the repository root, and its stdout must match the committed file
in ``tests/golden/cli/`` byte for byte. A refactor that changes what a
deployment prints shows up here as a diff.

Regenerate a file after an intentional output change by running its
command from ``DEPLOYMENTS`` in the repository root, e.g.::

    PYTHONPATH=src PYTHONHASHSEED=0 python -m repro demo > tests/golden/cli/demo.txt
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli"

#: golden file -> the command line that produces it
DEPLOYMENTS = {
    "demo.txt": ["-m", "repro", "demo"],
    "lint.txt": ["-m", "repro", "lint"],
    "chaos.txt": ["-m", "repro", "chaos", "--seed", "7"],
    "chaos.json": ["-m", "repro", "chaos", "--seed", "7", "--json"],
    "cache_stats.json": ["-m", "repro", "cache", "stats", "--json"],
    "cache_verify.txt": ["-m", "repro", "cache", "verify"],
}
DEPLOYMENTS.update(
    ("example_%s.txt" % path.stem, [str(path.relative_to(ROOT))])
    for path in sorted((ROOT / "examples").glob("*.py"))
)


def golden_id(golden):
    """The golden's stem, or its file name when a text golden has the
    same stem (``chaos.txt`` is ``chaos``, ``chaos.json`` keeps its
    extension)."""
    stem = golden.split(".")[0]
    if not golden.endswith(".txt") and stem + ".txt" in DEPLOYMENTS:
        return golden
    return stem


@pytest.mark.parametrize("golden", sorted(DEPLOYMENTS), ids=golden_id)
def test_deployment_output_matches_golden(golden):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable] + DEPLOYMENTS[golden],
        capture_output=True,
        cwd=ROOT,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / golden).read_bytes()


def test_every_golden_file_has_a_deployment():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(DEPLOYMENTS)
