"""The package runs without networkx: it is a test dependency only."""

import os
import pathlib
import subprocess
import sys

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

#: ``sys.modules[name] = None`` makes every ``import name`` raise
#: ImportError, as if the package were not installed
WITHOUT_NETWORKX = r"""
import importlib
import pkgutil
import sys

sys.modules["networkx"] = None

import repro

for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)

from repro.__main__ import main
from repro.neuro.scenario import build_scenario, section5_query

result = build_scenario().mediator.correlate(section5_query())
assert result.answers, "the Section 5 correlate returned no answers"
assert main(["lint"]) == 0
print("ok")
"""


def _run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_every_module_correlate_and_lint_run_without_networkx():
    done = _run(WITHOUT_NETWORKX)
    assert done.returncode == 0, done.stderr
    assert "clean" in done.stdout
    assert done.stdout.rstrip().endswith("ok")


def test_import_repro_does_not_load_networkx():
    done = _run(
        "import sys, repro\n"
        "import repro.domainmap, repro.datalog, repro.analysis, repro.core\n"
        "print('networkx' in sys.modules)"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
