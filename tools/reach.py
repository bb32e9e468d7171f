"""Deployment reach: the functions of ``src/repro`` that no deployment calls.

Runs every deployment of the program in this one process while
``sys.setprofile`` and ``threading.setprofile`` record each Python
function that starts running:

* every CLI subcommand and flag (``demo``, ``lint``, ``trace``,
  ``chaos``, ``cache``), on the shipped scenario and on each example;
* the examples under ``examples/``, run as scripts;
* the three perfbench workloads (``perfbench/workloads.py``, imported
  read-only): set up, warmed, prepared with seed 1 and run for
  :data:`PERFBENCH_OPS` checked operations each;
* ``pytest benchmarks --benchmark-disable``.

Then it lists every non-dunder function defined under ``src/repro``
(``module:qualname``) that never ran, and compares the list with
``tools/reach_allowlist.txt``.  It exits 1 when an unreached function
has no allowlist line, or when an allowlist line names a function that
no longer exists or is now reached (a stale line); otherwise 0.

Usage::

    python tools/reach.py            # run the deployments, check the allowlist
    python tools/reach.py --list     # also print every unreached function

Each allowlist line is ``module:qualname  reason  note``, where the
reason is one of :data:`REASONS`; ``#`` starts a comment.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
ALLOWLIST = os.path.join(ROOT, "tools", "reach_allowlist.txt")

#: the reasons an unreached function may stay, and what each one means
REASONS = {
    "input-check": "checks or reports input from outside the program",
    "test-reference": "a test compares against it as a reference reading",
    "benchmark-bound": "perfbench binds it by name",
    "roadmap-7": "stays until ROADMAP item 7 wires EXPLAIN into `repro trace`",
    "valid-input": "a reached function needs it for valid input the deployments do not send",
}

#: checked operations run per perfbench workload
PERFBENCH_OPS = 300
PERFBENCH_SEED = 1


# ---------------------------------------------------------------------------
# what is defined
# ---------------------------------------------------------------------------


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_functions(package=PACKAGE):
    """``{"module:qualname": (path, first line, line count)}`` for every
    non-dunder ``def`` under `package`, nested ones included.  The first
    line is that of the first decorator, as in the code object."""
    functions = {}
    base = os.path.dirname(package)
    for directory, _dirs, files in os.walk(package):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.realpath(os.path.join(directory, filename))
            module = os.path.relpath(os.path.join(directory, filename), base)
            module = module[: -len(".py")].replace(os.sep, ".")
            if module.endswith(".__init__"):
                module = module[: -len(".__init__")]
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            _collect(tree, module, "", path, functions)
    return functions


def _collect(node, module, prefix, path, functions):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            if not _is_dunder(child.name):
                functions["%s:%s" % (module, qualname)] = (
                    path,
                    first,
                    child.end_lineno - first + 1,
                )
            _collect(child, module, qualname + ".<locals>.", path, functions)
        elif isinstance(child, ast.ClassDef):
            _collect(child, module, prefix + child.name + ".", path, functions)
        else:
            _collect(child, module, prefix, path, functions)


# ---------------------------------------------------------------------------
# the allowlist
# ---------------------------------------------------------------------------


class AllowlistError(ValueError):
    """A malformed allowlist line."""


def parse_allowlist(path=ALLOWLIST):
    """``{"module:qualname": (reason, note)}``; raises
    :class:`AllowlistError` on a line without a known reason and a note,
    or on a name listed twice."""
    entries = {}
    with open(path) as handle:
        for number, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split(None, 2)
            if len(fields) < 3 or ":" not in fields[0]:
                raise AllowlistError(
                    "%s:%d: expected 'module:qualname reason note'" % (path, number)
                )
            name, reason, note = fields
            if reason not in REASONS:
                raise AllowlistError(
                    "%s:%d: unknown reason %r (one of %s)"
                    % (path, number, reason, ", ".join(REASONS))
                )
            if name in entries:
                raise AllowlistError("%s:%d: %s is listed twice" % (path, number, name))
            entries[name] = (reason, note)
    return entries


# ---------------------------------------------------------------------------
# the deployments
# ---------------------------------------------------------------------------


def _examples():
    directory = os.path.join(ROOT, "examples")
    return [
        os.path.join(directory, name)
        for name in sorted(os.listdir(directory))
        if name.endswith(".py")
    ]


def _cli_runs(scratch):
    """Every CLI subcommand and flag, on the scenario and the examples."""
    examples = _examples()
    out = os.path.join(scratch, "trace.json")
    why = "'NCMIR.protein_amount.10' : 'Compartment'"
    return [
        [],
        ["--version"],
        ["demo"],
        ["demo", "--trace"],
        ["demo", "--trace-json", out],
        ["lint"],
        ["lint", "--json"],
        ["lint", "--no-info", "--explain"],
        ["lint"] + examples,
        ["lint", "--json", "--no-info"] + examples,
        ["lint", "--explain", os.path.join(scratch, "missing.py")],
        ["trace"],
        ["trace", "--mask-timings", "--why", why],
        ["trace", "--why", "'nothing' : 'Compartment'"],
        ["trace", "--json", "--out", out],
        ["trace", "--mask-timings"] + examples,
        ["trace", "--keep-output", "--json", examples[0]],
        ["chaos", "--seed", "7"],
        ["chaos", "--seed", "7", "--json"],
        ["chaos", "--seed", "7"] + examples,
        ["chaos", "--rate", "0.5", "--json", "--keep-output", examples[0]],
        ["cache", "stats"],
        ["cache", "stats", "--json"],
        ["cache", "warm"],
        ["cache", "clear"],
        ["cache", "verify"],
        ["cache", "verify", "--json"],
        ["cache", "verify"] + examples,
    ]


def run_cli(scratch):
    from repro.__main__ import main

    for argv in _cli_runs(scratch):
        try:
            main(argv)
        except SystemExit:  # --version and argparse exit
            pass


def run_examples():
    for script in _examples():
        saved = sys.argv
        sys.argv = [script]
        try:
            runpy.run_path(script, run_name="__main__")
        finally:
            sys.argv = saved


def run_perfbench():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    for name, cls in sorted(WORKLOADS.items()):
        workload = cls()
        deployment = workload.build()
        workload.warm_up(deployment)
        ops = workload.prepare(PERFBENCH_SEED)
        workload.install(deployment)
        for op in ops[:PERFBENCH_OPS]:
            result = workload.run(deployment, op)
            if not workload.check(deployment, op, result):
                raise RuntimeError("perfbench %s: wrong answer to %r" % (name, op))


def run_benchmarks():
    import pytest

    code = pytest.main(
        [
            os.path.join(ROOT, "benchmarks"),
            "--benchmark-disable",
            "-qq",
            "-p",
            "no:cacheprovider",
            "--rootdir",
            ROOT,
        ]
    )
    if code != 0:
        raise RuntimeError("pytest benchmarks failed (exit %s)" % code)


def reached_code():
    """Run every deployment under the profile hook; returns the set of
    ``(path, first line)`` of each function that ran."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.path.insert(0, SRC)
    with tempfile.TemporaryDirectory() as scratch:
        sink = io.StringIO()
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                run_cli(scratch)
                run_examples()
                run_perfbench()
                run_benchmarks()
        except BaseException:
            sys.stderr.write(sink.getvalue()[-4000:])
            raise
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen}


# ---------------------------------------------------------------------------
# the check
# ---------------------------------------------------------------------------


def check(defined, reached, allowlist):
    """``(unreached, unlisted, stale)``: the names never called, those of
    them the allowlist does not name, and the allowlist names that are
    gone or now reached."""
    unreached = sorted(
        name
        for name, (path, first, _lines) in defined.items()
        if (path, first) not in reached
    )
    unlisted = [name for name in unreached if name not in allowlist]
    stale = sorted(set(allowlist) - set(unreached))
    return unreached, unlisted, stale


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--list", action="store_true", help="print every unreached function"
    )
    args = parser.parse_args(argv)

    allowlist = parse_allowlist()
    defined = defined_functions()
    reached = reached_code()
    unreached, unlisted, stale = check(defined, reached, allowlist)

    lines = sum(defined[name][2] for name in unreached)
    print(
        "deployment reach: %d of %d functions in src/repro never ran (%d lines); "
        "%d allowlisted"
        % (len(unreached), len(defined), lines, len(unreached) - len(unlisted))
    )
    if args.list:
        for name in unreached:
            reason = allowlist.get(name, ("UNLISTED", ""))[0]
            print("  %-14s %4d  %s" % (reason, defined[name][2], name))
    for name in unlisted:
        print("unreached and not allowlisted: %s" % name)
    for name in stale:
        state = "no longer exists" if name not in defined else "is now reached"
        print("stale allowlist line: %s %s" % (name, state))
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
