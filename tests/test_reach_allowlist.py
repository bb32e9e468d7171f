"""The deployment-reach allowlist stays well formed.

``tools/reach.py`` (the CI job ``deployment-reach``) runs every
deployment under a profile hook and fails on an unreached function the
allowlist does not name.  This test runs no deployment: it checks only
that each allowlist line parses, gives one of the accepted reasons and
names a function that exists in ``src/repro``.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_line_names_an_existing_function_with_a_known_reason(reach):
    entries = reach.parse_allowlist()
    assert entries
    defined = reach.defined_functions()
    assert sorted(set(entries) - set(defined)) == []
    assert {reason for reason, _note in entries.values()} <= set(reach.REASONS)
    assert all(note.strip() for _reason, note in entries.values())


@pytest.mark.parametrize(
    "line, message",
    [
        ("repro.graph:reachable\n", "expected"),
        ("repro.graph:reachable  unused  no deployment calls it\n", "unknown reason"),
        ("repro.graph.reachable  input-check  no colon\n", "expected"),
        (
            "repro.graph:reachable  input-check  a\n"
            "repro.graph:reachable  input-check  b\n",
            "listed twice",
        ),
    ],
)
def test_malformed_lines_are_rejected(reach, tmp_path, line, message):
    path = tmp_path / "allowlist.txt"
    path.write_text("# a comment\n\n" + line)
    with pytest.raises(reach.AllowlistError, match=message):
        reach.parse_allowlist(str(path))


def test_check_reports_unlisted_and_stale_names(reach):
    defined = {
        "repro.a:reached": ("a.py", 1, 2),
        "repro.a:listed": ("a.py", 4, 2),
        "repro.a:forgotten": ("a.py", 7, 2),
        "repro.a:now_reached": ("a.py", 10, 2),
    }
    reached = {("a.py", 1), ("a.py", 10)}
    allowlist = {
        "repro.a:listed": ("input-check", "n"),
        "repro.a:now_reached": ("input-check", "n"),
        "repro.a:deleted": ("input-check", "n"),
    }
    unreached, unlisted, stale = reach.check(defined, reached, allowlist)
    assert unreached == ["repro.a:forgotten", "repro.a:listed"]
    assert unlisted == ["repro.a:forgotten"]
    assert stale == ["repro.a:deleted", "repro.a:now_reached"]
