"""Whole-deployment tests: analyze() dispatch, the self-check that the
shipped scenario lints clean, the seeded-defect acceptance test, strict
mode, and the CLI."""

import json

import pytest

import repro.flogic.engine as flogic_engine
from repro import __main__ as cli
from repro.analysis import Report, analyze, analyze_mediator, lint_path
from repro.core.mediator import Mediator
from repro.core.views import IntegratedView
from repro.datalog.parser import parse_program
from repro.domainmap import lub, part_tree
from repro.domainmap.model import DomainMap
from repro.errors import RegistrationError, ViewError
from repro.sources import AnchorSpec, Column, RelStore, Wrapper

from .conftest import build_broken_deployment


@pytest.fixture
def no_evaluation(monkeypatch):
    """Fail the test if anything evaluates during analysis."""

    def boom(self, *args, **kwargs):
        raise AssertionError("evaluate() was called during static analysis")

    monkeypatch.setattr(flogic_engine.FLogicEngine, "evaluate", boom)


class TestDispatch:
    def test_mediator(self, broken_mediator):
        report = analyze(broken_mediator)
        assert isinstance(report, Report)
        assert report.subject == "mediator broken_med"

    def test_domain_map(self):
        dm = DomainMap("d")
        dm.add_concept("a")
        dm.isa("a", "a")
        report = analyze(dm)
        assert "MBM021" in report.codes()

    def test_wrapper(self):
        store = RelStore("s")
        store.create_table("t", [Column("id", "str")], key="id")
        wrapper = Wrapper("W", store)
        wrapper.export_class("c", "t", "id", {"ident": "id"})
        report = analyze(wrapper)
        assert not report.has_errors

    def test_rule_text(self):
        report = analyze("p(X) :- q(Y).")
        assert "MBM001" in report.codes()

    def test_program_and_rule_list(self):
        program = parse_program("p(a).")
        assert analyze(program).codes() == []
        assert analyze(list(program)).codes() == []

    def test_scenario_holder(self, kind_mediator):
        class Holder:
            mediator = kind_mediator

        assert analyze(Holder()).subject == "mediator KIND"

    def test_unknown_target_raises(self):
        with pytest.raises(TypeError):
            analyze(42)


class TestSelfCheck:
    """The shipped deployments must lint clean."""

    def test_kind_scenario_zero_errors(self, kind_mediator, no_evaluation):
        report = analyze_mediator(kind_mediator)
        assert report.diagnostics == []

    @pytest.mark.parametrize(
        "example",
        [
            "examples/quickstart.py",
            "examples/domain_map_reasoning.py",
            "examples/lazy_and_integrity.py",
            "examples/cm_plugins.py",
            "examples/one_world_shopping.py",
            "examples/neuroscience_mediation.py",
        ],
    )
    def test_examples_lint_clean(self, example):
        report = lint_path(example)
        assert [str(d) for d in report.errors] == []


class TestAcceptance:
    """ISSUE acceptance: a deployment seeded with a known-unsafe rule,
    an isa-cycle domain map, and an unanswerable view reports all three
    with distinct codes and a non-zero exit status — without invoking
    evaluate()."""

    def test_three_distinct_codes_without_evaluation(self, no_evaluation):
        mediator = build_broken_deployment()
        report = analyze(mediator)
        codes = set(report.codes())
        assert "MBM001" in codes  # unsafe rule
        assert "MBM021" in codes  # isa cycle
        assert "MBM031" in codes  # unanswerable capability
        assert "MBM030" in codes  # dead view
        assert report.has_errors

    def test_cli_exit_status(self, tmp_path, capsys):
        script = tmp_path / "broken.py"
        script.write_text(
            "from tests.analysis.conftest import build_broken_deployment\n"
            "build_broken_deployment()\n"
        )
        assert cli.main(["lint", str(script)]) == 1
        out = capsys.readouterr().out
        assert "MBM001" in out and "MBM021" in out and "MBM031" in out


class TestStrictMode:
    def test_strict_rejects_unsafe_view_and_keeps_state(self):
        dm = DomainMap("d")
        dm.add_concept("alpha")
        mediator = Mediator(dm=dm, name="m", strict=True)
        with pytest.raises(ViewError) as excinfo:
            mediator.add_view(IntegratedView("bad", "X : ghost[v -> Y]."))
        assert any(d.code == "MBM001" for d in excinfo.value.diagnostics)
        assert mediator.view_names() == []

    def test_strict_accepts_clean_view(self):
        dm = DomainMap("d")
        dm.add_concept("alpha")
        mediator = Mediator(dm=dm, name="m", strict=True)
        mediator.add_view(IntegratedView("ok", "X : good :- X : alpha."))
        assert mediator.view_names() == ["ok"]

    def test_strict_rejects_dangling_anchor_and_keeps_state(self):
        dm = DomainMap("d")
        dm.add_concept("alpha")
        mediator = Mediator(dm=dm, name="m", strict=True)
        store = RelStore("s")
        store.create_table("t", [Column("id", "str")], key="id")
        wrapper = Wrapper("SRC", store)
        wrapper.export_class(
            "thing",
            "t",
            "id",
            {"ident": "id"},
            anchor=AnchorSpec(concept="missing_concept"),
        )
        with pytest.raises(RegistrationError) as excinfo:
            mediator.register(wrapper)
        assert any(d.code == "MBM024" for d in excinfo.value.diagnostics)
        assert mediator.source_names() == []
        assert sorted(mediator.dm.concepts) == ["alpha"]

    def test_strict_accepts_refinement_that_adds_the_concept(self):
        dm = DomainMap("d")
        dm.add_concept("alpha")
        mediator = Mediator(dm=dm, name="m", strict=True)
        store = RelStore("s")
        store.create_table("t", [Column("id", "str")], key="id")
        store.table("t").insert({"id": "x"})
        wrapper = Wrapper("SRC", store)
        wrapper.export_class(
            "thing",
            "t",
            "id",
            {"ident": "id"},
            anchor=AnchorSpec(concept="newcomer"),
        )
        mediator.register(wrapper, dm_refinement="newcomer < alpha")
        assert mediator.source_names() == ["SRC"]
        assert "newcomer" in mediator.dm.concepts

    def test_strict_registers_after_graphs_are_memoized(self):
        dm = DomainMap("d")
        dm.isa("beta", "alpha")
        dm.ex("alpha", "has", "gamma")
        mediator = Mediator(dm=dm, name="m", strict=True)
        # memoize read-only graphs at the current revision
        assert "gamma" in part_tree(mediator.dm, "alpha", "has")
        assert lub(mediator.dm, ["beta", "alpha"]) == "alpha"
        store = RelStore("s")
        store.create_table("t", [Column("id", "str")], key="id")
        wrapper = Wrapper("SRC", store)
        wrapper.export_class(
            "thing", "t", "id", {"ident": "id"}, anchor=AnchorSpec(concept="beta")
        )
        mediator.register(wrapper)
        assert mediator.source_names() == ["SRC"]

    def test_non_strict_accepts_everything(self):
        mediator = build_broken_deployment()
        assert mediator.strict is False
        assert mediator.view_names() == ["bad_view", "dead"]


class TestCLI:
    def test_lint_default_target_is_clean(self, capsys):
        assert cli.main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_json_output(self, capsys):
        assert cli.main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["subject"] == "mediator KIND"
        assert payload[0]["summary"]["errors"] == 0

    def test_lint_json_diagnostics_shape(self, tmp_path, capsys):
        script = tmp_path / "broken.py"
        script.write_text(
            "from tests.analysis.conftest import build_broken_deployment\n"
            "build_broken_deployment()\n"
        )
        assert cli.main(["lint", "--json", str(script)]) == 1
        payload = json.loads(capsys.readouterr().out)
        diag = payload[0]["diagnostics"][0]
        assert set(diag) == {"code", "severity", "message", "span"}

    def test_no_info_hides_info_diagnostics(self, tmp_path, capsys):
        script = tmp_path / "broken.py"
        script.write_text(
            "from tests.analysis.conftest import build_broken_deployment\n"
            "build_broken_deployment()\n"
        )
        cli.main(["lint", str(script)])
        with_info = capsys.readouterr().out
        cli.main(["lint", "--no-info", str(script)])
        without_info = capsys.readouterr().out
        assert "MBM022" in with_info
        assert "MBM022" not in without_info

    def test_explain_appends_catalog_titles(self, tmp_path, capsys):
        script = tmp_path / "broken.py"
        script.write_text(
            "from tests.analysis.conftest import build_broken_deployment\n"
            "build_broken_deployment()\n"
        )
        cli.main(["lint", "--explain", str(script)])
        out = capsys.readouterr().out
        assert "= isa cycle in the domain map" in out

    def test_script_without_deployment_warns(self, tmp_path, capsys):
        script = tmp_path / "empty.py"
        script.write_text("x = 1\n")
        assert cli.main(["lint", str(script)]) == 0
        assert "MBM000" in capsys.readouterr().out

    def test_missing_target_is_a_clean_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.py"
        assert cli.main(["lint", str(missing)]) == 1
        out = capsys.readouterr().out
        assert "MBM000" in out and "FileNotFoundError" in out

    def test_crashing_script_is_a_clean_error(self, tmp_path, capsys):
        script = tmp_path / "crash.py"
        script.write_text("raise RuntimeError('boom during setup')\n")
        assert cli.main(["lint", str(script)]) == 1
        out = capsys.readouterr().out
        assert "MBM000" in out and "boom during setup" in out

    def test_parser_has_demo_and_lint(self):
        parser = cli.build_parser()
        args = parser.parse_args(["lint", "--json", "a.py"])
        assert args.targets == ["a.py"] and args.json
        args = parser.parse_args(["demo"])
        assert args.func is cli.demo
