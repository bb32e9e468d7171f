"""Tests for the chaos harness and the degraded-answer contract."""

import json

import pytest

from repro.resilience.chaos import (
    ChaosHarness,
    run_chaos_scenario,
    run_chaos_script,
)


@pytest.fixture(scope="module")
def seed7_report():
    return run_chaos_scenario(seed=7)


class TestScenarioContract:
    def test_completes_with_degraded_answer(self, seed7_report):
        assert seed7_report.ok, seed7_report.format()
        names = [check.name for check in seed7_report.checks]
        assert "completed" in names
        assert "names-dead-source" in names
        assert "breaker-state" in names

    def test_report_names_the_dead_source(self, seed7_report):
        killed = seed7_report.degraded_answer.report_for("NCMIR")
        assert killed is not None
        assert killed.status == "skipped"
        assert killed.attempts >= 3  # 1 + max_retries on the dying call
        assert killed.breaker_state == "open"

    def test_transient_source_recovered(self, seed7_report):
        seeded = seed7_report.degraded_answer.report_for("SENSELAB")
        assert seeded is not None
        assert seeded.status in ("ok", "retried")

    def test_identical_seed_reproduces_byte_for_byte(self, seed7_report):
        rerun = run_chaos_scenario(seed=7)
        assert rerun.format() == seed7_report.format()
        assert json.dumps(rerun.as_dict(), sort_keys=True) == json.dumps(
            seed7_report.as_dict(), sort_keys=True
        )

    @pytest.mark.parametrize("seed", [7, 42])
    def test_chaos_reports_byte_identical_across_runs(self, seed):
        first = run_chaos_scenario(seed=seed)
        assert run_chaos_scenario(seed=seed).format() == first.format()

    def test_different_seed_changes_the_schedule(self, seed7_report):
        other = run_chaos_scenario(seed=8)
        assert other.ok, other.format()  # the contract holds per seed
        assert other.format() != seed7_report.format()

    def test_report_is_json_ready(self, seed7_report):
        json.dumps(seed7_report.as_dict())

    def test_format_mentions_the_contract_verdict(self, seed7_report):
        text = seed7_report.format()
        assert text.startswith("repro chaos — seed=7")
        assert text.endswith("contract: OK")


class TestScriptMode:
    def test_example_script_survives_chaos(self):
        report = run_chaos_script("examples/quickstart.py", seed=7)
        assert report.mode == "script"
        assert report.ok, report.format()

    def test_harness_unpatches_on_exit(self):
        from repro.core.mediator import Mediator

        original_init = Mediator.__init__
        original_register = Mediator.register
        harness = ChaosHarness(seed=7)
        with harness.activate():
            assert Mediator.__init__ is not original_init
        assert Mediator.__init__ is original_init
        assert Mediator.register is original_register

    def test_faults_are_absorbed_not_raised(self):
        # a correlate-heavy deployment: wrappers actually get queried
        report = run_chaos_script(
            "examples/neuroscience_mediation.py", seed=7
        )
        assert report.ok, report.format()
        absorbed = next(
            check
            for check in report.checks
            if check.name == "faults-absorbed"
        )
        assert absorbed.passed
        # the guaranteed first-call fault means something was injected
        assert sum(report.injected.values()) > 0


class TestChaosCli:
    def test_cli_scenario_exits_zero(self, capsys):
        from repro.__main__ import main

        assert main(["chaos", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "contract: OK" in out
        assert "[PASS] reproducible" in out

    def test_cli_json_mode(self, capsys):
        from repro.__main__ import main

        assert main(["chaos", "--seed", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["ok"] is True
        assert payload[0]["mode"] == "scenario"
