"""Chaos bench: scenario smoke, persistence merge and the anchor gate."""

import json
from pathlib import Path

import pytest

from repro.bench.chaos import (
    SCENARIOS,
    ChaosBenchReport,
    ChaosInvariantError,
    ChaosScenarioResult,
    check_chaos_anchors,
    run_chaos,
    write_chaos_entry,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def report():
    # One shared smoke run; scenarios assert their invariants internally.
    return run_chaos(smoke=True)


class TestScenarios:
    def test_all_registered_scenarios_run_and_anchor(self, report):
        assert [r.name for r in report.scenarios] == list(SCENARIOS)
        assert len(report.scenarios) == 5
        for result in report.scenarios:
            assert len(result.anchor) == 64
            assert result.invariants

    def test_link_degrade_counts_drops_and_duplicates(self, report):
        invariants = report.scenario("link_degrade").invariants
        assert invariants["dropped"] >= 2
        assert invariants["duplicated"] >= 2
        assert invariants["degraded_window_s"] == pytest.approx(2.0)

    def test_scenarios_are_deterministic_across_calls(self, report):
        again = run_chaos(smoke=True)
        assert [r.anchor for r in again.scenarios] == [
            r.anchor for r in report.scenarios
        ]

    def test_seed_changes_the_anchors(self, report):
        shifted = SCENARIOS["orderer_stall"](report.seed + 1)
        assert shifted.anchor != report.scenario("orderer_stall").anchor


class TestPersistence:
    def test_write_merges_without_touching_other_sections(self, report, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"fleet": {"keep": 1}}))
        document = write_chaos_entry(report, path)
        assert document["fleet"] == {"keep": 1}
        on_disk = json.loads(path.read_text())
        assert set(on_disk["chaos"]["scenarios"]) == set(SCENARIOS)
        assert on_disk["chaos"]["seed"] == report.seed

    def test_write_tolerates_missing_and_corrupt_files(self, report, tmp_path):
        fresh = tmp_path / "fresh.json"
        write_chaos_entry(report, fresh)
        assert "chaos" in json.loads(fresh.read_text())
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        write_chaos_entry(report, corrupt)
        assert "chaos" in json.loads(corrupt.read_text())


class TestAnchorGate:
    def baseline_for(self, report):
        return {"chaos": {"scenarios": {r.name: r.to_dict() for r in report.scenarios}}}

    def test_matching_anchors_pass(self, report):
        assert check_chaos_anchors(report, self.baseline_for(report)) == []

    def test_changed_anchor_fails_that_scenario(self, report):
        baseline = self.baseline_for(report)
        baseline["chaos"]["scenarios"]["partition_heal"]["anchor"] = "0" * 64
        failures = check_chaos_anchors(report, baseline)
        assert len(failures) == 1
        assert "partition_heal" in failures[0]

    def test_absent_scenario_is_skipped(self, report):
        baseline = self.baseline_for(report)
        del baseline["chaos"]["scenarios"]["partition_heal"]
        assert check_chaos_anchors(report, baseline) == []

    def test_absent_section_fails_the_gate(self, report):
        for baseline in ({}, {"chaos": {"scenarios": {}}}):
            failures = check_chaos_anchors(report, baseline)
            assert len(failures) == 1
            assert "compared nothing" in failures[0]

    def test_committed_baseline_without_chaos_fails_the_gate(self, report):
        committed = json.loads((REPO_ROOT / "BENCH_PERF.json").read_text())
        assert check_chaos_anchors(report, committed) == []
        del committed["chaos"]
        assert check_chaos_anchors(report, committed) != []

    def test_double_pass_mismatch_fails_the_full_profile(self, monkeypatch):
        calls = {"count": 0}

        def flaky(seed):
            calls["count"] += 1
            return ChaosScenarioResult(
                "flaky", f"{calls['count']:064d}", 0.0, {"writes": 0}
            )

        monkeypatch.setattr("repro.bench.chaos.SCENARIOS", {"flaky": flaky})
        with pytest.raises(ChaosInvariantError, match="non-deterministic"):
            run_chaos(smoke=False)

    def test_report_table_renders(self, report):
        rendered = ChaosBenchReport(
            seed=report.seed, repeats=report.repeats, scenarios=report.scenarios
        ).to_table().render()
        for name in SCENARIOS:
            assert name in rendered
