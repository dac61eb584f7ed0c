"""Tests for the benchmark harness: runner, reporting, CLI and figure shapes.

Figure-level shape assertions run with reduced request counts so the whole
suite stays fast; the full-size sweeps live in ``benchmarks/``.
"""

import pytest

from repro.bench.ablation_batch import run_batch_ablation
from repro.bench.ablation_concurrency import run_concurrency_ablation
from repro.bench.baseline_compare import run_baseline_comparison
from repro.bench.cli import build_parser, main
from repro.common.metrics import percentile
from repro.bench.fig1_throughput import run_fig1
from repro.bench.fig2_rpi import run_fig2
from repro.bench.fig3_energy import run_fig3
from repro.bench.ops_table import run_ops_table, to_table
from repro.bench.reporting import ResultTable, format_bytes, format_seconds, format_si
from repro.bench.runner import RunConfig, StoreDataRunner


# ------------------------------------------------------------------- reporting
def test_result_table_render_and_csv():
    table = ResultTable("Demo", ["a", "b"])
    table.add_row(1, 2.5)
    table.add_row("x", "y")
    table.add_note("a note")
    rendered = table.render()
    assert "Demo" in rendered and "a note" in rendered
    assert table.to_csv().splitlines()[0] == "a,b"
    assert table.to_dicts()[0] == {"a": 1, "b": 2.5}


def test_result_table_rejects_wrong_arity():
    table = ResultTable("t", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_formatting_helpers():
    assert format_si(1500) == "1.50 k"
    assert format_seconds(0.002).endswith("ms")
    assert format_seconds(2.0).endswith("s")
    assert format_seconds(float("nan")) == "n/a"
    assert format_bytes(2 * 1024 * 1024) == "2.0 MiB"


# ---------------------------------------------------------------------- runner
def test_runner_commits_every_request(desktop_deployment):
    runner = StoreDataRunner(desktop_deployment)
    result = runner.run(RunConfig(data_size_bytes=1024, request_count=12, concurrency=12))
    assert result.committed == 12
    assert result.failed == 0
    assert result.throughput_tps > 0
    assert len(result.response_times_s) == 12
    assert result.mean_response_s > 0
    assert result.p95_response_s >= result.mean_response_s * 0.5
    assert result.summary()["committed"] == 12.0


def test_runner_interval_estimate_grows_with_size(desktop_deployment):
    runner = StoreDataRunner(desktop_deployment)
    assert runner.estimate_item_interval(4 * 1024 * 1024) > runner.estimate_item_interval(1024)


def test_runner_percentiles_use_shared_helper(desktop_deployment):
    runner = StoreDataRunner(desktop_deployment)
    result = runner.run(RunConfig(data_size_bytes=1024, request_count=10, concurrency=10))
    assert result.p50_response_s == percentile(result.response_times_s, 50)
    assert result.p95_response_s == percentile(result.response_times_s, 95)
    assert result.p99_response_s == percentile(result.response_times_s, 99)
    summary = result.summary()
    assert summary["p50_response_s"] <= summary["p95_response_s"] <= summary["p99_response_s"]


def test_runner_clamps_concurrency_to_admission_cap(desktop_deployment):
    runner = StoreDataRunner(desktop_deployment)
    result = runner.run(
        RunConfig(
            data_size_bytes=512, request_count=12, concurrency=8,
            tenant="capped", max_in_flight=4,
        )
    )
    assert result.committed == 12
    assert result.failed == 0


def test_runner_supports_tenant_namespaces(desktop_deployment):
    runner = StoreDataRunner(desktop_deployment)
    result = runner.run(
        RunConfig(data_size_bytes=512, request_count=6, concurrency=6, tenant="bench-t")
    )
    assert result.committed == 6
    committed_keys = desktop_deployment.peers[0].history.keys()
    assert any(key.startswith("tenant/bench-t/") for key in committed_keys)


# --------------------------------------------------------------------- figures
def test_fig1_shape_throughput_falls_and_latency_rises():
    series = run_fig1(sizes=(1024, 1024 * 1024, 4 * 1024 * 1024), requests_per_size=15)
    throughputs = series.throughputs()
    responses = series.response_times()
    assert throughputs[0] > throughputs[-1]
    assert responses[-1] > responses[0]
    table = series.to_table("fig1")
    assert len(table.rows) == 3


def test_fig2_rpi_is_slower_than_desktop():
    sizes = (1024, 1024 * 1024)
    desktop = run_fig1(sizes=sizes, requests_per_size=12)
    rpi = run_fig2(sizes=sizes, requests_per_size=12)
    for d, r in zip(desktop.results, rpi.results):
        assert d.throughput_tps > r.throughput_tps
        assert r.mean_response_s > d.mean_response_s


def test_fig3_energy_matches_paper_shape():
    figure = run_fig3(
        load_levels={
            "idle (no HLF)": 0.0,
            "idle (HLF running)": 0.0,
            "peak load": 5.0,
        },
        interval_s=120.0,
    )
    idle_no_hlf = figure.report_for("idle (no HLF)")
    idle_hlf = figure.report_for("idle (HLF running)")
    peak = figure.report_for("peak load")
    # HLF idling barely adds power (paper: 2.71 W vs an idle RPi).
    assert idle_hlf.mean_watts - idle_no_hlf.mean_watts < 0.2
    assert idle_hlf.mean_watts == pytest.approx(2.71, abs=0.1)
    # Peak load stays a modest fraction above idle (paper: ~10.7 %, max 3.64 W).
    assert peak.mean_watts > idle_hlf.mean_watts
    assert peak.mean_watts < idle_hlf.mean_watts * 1.35
    assert peak.max_watts < 3.64 + 0.3
    table = figure.to_table()
    assert len(table.rows) == 3


def test_ops_table_covers_both_setups():
    results = run_ops_table(repeats=2)
    assert [r.setup for r in results] == ["desktop", "rpi"]
    desktop, rpi = results
    for operator in ("post", "get", "store_data", "get_data"):
        assert desktop.latencies_s[operator] > 0
        assert rpi.latencies_s[operator] > desktop.latencies_s[operator]
    rendered = to_table(results).render()
    assert "store_data" in rendered


def test_baseline_comparison_shape():
    report = run_baseline_comparison(requests=8, pow_difficulty_bits=22)
    hyperprov = report.entry("hyperprov")
    pow_chain = report.entry("provchain-pow")
    central = report.entry("central-db")
    # Permissioned blockchain beats PoW on throughput and power.
    assert hyperprov.throughput_tps > pow_chain.throughput_tps
    assert hyperprov.mean_power_w < pow_chain.mean_power_w
    # The centralized DB is fastest but not tamper evident.
    assert central.throughput_tps > hyperprov.throughput_tps
    assert not central.tamper_evident
    assert hyperprov.tamper_evident and pow_chain.tamper_evident
    assert len(report.to_table().rows) == 3


def test_batch_ablation_larger_batches_do_not_hurt_throughput():
    ablation = run_batch_ablation(batch_sizes=(1, 20), requests=20)
    assert len(ablation.results) == 2
    small, large = ablation.results
    assert large.throughput_tps >= small.throughput_tps * 0.8
    assert len(ablation.to_table().rows) == 2


def test_concurrency_ablation_deeper_pipelines_raise_throughput():
    ablation = run_concurrency_ablation(depths=(1, 16), requests=18)
    shallow, deep = ablation.results
    assert deep.throughput_tps > shallow.throughput_tps
    assert ablation.speedup > 1.0
    assert len(ablation.to_table().rows) == 2


# ------------------------------------------------------------------------- cli
def test_cli_parser_accepts_known_experiments():
    parser = build_parser()
    args = parser.parse_args(["fig1", "--requests", "5"])
    assert args.experiments == ["fig1"]
    assert args.requests == 5
    assert args.concurrency is None


def test_cli_exposes_concurrency_and_requests():
    parser = build_parser()
    args = parser.parse_args(["ablation-concurrency", "--requests", "8", "--concurrency", "4"])
    assert args.experiments == ["ablation-concurrency"]
    assert args.requests == 8
    assert args.concurrency == 4
    with pytest.raises(SystemExit):
        parser.parse_args(["fig1", "--concurrency", "0"])


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figx"])


def test_cli_main_runs_ops_experiment(capsys):
    exit_code = main(["ops", "--requests", "20"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "operator" in captured.out


# ----------------------------------------------------------- sharding ablation
def test_sharding_ablation_scales_write_throughput():
    from repro.bench.ablation_sharding import run_sharding_ablation

    ablation = run_sharding_ablation(shard_counts=(1, 2), requests=60)
    assert [r.committed for r in ablation.results] == [60, 60]
    assert ablation.speedup > 1.2  # two ordering machines beat one
    rendered = ablation.to_table().render()
    assert "shards" in rendered


def test_cli_exposes_shards_and_scheduler_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["ablation-sharding", "--shards", "2", "--scheduler", "fair-share"]
    )
    assert args.shards == 2
    assert args.scheduler == "fair-share"
    with pytest.raises(SystemExit):
        parser.parse_args(["ablation-sharding", "--scheduler", "lifo"])


def test_cli_main_runs_sharding_experiment(capsys):
    exit_code = main(["ablation-sharding", "--shards", "2", "--requests", "4"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "tenant isolation" in captured.out
    assert "throughput scaling" in captured.out


# ------------------------------------------------------------------ bench perf
def test_perf_harness_measures_all_workloads(tmp_path):
    from repro.bench.perf import run_perf, write_report

    report = run_perf(commit_requests=8, keys=120, queries=4)
    workloads = {m.workload for m in report.measurements}
    assert workloads == {"commit-heavy", "range-query", "rich-query", "read-mix"}
    for measurement in report.measurements:
        assert measurement.wall_s > 0
        assert measurement.wall_ops_per_s > 0
        assert measurement.operations > 0
    # Commit-heavy actually commits every request at the full scale.
    full = report.find("commit-heavy", 8)
    assert full is not None and full.operations == 8

    output = tmp_path / "BENCH_PERF.json"
    document = write_report(report, output)
    assert output.exists()
    assert len(document["measurements"]) == len(report.measurements)


def test_perf_report_carries_baseline_forward(tmp_path):
    import json

    from repro.bench.perf import (
        PerfMeasurement, PerfReport, write_report,
    )

    output = tmp_path / "BENCH_PERF.json"
    baseline = {
        "measurements": [
            {"workload": "commit-heavy", "scale": 8, "operations": 8,
             "wall_s": 1.0, "wall_ops_per_s": 8.0, "virtual_mean_s": 0.1},
        ]
    }
    output.write_text(json.dumps({"baseline_pre_pr": baseline}))
    report = PerfReport([
        PerfMeasurement(
            workload="commit-heavy", scale=8, operations=8,
            wall_s=0.25, wall_ops_per_s=32.0, virtual_mean_s=0.1,
        )
    ])
    document = write_report(report, output)
    assert document["baseline_pre_pr"] == baseline
    assert document["speedup_vs_pre_pr"] == {"commit-heavy@8": 4.0}
    # The file on disk round-trips the same content.
    assert json.loads(output.read_text())["speedup_vs_pre_pr"] == {
        "commit-heavy@8": 4.0
    }


def test_perf_report_keeps_every_section(tmp_path):
    import json

    from repro.bench.perf import PerfMeasurement, PerfReport, write_report

    output = tmp_path / "BENCH_PERF.json"
    row = {"workload": "commit-heavy", "scale": 8, "operations": 8,
           "wall_s": 1.0, "wall_ops_per_s": 8.0, "virtual_mean_s": 0.1}
    sections = {
        "baseline_pre_pr": {"measurements": [row]},
        "measurements": [dict(row, wall_ops_per_s=1.0)],
        "fleet": {"500x2": {"anchor": "a" * 64}},
        "query": {"measurements": [], "speedup_indexed_vs_scan": {}},
        "chaos": {"seed": 1, "repeats": 1, "scenarios": {"x": {"anchor": "b" * 64}}},
    }
    output.write_text(json.dumps(sections))
    report = PerfReport([PerfMeasurement("commit-heavy", 8, 8, 0.5, 16.0, 0.1)])
    document = write_report(report, output)
    on_disk = json.loads(output.read_text())
    assert on_disk == document
    for name in ("baseline_pre_pr", "fleet", "query", "chaos"):
        assert on_disk[name] == sections[name]
    assert on_disk["measurements"] == report.to_dict()["measurements"]
    assert on_disk["speedup_vs_pre_pr"] == {"commit-heavy@8": 2.0}


def test_every_writer_keeps_the_other_sections(tmp_path):
    """Each experiment's writer replaces only its own section of the shared file."""
    import json
    from types import SimpleNamespace

    from repro.bench.chaos import write_chaos_entry
    from repro.bench.fleet import write_fleet_entry
    from repro.bench.perf import PerfMeasurement, PerfReport, write_report
    from repro.bench.query_bench import write_query_entry

    def stub(payload, **extra):
        return SimpleNamespace(to_dict=lambda: payload, **extra)

    output = tmp_path / "BENCH_PERF.json"
    perf = PerfReport([PerfMeasurement("commit-heavy", 8, 8, 0.5, 16.0, 0.1)])
    write_report(perf, output)
    write_fleet_entry(stub({"anchor": "a" * 64}, profile="20x2"), output)
    write_query_entry(stub({"speedup_indexed_vs_scan": {"10": 12.0}}), output)
    write_chaos_entry(stub({"scenarios": {"x": {"anchor": "b" * 64}}}), output)
    write_fleet_entry(stub({"anchor": "c" * 64}, profile="500x2"), output)
    document = write_report(perf, output)

    assert json.loads(output.read_text()) == document
    assert document == {
        "measurements": perf.to_dict()["measurements"],
        "fleet": {"20x2": {"anchor": "a" * 64}, "500x2": {"anchor": "c" * 64}},
        "query": {"speedup_indexed_vs_scan": {"10": 12.0}},
        "chaos": {"scenarios": {"x": {"anchor": "b" * 64}}},
    }


def test_perf_regression_gate():
    from repro.bench.perf import PerfMeasurement, PerfReport, check_regression_data

    baseline = {
        "measurements": [
            {"workload": "commit-heavy", "scale": 8, "operations": 8,
             "wall_s": 1.0, "wall_ops_per_s": 900.0, "virtual_mean_s": 0.1},
            {"workload": "rich-query", "scale": 120, "operations": 4,
             "wall_s": 1.0, "wall_ops_per_s": 90.0, "virtual_mean_s": 0.1},
        ]
    }

    def report_with(tput, scale=8):
        return PerfReport([
            PerfMeasurement(
                workload="commit-heavy", scale=scale, operations=scale,
                wall_s=1.0, wall_ops_per_s=tput, virtual_mean_s=0.1,
            )
        ])

    # Within tolerance (3x): no failures; unmatched baseline rows skipped.
    assert check_regression_data(report_with(400.0), baseline) == []
    failures = check_regression_data(report_with(200.0), baseline)
    assert len(failures) == 1 and "commit-heavy@8" in failures[0]
    # A custom tolerance moves the floor.
    assert check_regression_data(report_with(200.0), baseline, tolerance=5.0) == []


def test_perf_regression_gate_fails_when_it_compares_nothing():
    from repro.bench.perf import PerfMeasurement, PerfReport, check_regression_data

    report = PerfReport([
        PerfMeasurement(
            workload="commit-heavy", scale=8, operations=8,
            wall_s=1.0, wall_ops_per_s=1e9, virtual_mean_s=0.1,
        )
    ])
    other_scale = {
        "measurements": [
            {"workload": "commit-heavy", "scale": 240, "operations": 240,
             "wall_s": 1.0, "wall_ops_per_s": 1.0, "virtual_mean_s": 0.1},
        ]
    }
    for baseline in ({}, {"measurements": []}, other_scale):
        failures = check_regression_data(report, baseline)
        assert len(failures) == 1 and "compared nothing" in failures[0]


def test_cli_perf_runs_and_honours_baseline_gate(tmp_path, capsys):
    import json

    output = tmp_path / "perf.json"
    exit_code = main([
        "perf", "--perf-requests", "6", "--perf-keys", "60",
        "--perf-queries", "3", "--perf-output", str(output),
    ])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "wall ops/s" in captured.out
    assert output.exists()

    # A baseline demanding impossible throughput fails the gate (exit 1).
    impossible = {
        "measurements": [
            {"workload": "commit-heavy", "scale": 6, "operations": 6,
             "wall_s": 1.0, "wall_ops_per_s": 1e12, "virtual_mean_s": 0.1},
        ]
    }
    baseline_path = tmp_path / "impossible.json"
    baseline_path.write_text(json.dumps(impossible))
    exit_code = main([
        "perf", "--perf-requests", "6", "--perf-keys", "60",
        "--perf-queries", "3", "--perf-output", str(output),
        "--perf-baseline", str(baseline_path),
    ])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "regression" in captured.out


def test_cli_perf_gate_not_vacuous_when_output_is_baseline(tmp_path, capsys):
    """Regression: with --perf-output == --perf-baseline the gate must
    compare against the baseline as committed, not the file it just wrote."""
    import json

    shared = tmp_path / "BENCH_PERF.json"
    shared.write_text(json.dumps({
        "measurements": [
            {"workload": "commit-heavy", "scale": 6, "operations": 6,
             "wall_s": 1.0, "wall_ops_per_s": 1e12, "virtual_mean_s": 0.1},
        ]
    }))
    exit_code = main([
        "perf", "--perf-requests", "6", "--perf-keys", "60",
        "--perf-queries", "3", "--perf-output", str(shared),
        "--perf-baseline", str(shared),
    ])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "regression" in captured.out


@pytest.mark.parametrize("experiment", ["perf", "fleet", "chaos"])
@pytest.mark.parametrize("content", ["[]", "{not json"])
def test_cli_gate_rejects_unusable_baseline_before_running(tmp_path, capsys, experiment, content):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(content)
    output = tmp_path / "out.json"
    exit_code = main([
        experiment, "--perf-output", str(output), "--perf-baseline", str(baseline),
    ])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert f"{experiment} baseline {baseline}" in captured.out
    assert not output.exists()
