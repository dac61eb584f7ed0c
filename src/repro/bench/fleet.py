"""Fleet-scale wall-clock benchmark (``bench fleet``).

Runs the 10k-device metadata-post fleet twice — once on the parallel
executor (multi-process shard workers, batched commit delivery) and once
on the sequential engine — and reports the wall-clock speedup plus the
virtual-time **determinism anchor**: a digest over every site's commit log
(tx ids, submit/commit times, validation codes, block numbers).  The two
runs must produce byte-identical anchors; a mismatch fails the benchmark
because it means the parallel decomposition changed simulated behaviour.

The parallel run goes **first**: the measurement forks its workers from a
clean heap.  Running it after the sequential pass would fork children
into a heap holding millions of dead simulation objects, and their GC
passes would fault all of those pages copy-on-write — a measurement
artifact, not a property of either executor.

Results land in the ``fleet`` section of ``BENCH_PERF.json`` keyed by
``{devices}x{shards}`` profile, next to the ``perf`` measurements.  The
CI perf-smoke job re-runs a reduced profile and gates on the committed
anchor, which catches any change that silently moves virtual time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench.perf import PerfRegressionError
from repro.bench.reporting import ResultTable, format_seconds
from repro.consensus.batching import BatchConfig
from repro.simulation.parallel import (
    FleetRunResult,
    ShardRunStats,
    run_fleet_parallel,
    run_fleet_sequential,
)
from repro.workloads.fleet import FleetSpec

#: Mean metadata posts per device per second (one post every 200 s).
FLEET_RATE_PER_DEVICE_S = 0.005

#: Virtual seconds of fleet traffic per run.
FLEET_DURATION_S = 200.0

#: Fraction of devices cycling offline (churn) during the run.
FLEET_CHURN_FRACTION = 0.1

#: One partition window: the last replica of every site drops out of the
#: mesh mid-run and heals, exercising delivery retries deterministically.
FLEET_PARTITION_WINDOWS = ((60.0, 90.0),)


def fleet_spec(
    devices: int = 10_000,
    shards: int = 4,
    duration_s: float = FLEET_DURATION_S,
    seed: int = 42,
) -> FleetSpec:
    """The canonical bench fleet: churn + partition on, per-post blocks.

    ``max_message_count=1`` cuts one block per post — the latency-oriented
    configuration matching the paper's unbatched per-transaction transfer
    semantics, and the regime where commit-delivery cost dominates the
    sequential baseline.
    """
    return FleetSpec(
        devices=devices,
        shards=shards,
        rate_per_device_s=FLEET_RATE_PER_DEVICE_S,
        duration_s=duration_s,
        seed=seed,
        churn_fraction=FLEET_CHURN_FRACTION,
        partition_windows=FLEET_PARTITION_WINDOWS,
        batch_config=BatchConfig(max_message_count=1),
    )


def profile_name(spec: FleetSpec) -> str:
    """The ``fleet`` section key one configuration's results live under."""
    return f"{spec.devices}x{spec.shards}"


@dataclass
class FleetBenchReport:
    """Parallel-vs-sequential comparison of one fleet configuration."""

    spec: FleetSpec
    parallel: FleetRunResult
    sequential: FleetRunResult

    @property
    def profile(self) -> str:
        return profile_name(self.spec)

    @property
    def anchor(self) -> str:
        return self.sequential.anchor

    @property
    def speedup(self) -> float:
        if self.parallel.wall_s <= 0:
            return 0.0
        return self.sequential.wall_s / self.parallel.wall_s

    def verify_determinism(self) -> None:
        """Fail loudly when the executors disagree on virtual time."""
        if self.parallel.anchor != self.sequential.anchor:
            raise PerfRegressionError(
                "fleet determinism anchor mismatch: parallel "
                f"{self.parallel.anchor} != sequential {self.sequential.anchor} "
                f"(profile {self.profile})"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "devices": self.spec.devices,
            "shards": self.spec.shards,
            "workers": self.parallel.workers,
            "duration_s": self.spec.duration_s,
            "seed": self.spec.seed,
            "window_s": round(self.parallel.window_s, 6),
            "submitted": self.sequential.submitted,
            "committed": self.sequential.committed,
            "pending": self.sequential.pending,
            "sequential_wall_s": round(self.sequential.wall_s, 4),
            "parallel_wall_s": round(self.parallel.wall_s, 4),
            "speedup": round(self.speedup, 2),
            "anchor": self.anchor,
            "shard_stats": [_stats_dict(s) for s in self.parallel.shard_stats],
        }

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title=(
                f"bench fleet — {self.spec.devices} devices × "
                f"{self.spec.shards} shards metadata-post "
                f"({self.parallel.workers} workers)"
            ),
            columns=[
                "executor", "workers", "wall time", "committed",
                "wall tx/s", "anchor",
            ],
        )
        for result in (self.sequential, self.parallel):
            table.add_row(
                result.mode,
                result.workers,
                format_seconds(result.wall_s),
                result.committed,
                round(result.throughput_wall(), 1),
                result.anchor[:16],
            )
        table.add_note(
            f"parallel speedup: {self.speedup:.2f}x; virtual-time commit "
            "logs byte-identical (anchors match)"
        )
        return table


def _stats_dict(stats: ShardRunStats) -> Dict[str, object]:
    return {
        "worker": stats.worker,
        "sites": list(stats.sites),
        "windows": stats.windows,
        "events": stats.events,
        "busy_wall_s": round(stats.busy_wall_s, 4),
        "barrier_stall_s": round(stats.barrier_stall_s, 4),
        "utilization": round(stats.utilization, 4),
    }


def shard_stats_table(
    stats: List[Dict[str, object]], title: str
) -> ResultTable:
    """Per-worker utilization/stall table (satellite of every fleet run).

    Accepts the serialized form so the CLI can render both a fresh run and
    the committed ``BENCH_PERF.json`` section with one code path.
    """
    table = ResultTable(
        title=title,
        columns=[
            "worker", "sites", "windows", "events",
            "busy wall", "barrier stall", "utilization",
        ],
    )
    for entry in stats:
        table.add_row(
            entry["worker"],
            ",".join(str(s) for s in entry["sites"]),
            entry["windows"],
            entry["events"],
            format_seconds(float(entry["busy_wall_s"])),
            format_seconds(float(entry["barrier_stall_s"])),
            f"{float(entry['utilization']) * 100:.1f}%",
        )
    table.add_note(
        "barrier stall is wall time parked waiting for the coordinator; "
        "rising stall at unchanged busy time means the lookahead window "
        "regressed"
    )
    return table


def run_fleet(
    devices: int = 10_000,
    shards: int = 4,
    workers: int = 4,
    duration_s: float = FLEET_DURATION_S,
    seed: int = 42,
    window_s: Optional[float] = None,
) -> FleetBenchReport:
    """Measure parallel then sequential and verify the determinism anchor."""
    spec = fleet_spec(devices=devices, shards=shards, duration_s=duration_s, seed=seed)
    spec.validate()
    # Parallel first: fork from a clean heap (see module docstring).
    parallel = run_fleet_parallel(spec, workers=workers, window_s=window_s)
    sequential = run_fleet_sequential(spec)
    report = FleetBenchReport(spec=spec, parallel=parallel, sequential=sequential)
    report.verify_determinism()
    return report


# ------------------------------------------------------------- persistence
def write_fleet_entry(report: FleetBenchReport, path: Path) -> Dict[str, object]:
    """Merge this profile's results into ``path`` without touching the rest.

    ``BENCH_PERF.json`` is shared with ``bench perf``: the perf writer owns
    ``measurements``/``baseline_pre_pr`` and carries ``fleet`` forward;
    this writer only replaces its own ``fleet[profile]`` entry.
    """
    document: Dict[str, object] = {}
    if path.exists():
        try:
            document = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            document = {}
    fleet = document.setdefault("fleet", {})
    fleet[report.profile] = report.to_dict()
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def check_fleet_anchor(
    report: FleetBenchReport, baseline_data: Dict[str, object]
) -> List[str]:
    """Gate a fresh run against the committed determinism anchor.

    Returns failure strings when this profile's anchor differs from the
    baseline's.  A baseline without an anchor for this profile fails too:
    a gate that compares nothing must not pass.
    """
    fleet = baseline_data.get("fleet")
    entry = fleet.get(report.profile) if isinstance(fleet, dict) else None
    if not isinstance(entry, dict) or "anchor" not in entry:
        return [
            f"fleet {report.profile}: the baseline holds no anchor for this "
            "profile — the gate compared nothing"
        ]
    committed = str(entry["anchor"])
    if report.anchor != committed:
        return [
            f"fleet {report.profile}: determinism anchor {report.anchor} "
            f"does not match the committed baseline {committed} — virtual "
            "time moved"
        ]
    return []
