"""Repository benchmark: one command, three workloads, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload store-data --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: it repeats
set-up plus a timed window until ``--seconds`` of windows are measured and
reports medians.  ``--trace 1`` gives the per-layer table instead: it
alternates untraced and traced windows, splits the traced wall time over
the ``repro`` package boundaries (see ``layertrace.py``) and reports the
tracing overhead.  Both print a human-readable report, then one JSON line
``{"correct", "attempted", "failed", "metrics"}`` as the last line of
standard output.  Any failed output check exits with status 1.

``perfbench/README.md`` describes the workloads and what each per-layer
metric is expected to move.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: At least this many repetitions per run, so the medians have a middle.
MIN_REPS = 3
#: Stop repeating after this much wall time, whatever ``--seconds`` says.
RUN_LIMIT_S = 120.0

#: End-to-end metrics (``--trace 0``): name → unit.
END_TO_END = {
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "virtual_p50_ms": "ms",
    "virtual_p99_ms": "ms",
    "virtual_tps": "tx/s",
}

#: Boundary call counts reported under a name of their own.
CALL_ALIASES = {
    "fabric.Peer.endorse": "fabric.endorsements_per_op",
    "membership.MSP.validate_certificate": "membership.cert_validations_per_op",
}

#: Per-layer metrics that are not a boundary's calls or self time: name → unit.
RATIOS = {
    "network.messages_per_op": "msgs/op",
    "network.bytes_per_op": "B/op",
    "consensus.txs_per_block": "tx/block",
    "common.hashing.bytes_hashed_per_payload_byte": "ratio",
    "common.hashing.bytes_hashed_per_op": "B/op",
    "query.candidates_per_returned": "ratio",
    "provenance.records_ingested_per_lineage": "count",
    "simulation.events_per_op": "events/op",
    "simulation.parallel.barrier_stall_share": "ratio",
    "simulation.parallel.utilization_min": "ratio",
    "simulation.parallel.busy_imbalance": "ratio",
    "workloads.input_gen_s": "s",
    "trace.overhead_ratio": "ratio",
}


def with_units(metrics: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    """The result's ``metrics`` object: every metric of ``units``, in order."""
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def wall_shares(reps: Sequence[Any]) -> Dict[str, float]:
    """Median wall share of each operation kind (workloads that time them)."""
    kinds = [key for key in reps[0].extra if key.startswith("wall_share.")]
    return {f"workloads.{key}": statistics.median(rep.extra[key] for rep in reps) for key in kinds}


def quantile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated quantile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mib() -> float:
    """This process's peak resident memory plus the peak of its largest
    child (edge-fleet's forked workers), in MiB.

    Pages a worker shares with this process after the fork count in both
    peaks, and only the largest worker counts, so this is neither the true
    peak of the process tree nor its total: it is a figure that moves when
    this process or a worker grows.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def repeat(workload: Any, seed: int, tracer: Any = None, workers: int = 0,
           after: Any = None) -> Tuple[Any, float]:
    """One set-up plus timed window; returns the rep and the set-up time.

    The state is dropped before returning (``after`` may inspect it first),
    so one repetition's deployment never overlaps the next one's set-up.
    """
    gc.collect()
    begin = time.perf_counter()
    state = workload.setup(seed)
    setup_s = time.perf_counter() - begin
    if workers:
        state.workers = workers
    gc.collect()
    rep = workload.run(state, tracer)
    if after is not None:
        after(state)
    return rep, setup_s


def check_same_digest(reps: Sequence[Any], workload_name: str) -> str:
    from workloads import require

    digests = {rep.digest for rep in reps}
    require(
        len(digests) == 1,
        f"{workload_name}: repetitions of one seed gave different virtual results",
    )
    return reps[0].digest


def measure(workload: Any, seed: int, seconds: float) -> Tuple[Dict[str, Dict[str, Any]], List[Any], List[str]]:
    """End-to-end metrics with tracing off."""
    started = time.perf_counter()
    reps: List[Any] = []
    setups: List[float] = []
    measured = 0.0
    while (measured < seconds or len(reps) < MIN_REPS) and time.perf_counter() - started < RUN_LIMIT_S:
        rep, setup_s = repeat(workload, seed)
        reps.append(rep)
        setups.append(setup_s)
        measured += rep.window_s
    digest = check_same_digest(reps, workload.name)
    first = reps[0]
    latencies_ms = [1000.0 * value for value in first.virtual_latencies_s]
    metrics = {
        "ops_per_s": statistics.median(rep.ops / rep.window_s for rep in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib(),
        "virtual_p50_ms": quantile(latencies_ms, 0.50),
        "virtual_p99_ms": quantile(latencies_ms, 0.99),
        "virtual_tps": len(latencies_ms) / first.virtual_span_s if first.virtual_span_s > 0 else 0.0,
    }
    samples = {
        "ops_per_s": len(reps),
        "setup_s": len(setups),
        "peak_rss_mib": 1,
        "virtual_p50_ms": len(latencies_ms),
        "virtual_p99_ms": len(latencies_ms),
        "virtual_tps": len(latencies_ms),
    }
    lines = [f"{name:<16} {metrics[name]:>14.6g} {END_TO_END[name]:<6} n={samples[name]}" for name in END_TO_END]
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    lines.append(f"{'failed_ratio':<16} {failed / max(attempted, 1):>14.6g} {'ratio':<6} n={attempted}")
    read_us = [ns / 1000.0 for rep in reps for ns in rep.read_ns]
    if read_us:
        lines.append(f"{'read_p50_us':<16} {quantile(read_us, 0.50):>14.6g} {'us':<6} n={len(read_us)}")
        lines.append(f"{'read_p99_us':<16} {quantile(read_us, 0.99):>14.6g} {'us':<6} n={len(read_us)}")
    shares = wall_shares(reps)
    if shares:
        lines.append("wall share by operation kind: " + ", ".join(
            f"{name.rsplit('.', 1)[-1]} {share:.3f}" for name, share in shares.items()
        ))
    lines.append(f"virtual_digest   {digest}")
    return with_units(metrics, END_TO_END), reps, lines


def trace_layers(workload: Any, seed: int, seconds: float) -> Tuple[Dict[str, Dict[str, Any]], List[Any], List[str]]:
    """Per-layer metrics: traced windows against untraced ones."""
    import workloads
    from layertrace import Tracer

    tracer = Tracer()
    started = time.perf_counter()
    parallel: List[Any] = []
    workers = 0
    if workload.name == "edge-fleet":
        # Wrappers in forked workers cannot report back: the barrier figures
        # come from the parallel executor, the layer split from an inline
        # (workers=1) pass of the same spec, traced and untraced.
        parallel.append(repeat(workload, seed)[0])
        workers = 1
    candidates: List[float] = []

    def sample_queries(state: Any) -> None:
        if workload.name == "provenance-query":
            candidates.append(workloads.query_candidates_per_returned(state))

    plain: List[Any] = []
    traced: List[Any] = []
    measured = 0.0
    while (measured < seconds or not traced) and time.perf_counter() - started < RUN_LIMIT_S:
        plain.append(repeat(workload, seed, workers=workers)[0])
        traced.append(repeat(workload, seed, tracer, workers, sample_queries)[0])
        measured += plain[-1].window_s + traced[-1].window_s
    check_same_digest(parallel + plain + traced, workload.name)

    ops = sum(rep.ops for rep in traced)
    wall = sum(rep.window_s for rep in traced)
    metrics: Dict[str, float] = {}
    for name, value in tracer.layer_metrics(ops, wall).items():
        boundary = name.rsplit(".", 1)[0]
        metrics[CALL_ALIASES.get(boundary, name) if name.endswith(".calls_per_op") else name] = value
    calls = dict(zip(tracer.names, tracer.calls))
    counters = tracer.counters
    payload = sum(rep.extra.get("payload_bytes", 0.0) for rep in traced)
    lineages = calls["core.HyperProvClient.get_lineage"]
    appends = calls["ledger.BlockStore.append"]
    metrics.update({
        "network.messages_per_op": (
            calls["network.NetworkFabric.send"] + calls["network.NetworkFabric.estimate_transfer_time"]
        ) / max(ops, 1),
        "network.bytes_per_op": counters.get("bytes_sent", 0) / max(ops, 1),
        "consensus.txs_per_block": counters.get("block_txs", 0) / appends if appends else 0.0,
        "common.hashing.bytes_hashed_per_payload_byte": (
            counters.get("bytes_hashed", 0) / payload if payload else 0.0
        ),
        "common.hashing.bytes_hashed_per_op": counters.get("bytes_hashed", 0) / max(ops, 1),
        "query.candidates_per_returned": statistics.median(candidates) if candidates else 0.0,
        "provenance.records_ingested_per_lineage": (
            calls["provenance.ProvenanceGraph.ingest_record"] / lineages if lineages else 0.0
        ),
        "simulation.events_per_op": statistics.median(
            rep.extra["events"] / max(rep.ops, 1) for rep in plain
        ),
        "simulation.parallel.barrier_stall_share": _extra(parallel, "barrier_stall_share"),
        "simulation.parallel.utilization_min": _extra(parallel, "utilization_min"),
        "simulation.parallel.busy_imbalance": _extra(parallel, "busy_imbalance"),
        "workloads.input_gen_s": statistics.median(rep.extra["input_gen_s"] for rep in plain + traced),
        "trace.overhead_ratio": (
            statistics.median(rep.ops / rep.window_s for rep in plain)
            / statistics.median(rep.ops / rep.window_s for rep in traced)
            - 1.0
        ),
    })
    share_names = [f"workloads.wall_share.{kind}" for kind in workloads.PQ_KINDS_OF_OP]
    metrics.update(dict.fromkeys(share_names, 0.0))
    # Shares of the untraced windows: tracing overhead would skew them.
    metrics.update(wall_shares(plain))
    for name in tracer.missing:
        print(f"note: boundary {name} is not in this tree; reported as 0", file=sys.stderr)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{workload.name}-seed{seed}-spans.csv.gz"
    written = tracer.write_spans(spans_path)
    # Every per-layer metric name with its unit, in report order.
    units: Dict[str, str] = {}
    for name in tracer.names:
        units[CALL_ALIASES.get(name, f"{name}.calls_per_op")] = "calls/op"
        units[f"{name}.self_share"] = "ratio"
    units.update(RATIOS)
    units.update(dict.fromkeys(share_names, "ratio"))
    lines = [
        f"{name:<58} {metrics[name]:>12.6g} {units[name]}"
        for name in units
        if metrics[name]
    ]
    lines.append(f"(metrics reading 0 omitted) traced windows {len(traced)}, untraced {len(plain)}, ops traced {ops}")
    lines.append(f"spans {written} written to {spans_path.relative_to(ROOT)}")
    return with_units(metrics, units), parallel + plain + traced, lines


def _extra(reps: Sequence[Any], key: str) -> float:
    return statistics.median(rep.extra[key] for rep in reps) if reps else 0.0


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("store-data", "provenance-query", "edge-fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv or None)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {source}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  {mode}")
    try:
        if args.trace:
            metrics, reps, lines = trace_layers(workload, args.seed, args.seconds)
        else:
            metrics, reps, lines = measure(workload, args.seed, args.seconds)
    except workloads.CheckFailure as failure:
        print(f"CHECK FAILED: {failure}")
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(json.dumps(result))
        return 1
    for line in lines:
        print(line)
    result = {
        "correct": True,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
