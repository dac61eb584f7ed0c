"""The three benchmark workloads.

Each workload is a pair of functions: ``setup(seed)`` builds the
deployment and generates every input from the seed (timed as set-up), and
``run(state, tracer)`` drives the timed window through the public API and
checks each output as it arrives.  A run returns a :class:`Rep`; the
loop in ``run.py`` repeats ``setup`` + ``run`` until the measured time
is used up and reports medians.

Every input is fixed by the seed, so every repetition of one seed must
produce the same virtual-time results: ``Rep.digest`` is compared across
repetitions, and across runs it is the drift check for a change.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.api.service import HyperProvService
from repro.bench.fleet import fleet_spec
from repro.core.topology import build_desktop_deployment
from repro.simulation.parallel import run_fleet_parallel


class CheckFailure(AssertionError):
    """An output of the program did not match what its inputs imply."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


@dataclass
class Rep:
    """One set-up plus timed window of a workload."""

    ops: int = 0
    attempted: int = 0
    failed: int = 0
    window_s: float = 0.0
    #: Modelled submit-to-commit latency of every committed write.
    virtual_latencies_s: List[float] = field(default_factory=list)
    #: Virtual time from the first submission to the last commit.
    virtual_span_s: float = 0.0
    digest: str = ""
    #: Wall latency of each point read, in nanoseconds (provenance-query).
    read_ns: List[int] = field(default_factory=list)
    #: Workload-specific figures (per-layer inputs).
    extra: Dict[str, float] = field(default_factory=dict)


def _digest(lines: List[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _traced(tracer: Any) -> Any:
    return tracer if tracer is not None else nullcontext()


# ================================================================ store-data
#: The Fig. 1 payload sweep, 1 KiB to 1 MiB, cycled write by write.
STORE_SIZES = (1024, 16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024)
#: Writes per repetition; each repetition holds its payloads in memory once.
STORE_WRITES = 300
#: Closed-loop requests in flight (the paper's benchmarking client).
STORE_IN_FLIGHT = 16


@dataclass
class StoreDataState:
    deployment: Any
    session: Any
    #: ``(key, payload, checksum)`` per write, in submission order.
    items: List[Tuple[str, bytes, str]]
    input_gen_s: float


def store_data_setup(seed: int) -> StoreDataState:
    begin = time.perf_counter()
    rng = random.Random(seed)
    # One random pool, sliced at seeded offsets behind a unique header:
    # distinct payloads (the store deduplicates identical ones) for the
    # price of a copy, instead of one RNG draw per byte.
    pool = rng.randbytes(2 * max(STORE_SIZES))
    items: List[Tuple[str, bytes, str]] = []
    for index in range(STORE_WRITES):
        size = STORE_SIZES[index % len(STORE_SIZES)]
        key = f"data/{index:06d}"
        header = f"{seed}:{key}:".encode("utf-8")
        offset = rng.randrange(len(pool) - size)
        payload = header + pool[offset : offset + size - len(header)]
        items.append((key, payload, hashlib.sha256(payload).hexdigest()))
    input_gen_s = time.perf_counter() - begin
    deployment = build_desktop_deployment(seed=seed)
    session = HyperProvService(deployment).session()
    return StoreDataState(deployment, session, items, input_gen_s)


def store_data_run(state: StoreDataState, tracer: Any = None) -> Rep:
    engine = state.deployment.engine
    session = state.session
    items = state.items
    handles: List[Any] = []
    submitted_at: List[float] = []

    def submit_next() -> None:
        index = len(handles)
        if index >= len(items):
            return
        key, payload, _ = items[index]
        submitted_at.append(engine.now)
        handle = session.submit(key, payload, metadata={"size": len(payload)})
        handles.append(handle)
        handle.add_done_callback(
            lambda done: engine.schedule_at(
                max(engine.now, done.committed_at), submit_next, label="bench:next"
            )
        )

    # Prime the closed loop; slots start 1 ms apart so they do not all
    # land on the client CPU at the same virtual instant.
    start = engine.now
    for slot in range(min(STORE_IN_FLIGHT, len(items))):
        engine.schedule_at(start + slot * 0.001, submit_next, label="bench:prime")
    events = engine.processed_events
    with _traced(tracer):
        begin = time.perf_counter()
        session.drain()
        window_s = time.perf_counter() - begin
    events = engine.processed_events - events

    rep = Rep(attempted=len(items), window_s=window_s)
    require(len(handles) == len(items), f"only {len(handles)} of {len(items)} writes submitted")
    lines: List[str] = []
    for (key, payload, checksum), handle, at in zip(items, handles, submitted_at):
        require(handle.done, f"write {key} still pending after drain")
        if not handle.ok:
            rep.failed += 1
            lines.append(f"{key};{at!r};FAILED")
            continue
        rep.ops += 1
        rep.virtual_latencies_s.append(handle.committed_at - at)
        lines.append(f"{key};{at!r};{handle.committed_at!r};{handle.commit_block}")
        # Read-back: the last committed write of the key, exactly once.
        view = session.get(key)
        require(view.checksum == checksum, f"get({key}) returned a stale checksum")
        history = session.history(key)
        require(len(history) == 1, f"{key} committed {len(history)} times, not once")
        require(session.verify(key, payload).matches, f"verify({key}) did not match")
    committed = [h.committed_at for h in handles if h.ok]
    rep.virtual_span_s = (max(committed) - start) if committed else 0.0
    rep.digest = _digest(lines)
    rep.extra["payload_bytes"] = float(sum(len(p) for _, p, _ in items))
    rep.extra["events"] = float(events)
    rep.extra["input_gen_s"] = state.input_gen_s
    return rep


# ========================================================== provenance-query
PQ_PREFIXES = 40
#: Records loaded before the timed window (well above the read cache's 256).
PQ_RECORDS = 3000
#: Preload wave size: a record only depends on records of earlier waves,
#: which are committed before its wave is submitted.
PQ_WAVE = 250
#: Zipf exponent of key popularity (reads and updates alike).
PQ_ZIPF_S = 1.0
#: Operations of each kind in one window: 81.5% point reads, 8%
#: prefix/range queries, 0.5% unscoped scans, 10% updates and a few
#: lineage reports (each rebuilds the whole provenance graph).
PQ_MIX = (
    ("get", 1845),
    ("history", 1845),
    ("verify", 1845),
    ("dependencies", 1800),
    ("prefix_query", 540),
    ("range", 180),
    ("unscoped_query", 45),
    ("update", 897),
    ("lineage", 3),
)
#: Operations in one timed window.
PQ_OPS = sum(count for _, count in PQ_MIX)
#: Records of each metadata ``kind``: common, less common, and rare (the
#: unscoped query's answer).
PQ_KINDS = (("temp", 1800), ("humidity", 1170), ("calib", 30))
PQ_RANGE_WIDTH = 24
#: Every operation kind of the timed window, for the per-kind wall shares.
PQ_KINDS_OF_OP = tuple(name for name, _ in PQ_MIX)


def pq_key(index: int) -> str:
    return f"sensor/{index % PQ_PREFIXES:02d}/r{index:05d}"


def pq_checksum(seed: int, key: str, version: int) -> str:
    return hashlib.sha256(f"{seed}:{key}:{version}".encode("utf-8")).hexdigest()


@dataclass
class ProvenanceQueryState:
    deployment: Any
    session: Any
    client: Any
    seed: int
    keys: List[str]
    kinds: Dict[str, str]
    deps: Dict[str, List[str]]
    #: ``(kind, argument)`` per operation, in order: a key, a
    #: ``(prefix, kind)`` selector, or a ``(first, end, keys)`` range.
    ops: List[Tuple[str, Any]]
    #: Expected answers that updates do not change: selector → keys.
    prefix_expected: Dict[Tuple[int, str], frozenset]
    unscoped_expected: frozenset
    ancestors: Dict[str, frozenset]
    input_gen_s: float


def _spread(counts: Tuple[Tuple[str, int], ...]) -> List[str]:
    """Each name exactly ``count`` times, evenly interleaved."""
    slots = sorted(
        ((step + 0.5) / count, index, name)
        for index, (name, count) in enumerate(counts)
        for step in range(count)
    )
    return [name for _, _, name in slots]


def _zipf_counts(total: int, ranks: int) -> List[int]:
    """``total`` split over ``ranks`` in Zipf proportions, rounded to whole
    numbers by largest remainder."""
    weights = [1.0 / (rank + 1) ** PQ_ZIPF_S for rank in range(ranks)]
    scale = total / sum(weights)
    counts = [int(weight * scale) for weight in weights]
    by_remainder = sorted(range(ranks), key=lambda rank: counts[rank] - weights[rank] * scale)
    for rank in by_remainder[: total - sum(counts)]:
        counts[rank] += 1
    return counts


def _pq_inputs(seed: int) -> Dict[str, Any]:
    # Every count is exact and the seed only decides which key gets which
    # kind, rank and dependency, and the order of the window, so every seed
    # does the same amount of each kind of work.  Drawing each operation
    # by itself let a seed's full scans range from 36 to 51, and its
    # history reads on hot keys (whose cost grows with every update) by 40%.
    rng = random.Random(seed)
    keys = [pq_key(index) for index in range(PQ_RECORDS)]
    record_kinds = _spread(PQ_KINDS)
    rng.shuffle(record_kinds)
    kinds = dict(zip(keys, record_kinds))
    deps: Dict[str, List[str]] = {}
    for index, key in enumerate(keys):
        wave_start = index - index % PQ_WAVE
        deps[key] = (
            [keys[rng.randrange(wave_start)]]
            if wave_start and rng.random() < 0.5
            else []
        )
    ranked = list(keys)
    rng.shuffle(ranked)
    # Keys in rank order, each repeated its Zipf share of the window, paired
    # with the kinds spread evenly: each key's operations split by kind in
    # the mix's proportions.
    by_rank = [key for key, count in zip(ranked, _zipf_counts(PQ_OPS, len(ranked))) for _ in range(count)]
    pairs = list(zip(_spread(PQ_MIX), by_rank))
    rng.shuffle(pairs)
    sorted_keys = sorted(keys)
    ops: List[Tuple[str, Any]] = []
    for kind, key in pairs:
        if kind == "prefix_query":
            ops.append((kind, (rng.randrange(PQ_PREFIXES), rng.choice(("temp", "humidity")))))
        elif kind == "range":
            first = rng.randrange(len(sorted_keys) - PQ_RANGE_WIDTH)
            window = sorted_keys[first : first + PQ_RANGE_WIDTH]
            ops.append((kind, (window[0], sorted_keys[first + PQ_RANGE_WIDTH], window)))
        else:
            ops.append((kind, key))
    prefix_expected: Dict[Tuple[int, str], frozenset] = {}
    for prefix in range(PQ_PREFIXES):
        for kind in ("temp", "humidity"):
            prefix_expected[(prefix, kind)] = frozenset(
                key for key in keys
                if kinds[key] == kind and key.startswith(f"sensor/{prefix:02d}/")
            )
    ancestors: Dict[str, frozenset] = {}
    for key in keys:
        seen = set()
        frontier = list(deps[key])
        while frontier:
            parent = frontier.pop()
            if parent not in seen:
                seen.add(parent)
                frontier.extend(deps[parent])
        ancestors[key] = frozenset(seen)
    return {
        "keys": keys,
        "kinds": kinds,
        "deps": deps,
        "ops": ops,
        "prefix_expected": prefix_expected,
        "unscoped_expected": frozenset(k for k in keys if kinds[k] == "calib"),
        "ancestors": ancestors,
    }


def provenance_query_setup(seed: int) -> ProvenanceQueryState:
    begin = time.perf_counter()
    inputs = _pq_inputs(seed)
    input_gen_s = time.perf_counter() - begin
    deployment = build_desktop_deployment(seed=seed)
    session = HyperProvService(deployment).session()
    keys = inputs["keys"]
    for wave in range(0, len(keys), PQ_WAVE):
        handles = [
            session.submit(
                key,
                checksum=pq_checksum(seed, key, 1),
                location=f"ext://{key}/v1",
                dependencies=tuple(inputs["deps"][key]),
                metadata={"kind": inputs["kinds"][key], "rev": 1},
                size_bytes=4096,
            )
            for key in keys[wave : wave + PQ_WAVE]
        ]
        session.drain()
        for handle in handles:
            require(handle.done and handle.ok, f"preload of {handle.request.key} failed")
    return ProvenanceQueryState(
        deployment=deployment,
        session=session,
        client=deployment.client,
        seed=seed,
        input_gen_s=input_gen_s,
        **inputs,
    )


def _lineage_keys(report: Any) -> set:
    # Artifact ids read ``artifact:<key>@<checksum prefix>``; keep the key.
    return {
        artifact.split(":", 1)[-1].rsplit("@", 1)[0] for artifact in report.ancestors
    }


def provenance_query_run(state: ProvenanceQueryState, tracer: Any = None) -> Rep:
    session = state.session
    client = state.client
    engine = state.deployment.engine
    current = {key: pq_checksum(state.seed, key, 1) for key in state.keys}
    versions = {key: 1 for key in state.keys}
    rep = Rep(attempted=len(state.ops))
    lines: List[str] = []
    read_ns = rep.read_ns
    clock = time.perf_counter_ns
    start = engine.now
    events = engine.processed_events
    kind_ns = dict.fromkeys(PQ_KINDS_OF_OP, 0)

    with _traced(tracer):
        begin = time.perf_counter()
        for kind, arg in state.ops:
            op_start = clock()
            if kind == "get":
                t0 = clock()
                view = session.get(arg)
                read_ns.append(clock() - t0)
                require(view.checksum == current[arg], f"get({arg}) returned a stale checksum")
                lines.append(f"g;{arg};{view.latency_s!r}")
            elif kind == "history":
                t0 = clock()
                history = session.history(arg)
                read_ns.append(clock() - t0)
                require(
                    len(history) == versions[arg]
                    and history.entries[-1].view.checksum == current[arg],
                    f"history({arg}) disagrees with the committed writes",
                )
                lines.append(f"h;{arg};{history.latency_s!r}")
            elif kind == "verify":
                t0 = clock()
                result = session.verify(arg, current[arg])
                read_ns.append(clock() - t0)
                require(result.matches, f"verify({arg}) did not match its last write")
                lines.append(f"v;{arg};{result.latency_s!r}")
            elif kind == "dependencies":
                t0 = clock()
                result = client.get_dependencies(arg)
                read_ns.append(clock() - t0)
                require(
                    list(result.payload) == state.deps[arg],
                    f"get_dependencies({arg}) returned {result.payload!r}",
                )
                lines.append(f"d;{arg};{result.latency_s!r}")
            elif kind == "prefix_query":
                prefix, wanted = arg
                page = session.query({"_prefix": f"sensor/{prefix:02d}/", "metadata.kind": wanted})
                found = {view.key for view in page.records}
                require(
                    found == state.prefix_expected[(prefix, wanted)]
                    and all(view.checksum == current[view.key] for view in page.records),
                    f"prefix query sensor/{prefix:02d}/ kind={wanted} returned wrong records",
                )
                lines.append(f"p;{prefix};{wanted};{len(found)};{page.latency_s!r}")
            elif kind == "range":
                first, end, expected = arg
                result = client.get_by_range(first, end)
                require(
                    [row["key"] for row in result.payload] == expected
                    and all(row["record"].checksum == current[row["key"]] for row in result.payload),
                    f"get_by_range({first}, {end}) returned wrong records",
                )
                lines.append(f"r;{first};{result.latency_s!r}")
            elif kind == "unscoped_query":
                page = session.query({"metadata.kind": "calib"})
                require(
                    {view.key for view in page.records} == state.unscoped_expected,
                    "unscoped kind=calib query returned wrong records",
                )
                lines.append(f"u;{len(page)};{page.latency_s!r}")
            elif kind == "lineage":
                # The graph rebuild allocates enough to trigger full
                # collections at varying points; collecting first (timed)
                # makes each call's GC cost the same from run to run.
                gc.collect()
                report = client.get_lineage(arg)
                require(
                    _lineage_keys(report) == state.ancestors[arg],
                    f"get_lineage({arg}) ancestors disagree with the dependency DAG",
                )
                lines.append(f"l;{arg};{len(report.ancestors)};{len(report.descendants)}")
            else:  # update
                version = versions[arg] + 1
                checksum = pq_checksum(state.seed, arg, version)
                at = engine.now
                handle = session.submit(
                    arg,
                    checksum=checksum,
                    location=f"ext://{arg}/v{version}",
                    dependencies=tuple(state.deps[arg]),
                    metadata={"kind": state.kinds[arg], "rev": version},
                    size_bytes=4096,
                )
                session.drain()
                require(handle.done, f"update of {arg} still pending after drain")
                if handle.ok:
                    current[arg] = checksum
                    versions[arg] = version
                    rep.virtual_latencies_s.append(handle.committed_at - at)
                    lines.append(f"w;{arg};{at!r};{handle.committed_at!r};{handle.commit_block}")
                else:
                    rep.failed += 1
                    lines.append(f"w;{arg};{at!r};FAILED")
            kind_ns[kind] += clock() - op_start
        rep.window_s = time.perf_counter() - begin
    rep.ops = len(state.ops) - rep.failed
    rep.virtual_span_s = engine.now - start
    rep.digest = _digest(lines)
    rep.extra["input_gen_s"] = state.input_gen_s
    rep.extra["events"] = float(engine.processed_events - events)
    for kind, spent in kind_ns.items():
        rep.extra[f"wall_share.{kind}"] = spent / 1e9 / rep.window_s
    return rep


def query_candidates_per_returned(state: ProvenanceQueryState) -> float:
    """Planner candidates visited per returned record, over an untimed sample
    of the window's rich queries (``explain=True``)."""
    candidates = returned = 0
    selectors = [{"metadata.kind": "calib"}] + [
        {"_prefix": f"sensor/{prefix:02d}/", "metadata.kind": kind}
        for prefix in range(0, PQ_PREFIXES, 4)
        for kind in ("temp", "humidity")
    ]
    for selector in selectors:
        page = state.session.query(selector, explain=True)
        plan = page.plan or {}
        candidates += int(plan.get("estimated_candidates", 0))
        returned += len(page.records)
    return candidates / max(returned, 1)


# ================================================================ edge-fleet
FLEET_DEVICES = 8000
FLEET_SHARDS = 2
FLEET_WORKERS = 2


@dataclass
class EdgeFleetState:
    spec: Any
    expected_posts: int
    input_gen_s: float
    workers: int = FLEET_WORKERS


def edge_fleet_setup(seed: int) -> EdgeFleetState:
    begin = time.perf_counter()
    spec = fleet_spec(devices=FLEET_DEVICES, shards=FLEET_SHARDS, seed=seed)
    spec.validate()
    # The arrival schedules are the workload's input; the executor derives
    # the same plan from the spec inside each worker.
    expected = spec.arrival_plan().total_arrivals()
    return EdgeFleetState(spec, expected, time.perf_counter() - begin)


def edge_fleet_run(state: EdgeFleetState, tracer: Any = None) -> Rep:
    with _traced(tracer):
        begin = time.perf_counter()
        result = run_fleet_parallel(state.spec, workers=state.workers)
        window_s = time.perf_counter() - begin
    require(result.pending == 0, f"{result.pending} fleet posts still pending")
    require(
        result.submitted == state.expected_posts,
        f"fleet submitted {result.submitted} posts, the plan has {state.expected_posts}",
    )
    rep = Rep(attempted=result.submitted, window_s=window_s)
    first = None
    last = 0.0
    for site in sorted(result.lines_by_site):
        for line in result.lines_by_site[site]:
            _, _, _, submitted, status, committed, _ = line.split(";")
            submitted_at = float(submitted)
            first = submitted_at if first is None else min(first, submitted_at)
            if status != "VALID":
                rep.failed += 1
                continue
            committed_at = float(committed)
            last = max(last, committed_at)
            rep.virtual_latencies_s.append(committed_at - submitted_at)
    rep.ops = len(rep.virtual_latencies_s)
    require(rep.ops == result.committed, "commit log and commit counts disagree")
    require(rep.ops + rep.failed == result.submitted, "a fleet post is unaccounted for")
    rep.virtual_span_s = last - (first or 0.0)
    rep.digest = result.anchor
    stats = result.shard_stats
    busy = [s.busy_wall_s for s in stats]
    stall = sum(s.barrier_stall_s for s in stats)
    total = sum(busy) + stall
    rep.extra["barrier_stall_share"] = stall / total if total > 0 else 0.0
    rep.extra["utilization_min"] = min(s.utilization for s in stats) if stats else 0.0
    rep.extra["busy_imbalance"] = max(busy) / (sum(busy) / len(busy)) if busy and sum(busy) else 0.0
    rep.extra["events"] = float(sum(s.events for s in stats))
    rep.extra["input_gen_s"] = state.input_gen_s
    return rep


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Any]
    run: Callable[..., Rep]


WORKLOADS: Dict[str, Workload] = {
    "store-data": Workload("store-data", store_data_setup, store_data_run),
    "provenance-query": Workload("provenance-query", provenance_query_setup, provenance_query_run),
    "edge-fleet": Workload("edge-fleet", edge_fleet_setup, edge_fleet_run),
}
