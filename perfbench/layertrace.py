"""Outside-in layer tracer for the benchmark.

The tracer wraps the public boundary functions of each ``repro`` package
at run time, from this file: it replaces class attributes (and module
attributes, together with every ``from x import f`` alias of them) with
timing wrappers, and puts the originals back on ``uninstall``.  Nothing
under ``src/`` is edited.

Every wrapped call becomes a span ``(id, parent, name, start_ns, end_ns)``
kept in memory.  A span's self time is its duration minus the durations
of its direct child spans, so the self times of all spans never overlap
and their sum is at most the traced run's wall time.  Counters for the
ratio metrics (bytes hashed, bytes sent, transactions per block) are
taken in the same wrappers, where the work happens.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: ``(layer, module, qualified attribute)`` of every traced boundary.  The
#: metric name of a boundary is ``<layer>.<qualified attribute>``.
BOUNDARIES: Sequence[Tuple[str, str, str]] = (
    ("api", "repro.api.service", "ProvenanceSession.submit"),
    ("api", "repro.api.service", "ProvenanceSession.get"),
    ("api", "repro.api.service", "ProvenanceSession.history"),
    ("api", "repro.api.service", "ProvenanceSession.verify"),
    ("api", "repro.api.service", "ProvenanceSession.query"),
    ("api", "repro.api.service", "ProvenanceSession.drain"),
    ("core", "repro.core.client", "HyperProvClient.get_dependencies"),
    ("core", "repro.core.client", "HyperProvClient.get_by_range"),
    ("core", "repro.core.client", "HyperProvClient.get_lineage"),
    ("middleware", "repro.middleware.base", "TransactionPipeline.execute"),
    ("middleware", "repro.middleware.tracing", "RequestIdMiddleware.handle"),
    ("middleware", "repro.middleware.metrics", "MetricsMiddleware.handle"),
    ("middleware", "repro.middleware.cache", "ReadCacheMiddleware.handle"),
    ("middleware", "repro.middleware.batching", "EndorsementBatcher.handle"),
    ("middleware", "repro.middleware.stages", "BuildProposalStage.handle"),
    ("middleware", "repro.middleware.stages", "CollectEndorsementsStage.handle"),
    ("middleware", "repro.middleware.stages", "SubmitToOrdererStage.handle"),
    ("middleware", "repro.middleware.stages", "AwaitCommitStage.handle"),
    ("fabric", "repro.fabric.peer", "Peer.endorse"),
    ("fabric", "repro.fabric.peer", "Peer.deliver_block"),
    ("fabric", "repro.fabric.peer", "Peer.query"),
    ("consensus", "repro.consensus.batching", "BlockCutter.add"),
    ("consensus", "repro.consensus.batching", "BlockCutter.check_timeout"),
    ("chaincode", "repro.chaincode.hyperprov", "HyperProvChaincode.invoke"),
    ("ledger", "repro.ledger.world_state", "WorldState.get"),
    ("ledger", "repro.ledger.world_state", "WorldState.put"),
    ("ledger", "repro.ledger.world_state", "WorldState.range_query_versioned"),
    ("ledger", "repro.ledger.world_state", "WorldState.query_by_prefix_versioned"),
    ("ledger", "repro.ledger.history", "HistoryDatabase.record"),
    ("ledger", "repro.ledger.history", "HistoryDatabase.history_for_key"),
    ("ledger", "repro.ledger.blockchain", "BlockStore.append"),
    ("membership", "repro.membership.msp", "MSP.validate_certificate"),
    ("membership", "repro.membership.msp", "MSP.verify_signature"),
    ("storage", "repro.storage.sshfs", "SSHFSStorageBackend.store"),
    ("storage", "repro.storage.sshfs", "SSHFSStorageBackend.retrieve"),
    ("network", "repro.network.fabric", "NetworkFabric.send"),
    ("network", "repro.network.fabric", "NetworkFabric.estimate_transfer_time"),
    ("simulation", "repro.simulation.engine", "SimulationEngine.step"),
    ("workloads", "repro.workloads.fleet", "build_fleet"),
    ("workloads", "repro.workloads.fleet", "submit_fleet"),
    ("provenance", "repro.provenance.graph", "ProvenanceGraph.ingest_record"),
    ("query", "repro.query.planner", "build_plan"),
    ("common", "repro.common.hashing", "sha256_hex"),
    ("common", "repro.common.hashing", "sha256_bytes"),
)


def boundary_name(layer: str, attribute: str) -> str:
    return f"{layer}.{attribute}"


def _arg(args: Tuple[Any, ...], kwargs: Dict[str, Any], index: int, name: str) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _hashed_bytes(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> int:
    data = _arg(args, kwargs, 0, "data")
    return len(data) if data is not None else 0


def _sent_bytes(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> int:
    # NetworkFabric.send(self, source, destination, msg_type, payload, size_bytes)
    return int(_arg(args, kwargs, 5, "size_bytes") or 0)


def _estimated_bytes(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> int:
    # NetworkFabric.estimate_transfer_time(self, source, destination, size_bytes)
    return int(_arg(args, kwargs, 3, "size_bytes") or 0)


def _block_txs(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> int:
    # BlockStore.append(self, block)
    block = _arg(args, kwargs, 1, "block")
    return len(getattr(block, "transactions", ()))


#: Extra quantities counted at a boundary: boundary name → (counter, extractor).
COUNTERS: Dict[str, Tuple[str, Callable[[Tuple[Any, ...], Dict[str, Any]], int]]] = {
    "common.sha256_hex": ("bytes_hashed", _hashed_bytes),
    "common.sha256_bytes": ("bytes_hashed", _hashed_bytes),
    "network.NetworkFabric.send": ("bytes_sent", _sent_bytes),
    "network.NetworkFabric.estimate_transfer_time": ("bytes_sent", _estimated_bytes),
    "ledger.BlockStore.append": ("block_txs", _block_txs),
}


class Tracer:
    """Wraps the boundaries, records spans and per-boundary aggregates."""

    def __init__(self) -> None:
        self.names: List[str] = [boundary_name(layer, attr) for layer, _, attr in BOUNDARIES]
        self.calls: List[int] = [0] * len(self.names)
        self.self_ns: List[int] = [0] * len(self.names)
        self.counters: Dict[str, int] = {}
        #: ``(span_id, parent_id, name_index, start_ns, end_ns)``; parent -1 = root.
        self.spans: List[Tuple[int, int, int, int, int]] = []
        #: Boundaries this tree does not have (reported as zero, not an error).
        self.missing: List[str] = []
        self._stack: List[List[int]] = []
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _wrap(self, original: Callable[..., Any], index: int) -> Callable[..., Any]:
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_ns = self.self_ns
        counter = COUNTERS.get(self.names[index])
        counters = self.counters
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if counter is not None:
                key, extract = counter
                counters[key] = counters.get(key, 0) + extract(args, kwargs)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[index] += duration - frame[1]
                calls[index] += 1
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, parent, index, start, end))

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    # ----------------------------------------------------------- patching
    def install(self) -> None:
        """Wrap every boundary present in the imported ``repro`` tree."""
        self.missing = []
        for index, (_, module_name, attribute) in enumerate(BOUNDARIES):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(self.names[index])
                continue
            if "." in attribute:
                class_name, method = attribute.split(".", 1)
                owner = getattr(module, class_name, None)
                original = getattr(owner, "__dict__", {}).get(method)
                if original is None:
                    self.missing.append(self.names[index])
                    continue
                self._patch(owner, method, original, self._wrap(original, index))
                continue
            original = getattr(module, attribute, None)
            if original is None:
                self.missing.append(self.names[index])
                continue
            wrapper = self._wrap(original, index)
            # Module functions are also bound by ``from x import f`` in other
            # modules; rebind every alias so all call sites are traced.
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for alias, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, alias, original, wrapper)

    def _patch(self, owner: Any, attribute: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------ results
    def layer_metrics(self, ops: int, wall_s: float) -> Dict[str, float]:
        """``<boundary>.calls_per_op`` and ``<boundary>.self_share`` for all."""
        metrics: Dict[str, float] = {}
        wall_ns = max(wall_s * 1e9, 1.0)
        for index, name in enumerate(self.names):
            metrics[f"{name}.calls_per_op"] = self.calls[index] / max(ops, 1)
            metrics[f"{name}.self_share"] = self.self_ns[index] / wall_ns
        return metrics

    def write_spans(self, path: Any) -> int:
        """Write spans as gzip'd CSV ``id,parent,name,start_ns,end_ns``."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,name,start_ns,end_ns\n")
            names = self.names
            out.writelines(
                f"{sid},{parent},{names[index]},{start},{end}\n"
                for sid, parent, index, start, end in self.spans
            )
        return len(self.spans)
