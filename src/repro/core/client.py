"""The HyperProv client library.

Wraps a :class:`~repro.fabric.network.FabricNetwork` and an off-chain
storage backend behind the operator set described in the paper:

================  ===========================================================
Operator          Behaviour
================  ===========================================================
``init``          Sanity-check that the chaincode is instantiated and the
                  client identity validates against the channel MSP.
``post``          Record provenance metadata for data that is already stored
                  somewhere (checksum + location + dependencies + metadata).
``get``           Latest on-chain provenance record for a key.
``get_key_history``  Every recorded version of a key (operation history).
``check_hash``    Verify a checksum (or raw data) against the chain.
``store_data``    Store the data off-chain *and* post its provenance record.
``get_data``      Resolve the on-chain pointer, fetch the data off-chain and
                  verify its checksum against the chain.
``get_dependencies``  The dependency list of a key's latest record.
``get_lineage``   Full OPM lineage report built from committed history.
================  ===========================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.chaincode.records import ProvenanceRecord
from repro.common.deprecation import warn_deprecated
from repro.common.errors import (
    ChaincodeError,
    ChecksumMismatchError,
    IncompleteTransactionError,
    NotFoundError,
    ValidationError,
)
from repro.common.hashing import checksum_of
from repro.common.metrics import MetricsRegistry
from repro.fabric.network import FabricNetwork
from repro.fabric.proposal import ProposalResponse, TransactionHandle
from repro.ledger.history import HistoryEntry
from repro.middleware.base import TransactionPipeline
from repro.middleware.cache import ReadCacheMiddleware, SharedReadCache
from repro.middleware.config import PipelineConfig, build_client_pipeline
from repro.middleware.context import Context, OperationKind
from repro.provenance.graph import ProvenanceGraph
from repro.provenance.queries import LineageQueryEngine, LineageReport
from repro.storage.base import StorageReceipt
from repro.storage.content import ContentAddressedStore
from repro.storage.sshfs import SSHFSStorageBackend


@dataclass
class QueryResult:
    """Outcome of a read-only operation."""

    payload: Any
    latency_s: float
    #: Resume token of a paginated read (``None`` = last page / unpaginated).
    bookmark: Optional[str] = None
    #: The planner's access-path report, when the query asked to explain.
    plan: Optional[Dict[str, Any]] = None
    #: Degraded-mode marker: the peer was unreachable and this result was
    #: served from the client's last-known-good archive (``stale_reads``).
    stale: bool = False


@dataclass
class PostResult:
    """Outcome of a provenance-recording operation."""

    handle: TransactionHandle
    record: ProvenanceRecord
    storage_receipt: Optional[StorageReceipt] = None

    @property
    def total_latency_s(self) -> float:
        """Storage + on-chain latency as observed by the caller.

        Contract: only defined once the transaction has committed (drain
        the deployment, or wait for ``handle.on_complete``).  Raises
        :class:`~repro.common.errors.IncompleteTransactionError` while the
        handle is still in flight instead of silently propagating ``nan``.
        """
        if not self.handle.is_complete:
            raise IncompleteTransactionError(
                f"transaction {self.handle.tx_id} has not committed yet; drain the "
                f"network (or use handle.on_complete) before reading total_latency_s"
            )
        storage = self.storage_receipt.duration_s if self.storage_receipt else 0.0
        return storage + self.handle.latency_s


@dataclass
class DataResult:
    """Outcome of ``get_data``: record, bytes and verification status."""

    record: ProvenanceRecord
    data: bytes
    verified: bool
    latency_s: float
    timings: Dict[str, float] = field(default_factory=dict)


class HyperProvClient:
    """High-level HyperProv API bound to one client identity.

    .. deprecated::
        The blocking operator methods (``post``, ``get``,
        ``get_key_history``, ``check_hash``, ``store_data``) are kept as
        thin shims over the unified :class:`repro.api.ProvenanceStore`
        protocol; new code should use :meth:`as_store` or a
        :class:`repro.api.HyperProvService` session (``docs/api.md`` has
        the migration table).
    """

    def __init__(
        self,
        network: FabricNetwork,
        client_name: str,
        storage: Optional[ContentAddressedStore] = None,
        chaincode_name: str = "hyperprov",
        metrics: Optional[MetricsRegistry] = None,
        pipeline_config: Optional[PipelineConfig] = None,
        shared_cache: Optional[SharedReadCache] = None,
    ) -> None:
        self.network = network
        self.client_name = client_name
        self.storage = storage
        self.chaincode_name = chaincode_name
        self.metrics = metrics or MetricsRegistry(f"client.{client_name}")
        self._context = network.client_context(client_name)
        #: Optional shared cache tier backing the read cache when the
        #: pipeline config asks for ``shared_cache`` (set by the service
        #: facade so tenant sessions share one store).
        self.shared_cache = shared_cache
        self.pipeline_config = pipeline_config or PipelineConfig()
        self.pipeline: TransactionPipeline = self._build_pipeline(self.pipeline_config)
        self._store_adapter = None

    def as_store(self):
        """This client as a unified :class:`repro.api.ProvenanceStore`."""
        if self._store_adapter is None:
            from repro.api.adapters import HyperProvStore

            self._store_adapter = HyperProvStore(self)
        return self._store_adapter

    # -------------------------------------------------------------- pipeline
    def _build_pipeline(self, config: PipelineConfig) -> TransactionPipeline:
        if config.shards > self.network.shard_count:
            raise ValidationError(
                f"pipeline wants {config.shards} shards but the network hosts "
                f"{self.network.shard_count} channel(s); build the deployment "
                f"with shards={config.shards}"
            )
        # The read cache invalidates off the commit streams; on a sharded
        # network that means one subscription per channel shard.
        cache_events = None
        if config.cache and self.network.shard_count > 1:
            cache_events = [
                self.network.shard_events(index)
                for index in range(self.network.shard_count)
            ]
        return build_client_pipeline(
            config,
            self._dispatch,
            clock=lambda: self.network.engine.now,
            events=self.network.events,
            metrics=self.metrics,
            cache_events=cache_events,
            shared_cache_store=self.shared_cache,
            engine=self.network.engine,
        )

    def configure_pipeline(self, config: PipelineConfig) -> None:
        """Swap the middleware chain (ablations: cache on/off, retry, batching).

        Also applies the config's fabric-side knobs — ``order_batch_size``
        to every endorsement batcher and ``scheduler`` to every shard's
        ordering service — so one declarative object describes the whole
        path.  Builds the replacement chain before touching the current
        one, so a rejected config (e.g. more shards than the network
        hosts) leaves the client fully functional on its old pipeline.
        """
        replacement = self._build_pipeline(config)
        self.pipeline.close()
        self.pipeline = replacement
        self.pipeline_config = config
        self.network.set_order_batch_size(config.order_batch_size)
        if config.scheduler is not None:
            self.network.set_scheduler(config.scheduler)
        # Index enablement is one-way here: an empty tuple means "this
        # config doesn't care", not "tear down another pipeline's indexes"
        # (several tenant pipelines share one deployment).
        if config.indexes:
            self.network.enable_secondary_indexes(config.indexes)

    @property
    def read_cache(self) -> Optional[ReadCacheMiddleware]:
        """The read-cache middleware, when the config enables it."""
        return self.pipeline.find(ReadCacheMiddleware)

    def _dispatch(self, ctx: Context):
        """Terminal pipeline handler: hand the operation to the network.

        The shard router (when configured) parks its routing decision in
        ``ctx.tags["shard"]``; unrouted pipelines run on shard 0, the
        historical single-channel path.
        """
        shard = ctx.tags.get("shard", 0)
        if ctx.is_read:
            return self.network.query(
                self.client_name,
                ctx.chaincode,
                ctx.function,
                ctx.args,
                at_time=ctx.at_time,
                shard=shard,
            )
        return self.network.submit_transaction(
            self.client_name,
            ctx.chaincode,
            ctx.function,
            ctx.args,
            at_time=ctx.at_time,
            payload_size_bytes=ctx.payload_size_bytes,
            shard=shard,
            deadline_at=ctx.tags.get("deadline_at"),
        )

    def _query(
        self,
        operation: str,
        function: str,
        args: List[str],
        at_time: Optional[float] = None,
    ) -> "tuple[ProposalResponse, float, Context]":
        """Run a read-only operator through the pipeline.

        Returns the response, the observed latency, and the drained
        context — callers surface degraded-mode markers (``ctx.stale``)
        on their results.
        """
        ctx = Context(
            operation=operation,
            kind=OperationKind.READ,
            chaincode=self.chaincode_name,
            function=function,
            args=list(args),
            client_name=self.client_name,
            at_time=at_time,
        )
        response, latency = self.pipeline.execute(ctx)
        return response, latency, ctx

    def _invoke(
        self,
        operation: str,
        function: str,
        args: List[str],
        payload_size_bytes: int = 0,
        at_time: Optional[float] = None,
    ) -> TransactionHandle:
        """Run a state-changing operator through the pipeline."""
        ctx = Context(
            operation=operation,
            kind=OperationKind.WRITE,
            chaincode=self.chaincode_name,
            function=function,
            args=list(args),
            client_name=self.client_name,
            payload_size_bytes=payload_size_bytes,
            at_time=at_time,
        )
        return self.pipeline.execute(ctx)

    # ------------------------------------------------------------------ init
    def init(self) -> bool:
        """Verify the channel is usable: chaincode instantiated, MSP accepts us."""
        definition = self.network.channel.chaincodes.find(self.chaincode_name)
        if definition is None:
            raise ChaincodeError(
                f"chaincode {self.chaincode_name!r} is not instantiated on "
                f"channel {self.network.channel.name!r}"
            )
        self.network.channel.msp.require_valid_certificate(self._context.identity.certificate)
        return True

    # ------------------------------------------------------------------ post
    def post(
        self,
        key: str,
        checksum: str,
        location: str,
        dependencies: Optional[List[str]] = None,
        metadata: Optional[Dict[str, Any]] = None,
        size_bytes: int = 0,
        at_time: Optional[float] = None,
    ) -> PostResult:
        """Record provenance metadata for a data item already stored elsewhere.

        .. deprecated:: shim over ``ProvenanceStore.submit`` (metadata-only).
        """
        warn_deprecated("HyperProvClient.post", "ProvenanceStore.submit")
        return self._post(
            "post",
            key=key,
            checksum=checksum,
            location=location,
            dependencies=dependencies,
            metadata=metadata,
            size_bytes=size_bytes,
            at_time=at_time,
        )

    def _post(
        self,
        operation: str,
        key: str,
        checksum: str,
        location: str,
        dependencies: Optional[List[str]] = None,
        metadata: Optional[Dict[str, Any]] = None,
        size_bytes: int = 0,
        at_time: Optional[float] = None,
    ) -> PostResult:
        """Shared ``set``-invoke body; ``operation`` labels metrics/traces."""
        dependencies = dependencies or []
        metadata = metadata or {}
        args = [
            key,
            checksum,
            location,
            json.dumps(dependencies),
            json.dumps(metadata, sort_keys=True),
            str(size_bytes),
        ]
        handle = self._invoke(operation, "set", args, at_time=at_time)
        record = ProvenanceRecord(
            key=key,
            checksum=checksum,
            location=location,
            creator=self._context.identity.name,
            organization=self._context.identity.organization,
            certificate_fingerprint=self._context.identity.certificate.fingerprint,
            dependencies=list(dependencies),
            metadata=dict(metadata),
            size_bytes=size_bytes,
        )
        self.metrics.counter("post").inc()
        return PostResult(handle=handle, record=record)

    # ------------------------------------------------------------------- get
    def get(self, key: str, at_time: Optional[float] = None) -> QueryResult:
        """Latest provenance record for ``key``.

        .. deprecated:: shim over ``ProvenanceStore.get``.
        """
        warn_deprecated("HyperProvClient.get", "ProvenanceStore.get")
        return self._get_impl(key, at_time=at_time)

    def _get_impl(self, key: str, at_time: Optional[float] = None) -> QueryResult:
        response, latency, ctx = self._query("get", "get", [key], at_time=at_time)
        if not response.is_ok or response.payload is None:
            raise NotFoundError(response.message or f"key {key!r} not found")
        self.metrics.histogram("get_latency_s").observe(latency)
        return QueryResult(
            payload=ProvenanceRecord.from_json(response.payload),
            latency_s=latency,
            stale=ctx.stale,
        )

    def get_key_history(self, key: str, at_time: Optional[float] = None) -> QueryResult:
        """Every recorded version of ``key`` (oldest first).

        .. deprecated:: shim over ``ProvenanceStore.history``.
        """
        warn_deprecated("HyperProvClient.get_key_history", "ProvenanceStore.history")
        return self._get_key_history_impl(key, at_time=at_time)

    def _get_key_history_impl(
        self, key: str, at_time: Optional[float] = None
    ) -> QueryResult:
        response, latency, ctx = self._query(
            "get_key_history", "getkeyhistory", [key], at_time=at_time
        )
        if not response.is_ok or response.payload is None:
            raise NotFoundError(response.message or f"no history for key {key!r}")
        entries = json.loads(response.payload)
        records = []
        for entry in entries:
            if entry.get("is_delete") or not entry.get("value"):
                records.append({"tx_id": entry["tx_id"], "deleted": True})
            else:
                records.append(
                    {
                        "tx_id": entry["tx_id"],
                        "block": entry["block"],
                        "record": ProvenanceRecord.from_json(entry["value"]),
                    }
                )
        self.metrics.histogram("history_latency_s").observe(latency)
        return QueryResult(payload=records, latency_s=latency, stale=ctx.stale)

    def check_hash(
        self,
        key: str,
        data_or_checksum: Any,
        at_time: Optional[float] = None,
    ) -> QueryResult:
        """Verify data (or a precomputed checksum) against the on-chain record.

        .. deprecated:: shim over ``ProvenanceStore.verify``.
        """
        warn_deprecated("HyperProvClient.check_hash", "ProvenanceStore.verify")
        return self._check_hash_impl(key, data_or_checksum, at_time=at_time)

    def _check_hash_impl(
        self,
        key: str,
        data_or_checksum: Any,
        at_time: Optional[float] = None,
    ) -> QueryResult:
        if isinstance(data_or_checksum, (bytes, bytearray)):
            checksum = checksum_of(data_or_checksum)
        else:
            checksum = str(data_or_checksum)
        response, latency, ctx = self._query(
            "check_hash", "checkhash", [key, checksum], at_time=at_time
        )
        if not response.is_ok or response.payload is None:
            raise NotFoundError(response.message or f"key {key!r} not found")
        matches = json.loads(response.payload)["matches"]
        return QueryResult(payload=bool(matches), latency_s=latency, stale=ctx.stale)

    def get_dependencies(self, key: str, at_time: Optional[float] = None) -> QueryResult:
        """Dependency list of the latest record for ``key``."""
        response, latency, ctx = self._query(
            "get_dependencies", "getdependencies", [key], at_time=at_time
        )
        if not response.is_ok or response.payload is None:
            raise NotFoundError(response.message or f"key {key!r} not found")
        return QueryResult(
            payload=json.loads(response.payload), latency_s=latency, stale=ctx.stale
        )

    def query_records(
        self,
        selector: Dict[str, Any],
        at_time: Optional[float] = None,
        limit: Optional[int] = None,
        bookmark: Optional[str] = None,
        explain: bool = False,
    ) -> QueryResult:
        """Rich query: records whose fields match ``selector``.

        Examples: ``{"creator": "camera-gw"}``, ``{"organization": "org2"}``,
        ``{"metadata.station": "tromso-01"}``, ``{"dependencies": "raw/a"}``.

        ``limit``/``bookmark`` page through the matches — pass the returned
        :attr:`QueryResult.bookmark` back to resume; ``None`` means the
        last page.  ``explain=True`` additionally surfaces the planner's
        access-path report in :attr:`QueryResult.plan`.
        """
        request = dict(selector)
        if limit is not None:
            request["_limit"] = limit
        if bookmark is not None:
            request["_bookmark"] = bookmark
        if explain:
            request["_explain"] = True
        response, latency, ctx = self._query(
            "query_records", "query", [json.dumps(request, sort_keys=True)],
            at_time=at_time,
        )
        if not response.is_ok or response.payload is None:
            raise ChaincodeError(response.message or "rich query failed")
        decoded = json.loads(response.payload)
        rows = decoded["records"] if isinstance(decoded, dict) else decoded
        records = [
            {"key": row["key"], "record": ProvenanceRecord.from_json(row["record"])}
            for row in rows
        ]
        self.metrics.histogram("query_latency_s").observe(latency)
        if isinstance(decoded, dict):
            return QueryResult(
                payload=records,
                latency_s=latency,
                bookmark=decoded.get("bookmark"),
                plan=decoded.get("plan"),
                stale=ctx.stale,
            )
        return QueryResult(payload=records, latency_s=latency, stale=ctx.stale)

    def on_provenance_recorded(self, callback) -> None:
        """Subscribe to the chaincode event emitted on every committed ``set``.

        ``callback`` receives a dict with ``key``, ``checksum``, ``creator``,
        ``tx_id`` and ``block_number`` once the recording transaction commits
        — the push-style integration the NodeJS client library offers through
        Fabric's event hub.
        """
        event_topic = "chaincode_event:provenance_recorded"

        def _handler(_topic: str, payload: Dict[str, Any]) -> None:
            details = json.loads(payload.get("payload") or "{}")
            details.update(
                {"tx_id": payload.get("tx_id"), "block_number": payload.get("block_number")}
            )
            callback(details)

        self.network.events.subscribe(event_topic, _handler)

    def get_by_range(
        self,
        start_key: str = "",
        end_key: str = "",
        at_time: Optional[float] = None,
        limit: Optional[int] = None,
        bookmark: Optional[str] = None,
    ) -> QueryResult:
        """Provenance records in a key range (optionally paginated)."""
        args = [start_key, end_key]
        if limit is not None or bookmark is not None:
            args.append(str(limit) if limit is not None else "0")
            args.append(bookmark or "")
        response, latency, ctx = self._query(
            "get_by_range", "getbyrange", args, at_time=at_time
        )
        if not response.is_ok or response.payload is None:
            raise ChaincodeError(response.message or "range query failed")
        decoded = json.loads(response.payload)
        rows = decoded["records"] if isinstance(decoded, dict) else decoded
        records = [
            {"key": row["key"], "record": ProvenanceRecord.from_json(row["record"])}
            for row in rows
            if not row["key"].startswith("__")
        ]
        if isinstance(decoded, dict):
            return QueryResult(
                payload=records,
                latency_s=latency,
                bookmark=decoded.get("bookmark"),
                stale=ctx.stale,
            )
        return QueryResult(payload=records, latency_s=latency, stale=ctx.stale)

    # ------------------------------------------------------------ store_data
    def _require_storage(self) -> ContentAddressedStore:
        if self.storage is None:
            raise ValidationError(
                "this client was constructed without an off-chain storage backend"
            )
        return self.storage

    def store_data(
        self,
        key: str,
        data: bytes,
        dependencies: Optional[List[str]] = None,
        metadata: Optional[Dict[str, Any]] = None,
        at_time: Optional[float] = None,
    ) -> PostResult:
        """Store ``data`` off-chain and record its provenance on chain.

        This is the operator exercised by Fig. 1 / Fig. 2: its cost includes
        the checksum computation, the transfer to the storage node and the
        on-chain transaction.

        .. deprecated:: shim over ``ProvenanceStore.submit`` (with payload).
        """
        warn_deprecated("HyperProvClient.store_data", "ProvenanceStore.submit")
        return self._store_data_impl(
            key, data, dependencies=dependencies, metadata=metadata, at_time=at_time
        )

    def _store_data_impl(
        self,
        key: str,
        data: bytes,
        dependencies: Optional[List[str]] = None,
        metadata: Optional[Dict[str, Any]] = None,
        at_time: Optional[float] = None,
    ) -> PostResult:
        storage = self._require_storage()
        start = self.network.engine.now if at_time is None else at_time
        receipt = self._store_payload(storage, data, start)
        post = self._post(
            "store_data",
            key=key,
            checksum=receipt.checksum,
            location=receipt.location,
            dependencies=dependencies,
            metadata=metadata,
            size_bytes=len(data),
            at_time=receipt.completed_at,
        )
        self.metrics.counter("store_data").inc()
        self.metrics.histogram("store_data_bytes").observe(len(data))
        return PostResult(handle=post.handle, record=post.record, storage_receipt=receipt)

    def _store_payload(
        self, storage: ContentAddressedStore, data: bytes, at_time: float
    ) -> StorageReceipt:
        backend = storage.backend
        if isinstance(backend, SSHFSStorageBackend):
            return storage.put(
                data,
                at_time=at_time,
                client_device=self._context.device,
                client_node=self._context.host_node,
            )
        return storage.put(data, at_time=at_time)

    def get_data(self, key: str, at_time: Optional[float] = None) -> DataResult:
        """Fetch the data behind ``key`` from off-chain storage and verify it."""
        storage = self._require_storage()
        start = self.network.engine.now if at_time is None else at_time
        query = self._get_impl(key, at_time=start)
        record: ProvenanceRecord = query.payload

        backend = storage.backend
        fetch_start = start + query.latency_s
        if isinstance(backend, SSHFSStorageBackend):
            receipt = storage.get(
                record.checksum,
                at_time=fetch_start,
                client_device=self._context.device,
                client_node=self._context.host_node,
                expected_checksum=record.checksum,
            )
        else:
            receipt = storage.get(record.checksum, at_time=fetch_start)
        obj = storage.get_object(record.checksum)
        if obj is None:
            raise NotFoundError(f"data for key {key!r} is missing from off-chain storage")
        actual = checksum_of(obj.data)
        verified = actual == record.checksum
        if not verified:
            raise ChecksumMismatchError(record.checksum, actual)
        latency = (receipt.completed_at - start)
        self.metrics.histogram("get_data_latency_s").observe(latency)
        return DataResult(
            record=record,
            data=obj.data,
            verified=verified,
            latency_s=latency,
            timings={"chain_s": query.latency_s, "storage_s": receipt.duration_s},
        )

    # -------------------------------------------------------------- lineage
    def build_provenance_graph(self, peer_name: Optional[str] = None) -> ProvenanceGraph:
        """Reconstruct the OPM graph from a peer's committed key history.

        On a sharded network the peer hosts one ledger per channel; the
        graph aggregates every shard's history, ordered by commit
        timestamp (block numbers are only comparable within one shard).
        """
        name = peer_name or self._context.anchor_peer
        graph = ProvenanceGraph()
        entries: List[HistoryEntry] = []
        for index in range(self.network.shard_count):
            peer = self.network.peer(name, shard=index)
            for key in peer.history.keys():
                if key.startswith("__"):
                    continue
                entries.extend(peer.history.history_for_key(key))
        entries.sort(key=lambda e: (e.timestamp, e.block_number, e.tx_number))
        for entry in entries:
            if entry.is_delete or not entry.value:
                continue
            record = ProvenanceRecord.from_json(entry.value)
            graph.ingest_record(record, tx_id=entry.tx_id, block_number=entry.block_number)
        return graph

    def get_lineage(self, key: str, peer_name: Optional[str] = None) -> LineageReport:
        """Full lineage report (ancestors, descendants, agents) for ``key``."""
        graph = self.build_provenance_graph(peer_name)
        return LineageQueryEngine(graph).lineage_report(key)
