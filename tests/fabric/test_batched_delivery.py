"""Batched commit delivery: buffering, window flushes, virtual-time parity."""

from repro.api.protocol import StoreRequest
from repro.common.events import COMMIT_BATCH_TOPIC
from repro.consensus.batching import BatchConfig
from repro.core.client import HyperProvClient
from repro.core.topology import build_desktop_deployment
from repro.workloads.fleet import (
    FleetSpec,
    build_fleet,
    commit_log_lines,
    submit_fleet,
)


def tiny_spec(**overrides) -> FleetSpec:
    base = dict(
        devices=20, shards=2, rate_per_device_s=0.1, duration_s=30.0,
        seed=5, batch_config=BatchConfig(max_message_count=1),
    )
    base.update(overrides)
    return FleetSpec(**base)


def run_mode(batch_commit_delivery: bool):
    deployment = build_fleet(tiny_spec(), batch_commit_delivery=batch_commit_delivery)
    submit_fleet(deployment)
    deployment.drain()
    return deployment


def run_shared_host(batch_commit_delivery: bool):
    """Two clients on one host node, one anchor peer, interleaved ``set``s.

    Returns each client's ``(tx_id, committed_at, validation_code)`` list.
    """
    deployment = build_desktop_deployment(
        seed=42, batch_config=BatchConfig(max_message_count=8)
    )
    fabric = deployment.fabric
    fabric.config.batch_commit_delivery = batch_commit_delivery
    org = deployment.channel.msp.organization("org1")
    names = ("gateway-a", "gateway-b")
    stores = {}
    for name in names:
        fabric.add_client(
            name,
            identity=org.enroll(name, role="client"),
            device=deployment.client_device,
            host_node="gateway",
            anchor_peer=deployment.peers[0].name,
        )
        stores[name] = HyperProvClient(network=fabric, client_name=name).as_store()
    handles = {name: [] for name in names}
    for index in range(48):
        name = names[index % 2]
        handles[name].append(
            stores[name].submit(
                StoreRequest(
                    key=f"shared/{index}",
                    checksum=f"{index:064x}",
                    location=f"file://shared/{index}",
                )
            )
        )
    deployment.drain()
    return {
        name: [
            (h.handle.tx_id, h.committed_at, h.handle.validation_code) for h in submitted
        ]
        for name, submitted in handles.items()
    }


class TestBatchedCommitDelivery:
    def test_shared_host_clients_commit_identically_in_both_modes(self):
        """Clients sharing a host node share the anchor→host notify link,
        so the completion order fixes their commit times: it must not
        depend on the event-granularity switch."""
        per_block = run_shared_host(batch_commit_delivery=False)
        batched = run_shared_host(batch_commit_delivery=True)
        assert all(len(rows) == 24 for rows in per_block.values())
        assert batched == per_block

    def test_virtual_time_identical_to_per_block_path(self):
        per_block = run_mode(batch_commit_delivery=False)
        batched = run_mode(batch_commit_delivery=True)
        for site in per_block.sites:
            assert commit_log_lines(batched, site) == commit_log_lines(per_block, site)

    def test_commit_batch_published_per_flush_not_per_block(self):
        deployment = build_fleet(tiny_spec(), batch_commit_delivery=True)
        batches = []
        deployment.fabric.events.subscribe(
            COMMIT_BATCH_TOPIC, lambda _topic, entries: batches.append(entries)
        )
        submit_fleet(deployment)
        deployment.drain()  # flush_and_drain flushes once at the end
        blocks = sum(len(entries) for entries in batches)
        assert blocks > 1
        # One batch per shard buffer, not one publish per block.
        assert len(batches) <= deployment.spec.shards
        assert all(isinstance(entries, list) for entries in batches)

    def test_buffer_drains_on_flush(self):
        deployment = build_fleet(tiny_spec(), batch_commit_delivery=True)
        submit_fleet(deployment)
        deployment.engine.run(until=15.0)
        assert deployment.fabric.buffered_commit_events > 0
        flushed = deployment.fabric.flush_commit_events()
        assert flushed > 0
        assert deployment.fabric.buffered_commit_events == 0
        # Flushing an empty buffer is a no-op.
        assert deployment.fabric.flush_commit_events() == 0

    def test_chaincode_event_batches_grouped_by_name(self):
        deployment = build_fleet(tiny_spec(), batch_commit_delivery=True)
        received = []
        deployment.fabric.events.subscribe(
            "chaincode_event_batch:provenance_recorded",
            lambda _topic, payloads: received.extend(payloads),
        )
        submit_fleet(deployment)
        deployment.drain()
        assert received
        assert all(event["name"] == "provenance_recorded" for event in received)
        assert all("tx_id" in event and "block_number" in event for event in received)
