"""Commit times of clients that share a host node, pinned by digest.

The pinned value is what both the per-block and the former window-batched
commit-event delivery produced, so dropping the batched mode must not
move it.
"""

import hashlib
import json

from repro.api.protocol import StoreRequest
from repro.consensus.batching import BatchConfig
from repro.core.client import HyperProvClient
from repro.core.topology import build_desktop_deployment

#: sha256 of the per-client ``(tx_id, committed_at, validation_code)``
#: lists below (``committed_at`` to 12 decimals).
SHARED_HOST_DIGEST = (
    "278e7d9924ebb03ad25779f7bca9b5f4d8608507f6f80ca609dedb6eba1b1a89"
)


def run_shared_host():
    """Two clients on one host node, one anchor peer, interleaved ``set``s.

    Returns each client's ``(tx_id, committed_at, validation_code)`` list.
    """
    deployment = build_desktop_deployment(
        seed=42, batch_config=BatchConfig(max_message_count=8)
    )
    fabric = deployment.fabric
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


def digest(rows) -> str:
    text = json.dumps(
        {
            name: [[tx_id, f"{at:.12f}", code.name] for tx_id, at, code in entries]
            for name, entries in rows.items()
        },
        sort_keys=True,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestBatchedCommitDelivery:
    def test_shared_host_clients_commit_identically_in_both_modes(self):
        """Clients sharing a host node share the anchor→host notify link,
        so the completion order fixes their commit times."""
        rows = run_shared_host()
        assert all(len(entries) == 24 for entries in rows.values())
        assert digest(rows) == SHARED_HOST_DIGEST
