"""SSHFS-style remote storage backend.

The paper's off-chain storage "based on SSH file system always runs on a
separate node".  Writing a data item therefore costs:

* checksum computation on the *client* device (HyperProv always hashes the
  data before posting its metadata),
* SSH encryption overhead on the client CPU,
* a network transfer from the client's host to the storage node,
* a disk write on the storage node.

Reads mirror the same path in the other direction plus a checksum
verification on the client.  These per-size costs are exactly what drives
the shape of Fig. 1 and Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import ChecksumMismatchError, NotFoundError, StorageError
from repro.devices.model import DeviceModel
from repro.network.fabric import NetworkFabric
from repro.storage.base import StorageBackend, StorageReceipt, StoredObject


@dataclass
class SSHFSConfig:
    """Tunables of the SSHFS mount."""

    #: Name of the network node hosting the SSHFS export.
    storage_node: str = "storage"
    #: Extra CPU factor for SSH encryption/decryption relative to hashing
    #: the same payload (AES on the client; cheap but not free on a RPi).
    encryption_factor: float = 0.5
    #: Fixed per-operation protocol overhead (SSH round-trips, FUSE), seconds.
    protocol_overhead_s: float = 0.004
    #: Verify the checksum after every retrieval.
    verify_on_read: bool = True


class SSHFSStorageBackend(StorageBackend):
    """Remote store reached over the simulated network."""

    scheme = "ssh"

    def __init__(
        self,
        network: NetworkFabric,
        storage_device: DeviceModel,
        config: Optional[SSHFSConfig] = None,
    ) -> None:
        self.network = network
        self.storage_device = storage_device
        self.config = config or SSHFSConfig()
        self._objects: Dict[str, StoredObject] = {}
        if self.config.storage_node not in network.nodes:
            network.register_node(self.config.storage_node, profile=storage_device.profile.nic)

    def location_of(self, path: str) -> str:
        return f"{self.scheme}://{self.config.storage_node}/{path}"

    # ------------------------------------------------------------------ cost
    def _client_side_cost(
        self, client_device: Optional[DeviceModel], size_bytes: int, at_time: float, label: str
    ) -> float:
        """Checksum + SSH encryption on the requesting device."""
        if client_device is None:
            return self.config.protocol_overhead_s
        duration = (
            client_device.hash_time(size_bytes) * (1.0 + self.config.encryption_factor)
            + self.config.protocol_overhead_s
        )
        _, end = client_device.charge_cpu(at_time, duration, label=label)
        return end - at_time

    # ----------------------------------------------------------------- store
    def store(
        self,
        path: str,
        data: bytes,
        at_time: float = 0.0,
        checksum: Optional[str] = None,
        client_device: Optional[DeviceModel] = None,
        client_node: Optional[str] = None,
    ) -> StorageReceipt:
        """Upload ``data`` to the storage node.

        ``client_device``/``client_node`` identify where the upload
        originates; without them only the storage-side costs are charged.
        The client-side hash cost is charged on the virtual clock whether
        or not the caller passed a precomputed ``checksum``.
        """
        if checksum is None:
            checksum = self.checksum(data)
        cursor = at_time
        cursor += self._client_side_cost(client_device, len(data), cursor, f"sshfs-put:{path}")

        if client_node is not None:
            transfer = self.network.estimate_transfer_time(
                client_node, self.config.storage_node, len(data)
            )
        else:
            transfer = 0.0
        cursor += transfer

        write_duration = self.storage_device.disk_write_time(len(data))
        _, cursor = self.storage_device.occupy(
            "disk", cursor, write_duration, label=f"sshfs-write:{path}"
        )

        self._objects[path] = StoredObject(
            path=path, data=bytes(data), checksum=checksum, stored_at=cursor
        )
        return StorageReceipt(
            path=path,
            location=self.location_of(path),
            checksum=checksum,
            size_bytes=len(data),
            duration_s=cursor - at_time,
            completed_at=cursor,
        )

    # -------------------------------------------------------------- retrieve
    def retrieve(
        self,
        path: str,
        at_time: float = 0.0,
        client_device: Optional[DeviceModel] = None,
        client_node: Optional[str] = None,
        expected_checksum: Optional[str] = None,
    ) -> StorageReceipt:
        """Download the object at ``path`` and (optionally) verify its checksum."""
        obj = self._objects.get(path)
        if obj is None:
            raise NotFoundError(f"no object stored at {path!r} on {self.config.storage_node}")

        cursor = at_time
        read_duration = self.storage_device.disk_read_time(obj.size_bytes)
        _, cursor = self.storage_device.occupy(
            "disk", cursor, read_duration, label=f"sshfs-read:{path}"
        )
        if client_node is not None:
            cursor += self.network.estimate_transfer_time(
                self.config.storage_node, client_node, obj.size_bytes
            )
        if self.config.verify_on_read:
            cursor += self._client_side_cost(
                client_device, obj.size_bytes, cursor, f"sshfs-verify:{path}"
            )
            if expected_checksum is not None and expected_checksum != obj.checksum:
                raise ChecksumMismatchError(expected_checksum, obj.checksum)

        return StorageReceipt(
            path=path,
            location=self.location_of(path),
            checksum=obj.checksum,
            size_bytes=obj.size_bytes,
            duration_s=cursor - at_time,
            completed_at=cursor,
        )

    # ------------------------------------------------------------- inventory
    def get_object(self, path: str) -> Optional[StoredObject]:
        return self._objects.get(path)

    def exists(self, path: str) -> bool:
        return path in self._objects

    def delete(self, path: str) -> bool:
        return self._objects.pop(path, None) is not None

    def list_paths(self, prefix: str = "") -> List[str]:
        return sorted(path for path in self._objects if path.startswith(prefix))

    def total_bytes_stored(self) -> int:
        """Bytes currently held by the storage node (capacity planning)."""
        return sum(obj.size_bytes for obj in self._objects.values())

    def verify_integrity(self) -> List[str]:
        """Re-hash every stored object; returns paths whose checksum drifted."""
        corrupted = []
        for path, obj in self._objects.items():
            if self.checksum(obj.data) != obj.checksum:
                corrupted.append(path)
        if corrupted:
            raise StorageError(f"corrupted objects detected: {corrupted}")
        return corrupted
