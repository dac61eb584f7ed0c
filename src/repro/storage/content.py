"""Content-addressed naming layer over any storage backend.

HyperProv's data pointers are derived from the content checksum, so the
same payload stored twice resolves to the same location and the on-chain
record's checksum doubles as the retrieval key.

This layer owns the write-path checksum: :meth:`ContentAddressedStore.put`
hashes each payload exactly once and hands the digest to the backend's
``store``, which records it instead of hashing the bytes again.
"""

from __future__ import annotations

from typing import List, Optional

from repro.storage.base import StorageBackend, StorageReceipt, StoredObject


class ContentAddressedStore:
    """Names objects ``<prefix>/<checksum>`` on an underlying backend."""

    def __init__(self, backend: StorageBackend, prefix: str = "objects") -> None:
        self.backend = backend
        self.prefix = prefix

    def path_for(self, checksum: str) -> str:
        """Storage path used for a payload with the given checksum."""
        return f"{self.prefix}/{checksum[:2]}/{checksum}"

    def put(self, data: bytes, at_time: float = 0.0, **kwargs) -> StorageReceipt:
        """Store ``data`` under its content address (idempotent).

        The checksum computed here names the object and is passed through
        to the backend, so the payload is hashed once per ``put``.
        """
        checksum = self.backend.checksum(data)
        path = self.path_for(checksum)
        if self.backend.exists(path):
            # Already stored: return a zero-cost receipt pointing at it.
            return StorageReceipt(
                path=path,
                location=self.backend.location_of(path),
                checksum=checksum,
                size_bytes=len(data),
                duration_s=0.0,
                completed_at=at_time,
            )
        return self.backend.store(path, data, at_time=at_time, checksum=checksum, **kwargs)

    def get(self, checksum: str, at_time: float = 0.0, **kwargs) -> StorageReceipt:
        """Retrieve the payload whose checksum is ``checksum``."""
        return self.backend.retrieve(self.path_for(checksum), at_time=at_time, **kwargs)

    def get_object(self, checksum: str) -> Optional[StoredObject]:
        return self.backend.get_object(self.path_for(checksum))

    def exists(self, checksum: str) -> bool:
        return self.backend.exists(self.path_for(checksum))

    def list_checksums(self) -> List[str]:
        """Checksums of every object stored through this layer."""
        paths = self.backend.list_paths(prefix=self.prefix)
        return sorted(path.rsplit("/", 1)[-1] for path in paths)
