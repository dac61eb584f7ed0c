"""Storage backend interface and common result types."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional

from repro.common.hashing import checksum_of


@dataclass(frozen=True)
class StoredObject:
    """An object held by a storage backend."""

    path: str
    data: bytes
    checksum: str
    stored_at: float = 0.0

    @property
    def size_bytes(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class StorageReceipt:
    """Result of a store/retrieve operation, including its simulated cost."""

    path: str
    location: str
    checksum: str
    size_bytes: int
    duration_s: float
    completed_at: float


class StorageBackend(ABC):
    """Interface every off-chain storage implementation provides."""

    #: URI scheme used when building data-pointer locations.
    scheme: str = "mem"

    @abstractmethod
    def store(
        self, path: str, data: bytes, at_time: float = 0.0, checksum: Optional[str] = None
    ) -> StorageReceipt:
        """Persist ``data`` under ``path``; returns a receipt with the cost.

        ``checksum`` is ``sha256(data)`` when the caller already has it
        (:class:`~repro.storage.content.ContentAddressedStore` does); the
        backend records it as given.  When omitted, the backend derives it
        with :meth:`checksum`.
        """

    @abstractmethod
    def retrieve(self, path: str, at_time: float = 0.0) -> StorageReceipt:
        """Fetch the object at ``path``; raises ``StorageError`` if missing."""

    @abstractmethod
    def get_object(self, path: str) -> Optional[StoredObject]:
        """Direct access to the stored object (no cost accounting)."""

    @abstractmethod
    def exists(self, path: str) -> bool:
        """Whether an object is stored under ``path``."""

    @abstractmethod
    def delete(self, path: str) -> bool:
        """Remove the object; returns whether it existed."""

    @abstractmethod
    def list_paths(self, prefix: str = "") -> List[str]:
        """All stored paths starting with ``prefix``."""

    def location_of(self, path: str) -> str:
        """The URI recorded on chain as the data pointer."""
        return f"{self.scheme}://{path}"

    @staticmethod
    def checksum(data: bytes) -> str:
        """Checksum used to verify integrity against the on-chain record."""
        return checksum_of(data)
