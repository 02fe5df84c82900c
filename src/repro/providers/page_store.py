"""Physical page storage backends.

A data provider delegates the actual byte storage to a :class:`PageStore`.
A page is immutable once stored, so :meth:`PageStore.get` hands back an
immutable payload that callers may keep — the read path caches it and
assembles results from it without copying it first.

A payload is kept as handed in: ``bytes``, or a read-only ``memoryview``
slice of the writer's immutable buffer, which keeps that whole buffer alive
until the last page cut from it is deleted.  A checksum is computed only
when asked for (``put(..., checksummed=True)``, by a verifying provider).
Three backends are provided:

* :class:`InMemoryPageStore` — a dict of payloads; the default for tests
  and examples.  A full-page ``get`` returns the stored object itself.
* :class:`FilePageStore` — one file per page under a directory, for blobs
  larger than memory.
* :class:`NullPageStore` — records page sizes only; used by the
  discrete-event simulator where payload bytes are irrelevant but the real
  provider/metadata code paths still run.  Its payloads are read-only views
  of one shared zero buffer, so caching them costs no memory.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..errors import PageNotFoundError
from ..util.integrity import checksum


@dataclass(frozen=True)
class StoredPage:
    """Bookkeeping record kept for every stored page."""

    page_id: str
    size: int
    #: ``None`` when the page was stored without being checksummed.
    checksum: str | None


class PageStore(ABC):
    """Abstract page storage: maps page ids to immutable byte payloads."""

    @abstractmethod
    def put(self, page_id: str, data: bytes, checksummed: bool = False) -> None:
        """Store the immutable payload of a page, without copying it (page
        ids are never reused); record its checksum only if ``checksummed``."""

    @abstractmethod
    def get(self, page_id: str, offset: int = 0, length: int | None = None) -> bytes:
        """Return ``length`` bytes of a page starting at ``offset``.

        ``length=None`` means "until the end of the page".  Raises
        :class:`PageNotFoundError` for unknown ids.  The result is
        immutable — the stored payload itself for a full page, else the one
        copy a READ makes of the page — so callers may cache it and
        assemble from it without copying it again.
        """

    @abstractmethod
    def contains(self, page_id: str) -> bool:
        """Return True when the page is stored here."""

    @abstractmethod
    def delete(self, page_id: str) -> bool:
        """Remove a page; return True when it existed."""

    @abstractmethod
    def page_info(self, page_id: str) -> StoredPage:
        """Return the bookkeeping record of a page."""

    @abstractmethod
    def page_ids(self) -> list[str]:
        """Return the ids of every stored page (for sweeps and audits)."""

    @abstractmethod
    def page_count(self) -> int:
        """Number of pages stored."""

    @abstractmethod
    def bytes_used(self) -> int:
        """Total payload bytes stored."""


class InMemoryPageStore(PageStore):
    """Pages held in a dictionary of immutable payloads (thread-safe)."""

    def __init__(self) -> None:
        self._pages: dict[str, bytes | memoryview] = {}
        self._info: dict[str, StoredPage] = {}
        self._bytes = 0
        self._lock = threading.Lock()

    def put(self, page_id: str, data: bytes, checksummed: bool = False) -> None:
        record = StoredPage(page_id, len(data), checksum(data) if checksummed else None)
        with self._lock:
            previous = self._pages.get(page_id)
            if previous is not None:
                self._bytes -= len(previous)
            self._pages[page_id] = data
            self._info[page_id] = record
            self._bytes += len(data)

    def get(self, page_id: str, offset: int = 0, length: int | None = None) -> bytes:
        with self._lock:
            data = self._pages.get(page_id)
        if data is None:
            raise PageNotFoundError(page_id)
        end = len(data) if length is None else offset + length
        if offset == 0 and end >= len(data):
            return data
        return bytes(data[offset:end])  # one copy, also of a view's sub-range

    def contains(self, page_id: str) -> bool:
        with self._lock:
            return page_id in self._pages

    def delete(self, page_id: str) -> bool:
        with self._lock:
            data = self._pages.pop(page_id, None)
            self._info.pop(page_id, None)
            if data is None:
                return False
            self._bytes -= len(data)
            return True

    def page_info(self, page_id: str) -> StoredPage:
        with self._lock:
            info = self._info.get(page_id)
        if info is None:
            raise PageNotFoundError(page_id)
        return info

    def page_ids(self) -> list[str]:
        with self._lock:
            return list(self._pages)

    def page_count(self) -> int:
        with self._lock:
            return len(self._pages)

    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes


class FilePageStore(PageStore):
    """Pages stored as individual files under a directory."""

    def __init__(self, directory: str):
        self._directory = directory
        os.makedirs(directory, exist_ok=True)
        self._info: dict[str, StoredPage] = {}
        self._lock = threading.Lock()
        self._load_existing()

    def _load_existing(self) -> None:
        """Rebuild the index from files already present (restart support)."""
        for name in os.listdir(self._directory):
            path = os.path.join(self._directory, name)
            if not os.path.isfile(path):
                continue
            with open(path, "rb") as handle:
                data = handle.read()
            self._info[name] = StoredPage(name, len(data), checksum(data))

    def _path(self, page_id: str) -> str:
        # Page ids are generated by this library and contain only [-a-z0-9],
        # but be defensive against path separators anyway.
        safe = page_id.replace(os.sep, "_").replace("/", "_")
        return os.path.join(self._directory, safe)

    def put(self, page_id: str, data: bytes, checksummed: bool = False) -> None:
        path = self._path(page_id)
        with open(path, "wb") as handle:
            handle.write(data)
        record = StoredPage(page_id, len(data), checksum(data) if checksummed else None)
        with self._lock:
            self._info[page_id] = record

    def get(self, page_id: str, offset: int = 0, length: int | None = None) -> bytes:
        path = self._path(page_id)
        with self._lock:
            known = page_id in self._info
        if not known or not os.path.exists(path):
            raise PageNotFoundError(page_id)
        with open(path, "rb") as handle:
            handle.seek(offset)
            if length is None:
                return handle.read()
            return handle.read(length)

    def contains(self, page_id: str) -> bool:
        with self._lock:
            return page_id in self._info

    def delete(self, page_id: str) -> bool:
        with self._lock:
            info = self._info.pop(page_id, None)
        if info is None:
            return False
        try:
            os.remove(self._path(page_id))
        except FileNotFoundError:
            pass
        return True

    def page_info(self, page_id: str) -> StoredPage:
        with self._lock:
            info = self._info.get(page_id)
        if info is None:
            raise PageNotFoundError(page_id)
        return info

    def page_ids(self) -> list[str]:
        with self._lock:
            return list(self._info)

    def page_count(self) -> int:
        with self._lock:
            return len(self._info)

    def bytes_used(self) -> int:
        with self._lock:
            return sum(info.size for info in self._info.values())


#: The process-wide zero buffer behind every :class:`NullPageStore` payload;
#: replaced by a longer one when a read asks for more.
_zeros = memoryview(b"")


def _zero_view(length: int) -> memoryview:
    """A read-only view of ``length`` zero bytes (no copy, shared)."""
    global _zeros
    zeros = _zeros
    if length > len(zeros):
        zeros = _zeros = memoryview(bytes(length))
    return zeros[:length]


class NullPageStore(PageStore):
    """Stores page *sizes* only; payload reads return zero bytes.

    Used by the simulator and by capacity-planning benchmarks where the byte
    content is irrelevant but page counts, sizes and placement matter.  A
    payload is a read-only ``memoryview`` slice of one process-wide zero
    buffer, which grows to the longest length ever asked for: the
    simulated clients' page caches hold those views, weighted by length, so
    their byte budgets stay honest while the memory is shared.
    """

    def __init__(self) -> None:
        self._sizes: dict[str, int] = {}
        self._bytes = 0
        self._lock = threading.Lock()

    def put(self, page_id: str, data: bytes, checksummed: bool = False) -> None:
        size = len(data)
        with self._lock:
            previous = self._sizes.get(page_id)
            if previous is not None:
                self._bytes -= previous
            self._sizes[page_id] = size
            self._bytes += size

    def get(
        self, page_id: str, offset: int = 0, length: int | None = None
    ) -> memoryview:
        with self._lock:
            size = self._sizes.get(page_id)
        if size is None:
            raise PageNotFoundError(page_id)
        end = size if length is None else min(offset + length, size)
        return _zero_view(max(end - offset, 0))

    def contains(self, page_id: str) -> bool:
        with self._lock:
            return page_id in self._sizes

    def delete(self, page_id: str) -> bool:
        with self._lock:
            size = self._sizes.pop(page_id, None)
            if size is None:
                return False
            self._bytes -= size
            return True

    def page_info(self, page_id: str) -> StoredPage:
        with self._lock:
            size = self._sizes.get(page_id)
        if size is None:
            raise PageNotFoundError(page_id)
        return StoredPage(page_id, size, None)

    def page_ids(self) -> list[str]:
        with self._lock:
            return list(self._sizes)

    def page_count(self) -> int:
        with self._lock:
            return len(self._sizes)

    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes
