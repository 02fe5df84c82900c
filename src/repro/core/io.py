"""File-like adapters over blob snapshots.

Applications that expect a byte-stream interface (parsers, image decoders,
checkpoint loaders) can wrap a snapshot in :class:`SnapshotReader` — a
read-only, seekable file object — and produce new snapshots through
:class:`AppendWriter`, which buffers writes and emits page-aligned APPENDs.

Both adapters are thin translations onto the paper's primitives: the reader
issues READs against one fixed, published version (so it is immune to
concurrent updates), the writer issues APPENDs and reports the versions it
generated.
"""

from __future__ import annotations

import io

from ..errors import InvalidRangeError
from .blob_store import BlobStore


class SnapshotReader(io.RawIOBase):
    """A read-only, seekable file object over one published snapshot."""

    def __init__(self, store: BlobStore, blob_id: str, version: int | None = None):
        super().__init__()
        self._store = store
        self._blob_id = blob_id
        self._version = store.get_recent(blob_id) if version is None else version
        self._size = store.get_size(blob_id, self._version)
        self._position = 0

    # -- metadata ---------------------------------------------------------
    @property
    def version(self) -> int:
        return self._version

    @property
    def size(self) -> int:
        return self._size

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    # -- positioning --------------------------------------------------------
    def tell(self) -> int:
        return self._position

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        if whence == io.SEEK_SET:
            target = offset
        elif whence == io.SEEK_CUR:
            target = self._position + offset
        elif whence == io.SEEK_END:
            target = self._size + offset
        else:
            raise ValueError(f"invalid whence: {whence}")
        if target < 0:
            raise InvalidRangeError(f"cannot seek to negative offset {target}")
        self._position = target
        return self._position

    # -- reading ---------------------------------------------------------------
    def read(self, size: int = -1) -> bytes:
        if self.closed:
            raise ValueError("read on a closed SnapshotReader")
        if size is None or size < 0:
            size = max(self._size - self._position, 0)
        size = min(size, max(self._size - self._position, 0))
        if size == 0:
            return b""
        data = self._store.read(self._blob_id, self._version, self._position, size)
        self._position += len(data)
        return data

    def readinto(self, buffer) -> int:
        if self.closed:
            raise ValueError("read on a closed SnapshotReader")
        with memoryview(buffer) as raw, raw.cast("B") as view:
            size = min(view.nbytes, max(self._size - self._position, 0))
            if size:
                self._store.read_into(
                    self._blob_id, self._version, self._position, view[:size]
                )
        self._position += size
        return size

    def readall(self) -> bytes:
        return self.read(-1)


class AppendWriter(io.RawIOBase):
    """A buffered, append-only file object producing blob snapshots.

    Data written through the adapter is buffered locally and flushed as
    APPEND operations of exactly ``flush_threshold`` bytes (one final,
    possibly smaller APPEND happens on close/flush).  Each flush produces one
    snapshot version; the versions are recorded in :attr:`versions`.  A
    written byte is copied once, into the buffer, and a flushed chunk
    reaches :meth:`BlobStore.append` as that buffer's immutable ``bytes``.
    """

    def __init__(self, store: BlobStore, blob_id: str, flush_threshold: int = 1 << 20):
        super().__init__()
        if flush_threshold <= 0:
            raise InvalidRangeError("flush_threshold must be positive")
        self._store = store
        self._blob_id = blob_id
        self._threshold = flush_threshold
        self._buffer = io.BytesIO()
        self._bytes_written = 0
        self.versions: list[int] = []

    def writable(self) -> bool:
        return True

    @property
    def bytes_written(self) -> int:
        """Bytes accepted so far (buffered or already appended)."""
        return self._bytes_written

    def write(self, data) -> int:
        if self.closed:
            raise ValueError("write on a closed AppendWriter")
        with memoryview(data) as raw, raw.cast("B") as view:
            size = view.nbytes
            start = 0
            while start < size:
                room = self._threshold - self._buffer.tell()
                self._buffer.write(view[start:start + room])
                start += room
                if self._buffer.tell() == self._threshold:
                    self._flush_chunk()
        self._bytes_written += size
        return size

    def flush(self) -> None:
        if self.closed:
            return
        if self._buffer.tell():
            self._flush_chunk()

    def close(self) -> None:
        if not self.closed:
            self.flush()
        super().close()

    def sync(self, timeout: float | None = None) -> int:
        """Flush, wait for the last emitted snapshot to publish, return it."""
        self.flush()
        if not self.versions:
            return self._store.get_recent(self._blob_id)
        last = self.versions[-1]
        self._store.sync(self._blob_id, last, timeout)
        return last

    def _flush_chunk(self) -> None:
        # ``getvalue`` hands over the buffer's own ``bytes``: no second copy.
        chunk = self._buffer.getvalue()
        self._buffer = io.BytesIO()
        self.versions.append(self._store.append(self._blob_id, chunk))
