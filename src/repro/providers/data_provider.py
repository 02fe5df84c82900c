"""The data provider process: stores the pages generated by WRITE/APPEND."""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..errors import ProviderUnavailableError, ShortReadError
from ..util.integrity import verify_checksum
from .page_store import InMemoryPageStore, PageStore


@dataclass
class DataProviderStats:
    """Counters exposed by a data provider (used by load-balance benchmarks).

    ``batch_put_requests`` / ``batch_get_requests`` count the batched
    multi-page requests (see :meth:`DataProvider.multi_store` /
    :meth:`DataProvider.multi_fetch`); the per-page counters keep counting
    individual pages, so load-distribution math is unchanged by batching.
    """

    #: Identifier of the provider these counters describe.
    provider_id: str
    #: Pages currently stored on the provider.
    pages: int
    #: Payload bytes currently stored on the provider.
    bytes_used: int
    #: Individual page writes received (unchanged by batching).
    put_requests: int
    #: Individual page reads received (unchanged by batching).
    get_requests: int
    #: Batched multi-page store requests received.
    batch_put_requests: int = 0
    #: Batched multi-page fetch requests received.
    batch_get_requests: int = 0


class DataProvider:
    """One data provider node.

    The provider exposes a small RPC-like surface (``store_page``,
    ``fetch_page``) plus the batched multi-page counterparts
    (``multi_store``, ``multi_fetch``) used by the provider-parallel data
    path, plus failure injection used by the fault-tolerance tests.
    Concurrency note: the paper observes that "data access serialization is
    only necessary when the same provider is contacted at the same time by
    different clients"; here that serialization is the per-store lock — a
    batch pays the liveness check and the counter-lock acquisition once for
    all of its pages, which is what makes one round trip per provider real.
    """

    def __init__(
        self,
        provider_id: str,
        store: PageStore | None = None,
        verify_checksums: bool = False,
    ):
        self.provider_id = provider_id
        self._store = store if store is not None else InMemoryPageStore()
        self._verify = verify_checksums
        self._alive = True
        self._lock = threading.Lock()
        self._put_requests = 0
        self._get_requests = 0
        self._batch_put_requests = 0
        self._batch_get_requests = 0

    # -- failure injection -------------------------------------------------
    def kill(self) -> None:
        """Simulate a crash of this provider."""
        self._alive = False

    def revive(self) -> None:
        """Bring the provider back up (stored pages survive)."""
        self._alive = True

    @property
    def alive(self) -> bool:
        return self._alive

    def _check_alive(self) -> None:
        if not self._alive:
            raise ProviderUnavailableError(self.provider_id)

    # -- page RPCs ----------------------------------------------------------
    def store_page(self, page_id: str, data: bytes) -> None:
        """Store the full payload of a new page."""
        self._check_alive()
        with self._lock:
            self._put_requests += 1
        self._store.put(page_id, data, checksummed=self._verify)

    def fetch_page(
        self, page_id: str, offset: int = 0, length: int | None = None
    ) -> bytes:
        """Return a (possibly partial) page payload.

        The paper notes a READ may request "only a part of the page from the
        page provider" when the range is unaligned — hence offset/length.
        """
        self._check_alive()
        with self._lock:
            self._get_requests += 1
        return self._read_page(page_id, offset, length)

    def _read_page(self, page_id: str, offset: int, length: int | None) -> bytes:
        """One page read; full-page reads are checksum-verified when the
        provider was built with ``verify_checksums=True``."""
        data = self._store.get(page_id, offset, length)
        if self._verify and offset == 0:
            info = self._store.page_info(page_id)
            if len(data) == info.size and info.checksum is not None:
                verify_checksum(data, info.checksum, what=f"page {page_id}")
        return data

    # -- batched page RPCs ---------------------------------------------------
    def multi_store(self, items: list[tuple[str, bytes]]) -> None:
        """Store a batch of ``(page_id, payload)`` pairs in ONE request.

        The liveness check and the counter-lock acquisition happen once per
        batch instead of once per page: this is the data-path counterpart of
        the DHT's ``multi_put``.  An empty batch is a no-op and is not
        counted as a request.
        """
        if not items:
            return
        self._check_alive()
        with self._lock:
            self._put_requests += len(items)
            self._batch_put_requests += 1
        for page_id, data in items:
            self._store.put(page_id, data, checksummed=self._verify)

    def multi_fetch(self, requests: list[tuple[str, int, int]]) -> list[bytes]:
        """Batched read: the payload of each ``(page_id, offset, length)``
        request, aligned with ``requests``.

        Payloads are the store's immutable payloads (a full page of an
        in-memory store is the stored object itself), so the caller can
        cache and assemble them without another copy.  One liveness check
        and one counter-lock acquisition cover the whole batch; every page
        goes through the same read as :meth:`fetch_page` (partial reads,
        :class:`~repro.errors.PageNotFoundError` for unknown ids, checksum
        verification of full pages).  An empty batch is a no-op and is not
        counted as a request.

        Short reads *raise* :class:`~repro.errors.ShortReadError`: request
        lengths are sized from leaf metadata, so a store handing back fewer
        bytes means the page was truncated.
        """
        if not requests:
            return []
        self._check_alive()
        with self._lock:
            self._get_requests += len(requests)
            self._batch_get_requests += 1
        payloads = []
        for page_id, offset, length in requests:
            data = self._read_page(page_id, offset, length)
            if len(data) != length:
                raise ShortReadError(
                    f"page {page_id!r} on provider {self.provider_id!r}",
                    expected=length,
                    actual=len(data),
                )
            payloads.append(data)
        return payloads

    def has_page(self, page_id: str) -> bool:
        self._check_alive()
        return self._store.contains(page_id)

    def delete_page(self, page_id: str) -> bool:
        """Remove a page (used by garbage collection of aborted updates)."""
        self._check_alive()
        return self._store.delete(page_id)

    def page_ids(self) -> list[str]:
        """Ids of every page stored here (used by sweeps and audits)."""
        self._check_alive()
        return self._store.page_ids()

    def page_size_of(self, page_id: str) -> int:
        """Stored size of one page in bytes."""
        self._check_alive()
        return self._store.page_info(page_id).size

    # -- introspection -------------------------------------------------------
    def bytes_used(self) -> int:
        return self._store.bytes_used()

    def page_count(self) -> int:
        return self._store.page_count()

    def stats(self) -> DataProviderStats:
        with self._lock:
            return DataProviderStats(
                provider_id=self.provider_id,
                pages=self._store.page_count(),
                bytes_used=self._store.bytes_used(),
                put_requests=self._put_requests,
                get_requests=self._get_requests,
                batch_put_requests=self._batch_put_requests,
                batch_get_requests=self._batch_get_requests,
            )
