"""The synchronous BlobSeer client: CREATE, WRITE, APPEND, READ, GET_RECENT,
GET_SIZE, SYNC and BRANCH (paper, Section 2.1).

A :class:`BlobStore` is what a threaded application links against.  Several
``BlobStore`` instances (one per thread, or one shared — the class is
thread-safe) can operate concurrently against the same :class:`Cluster`,
which is how the concurrency tests model the paper's "arbitrarily large
number of concurrent clients".

Since the asyncio redesign this class is a *bridge*, not an implementation:
every operation delegates to the one async client core,
:class:`~repro.core.async_store.AsyncBlobStore`, executed on a
:class:`~repro.aio.SyncRuntime` whose awaitables never suspend — so
:func:`~repro.aio.run_sync` drives each call to completion without an event
loop, a task, or a parked thread.  Planning, caching, replication, retry and
trip accounting exist exactly once, in the async core; this module only
supplies the synchronous calling convention.  Under the sync runtime the core
fetches each tree level's cache misses as one batch and keeps the
store-then-publish write order, so behaviour, timing and every ``*_ex``
counter are bit-for-bit what they were before the redesign; the per-bucket
pipelining of those misses and the store/publish overlap switch on only under
:class:`~repro.aio.AsyncRuntime` (see :mod:`repro.core.async_store`).

Write path (Algorithm 2): pages are stored on data providers chosen by the
provider manager, the version manager assigns the snapshot version and
returns the border-node hints, the client weaves the new metadata tree into
the old one, and finally notifies the version manager, which publishes
versions in total order.

Read path (Algorithms 1 and 3): the client checks publication with the
version manager, walks the segment tree of the requested snapshot through
the metadata DHT, then fetches the needed (parts of) pages from the data
providers.

Metadata I/O is *frontier-parallel*: the sans-IO walkers
(:class:`repro.metadata.read_plan.FrontierWalker`,
:class:`repro.metadata.build.BorderWalker`) expand one tree level of
independent node fetches at a time, and the store resolves each level's
cache misses with one batched DHT multi-get (grouped by bucket, one
bucket-lock acquisition per batch).  Likewise, an
update publishes all of its new tree nodes in one batched multi-put —
Algorithm 4 line 34's "in parallel", for real.  Metadata round trips per
READ/WRITE are therefore O(tree depth) = O(log pages), not O(nodes
touched); the ``*_ex`` stats report both ``metadata_nodes_fetched`` (nodes
that actually travelled from the DHT) and ``metadata_round_trips``.

Metadata caching, page-payload caching and version leases are *shared
subsystems* (see the async core's docstring and :mod:`repro.cache` /
:mod:`repro.vm`): published tree nodes, stored pages and published-snapshot
facts are immutable, so every store on a :class:`Cluster` reads and writes
the same sharded LRU caches, frontier resolution filters cached keys before
the DHT multi-get, page fetches are served from the page cache (the cached
entry is the immutable payload object itself, never a copy of it), and a
warm repeated READ costs zero metadata, data AND version-manager round
trips.  A READ copies each byte into its result once: :meth:`read_ex`
joins the page payloads, :meth:`read_into` copies them into the caller's
buffer.  Per-operation deltas are reported on
``ReadStats``/``WriteResult``; cache-wide totals via :meth:`cache_stats`,
:meth:`page_cache_stats` and :meth:`lease_stats`.

API note: the ``*_ex`` methods (:meth:`write_ex`, :meth:`append_ex`,
:meth:`read_ex`) are the *canonical* operations — they do the work and
return the full result objects.  Bare :meth:`write` / :meth:`append` /
:meth:`read` are thin convenience wrappers that discard the stats; they are
not deprecated and behave identically to their ``*_ex`` counterparts.
"""

from __future__ import annotations

from ..aio import SYNC_RUNTIME, run_sync
from ..cache import CacheStats, NodeCache, PageCache
from ..vm import LeaseCache
from .async_store import AsyncBlobStore, ReadStats, WriteResult
from .cluster import Cluster

__all__ = ["BlobStore", "ReadStats", "WriteResult"]


class BlobStore:
    """Synchronous client front-end to a BlobSeer :class:`Cluster`.

    A loop-free bridge over :class:`~repro.core.async_store.AsyncBlobStore`
    — see the module docstring for the execution model.

    Parameters
    ----------
    cluster:
        The deployment to operate against.
    strict_unaligned:
        When True, unaligned WRITEs register their version first and wait for
        the previous snapshot before filling boundary pages, giving exact
        read-modify-write semantics at page boundaries even under concurrent
        overlapping writers (at the cost of serializing those writers).  The
        default fills boundaries from the most recently *published* snapshot,
        which matches the paper's lock-free spirit.
    cache_metadata:
        When True (the default), fetched metadata tree nodes are cached in
        the cluster's shared :class:`~repro.cache.NodeCache`.  Nodes are
        immutable once written (the paper's key design choice), so the
        cache never needs invalidation; it is LRU-bounded by the cluster
        config's ``metadata_cache_*`` budgets, and all stores on a cluster
        warm one another.  Pass False for cold-cache determinism (exact
        trip-count assertions, failure-injection tests).
    node_cache:
        Override the cache instance (a private cold
        :class:`~repro.cache.NodeCache` isolates tests from the shared
        one).  Ignored when ``cache_metadata`` is False.
    cache_pages:
        When True (the default), fetched page payload ranges are cached in
        the cluster's shared :class:`~repro.cache.PageCache` and served
        from it on repeat — stored pages are immutable, so the cache never
        needs invalidation (except for GC, which discards exactly the
        pages it deletes).  Pass False for cold-path determinism (exact
        data-trip assertions, failure-injection tests).  Also off when the
        cluster's config disables page caching (``page_cache_entries=None``).
    page_cache:
        Override the page cache instance (a private
        :class:`~repro.cache.PageCache` isolates tests from the shared
        one).  Ignored when ``cache_pages`` is False.
    lease_versions:
        When True (the default), GET_RECENT and the READ publication check
        are served from the cluster's shared :class:`~repro.vm.LeaseCache`
        when possible — publish notifications keep leases coherent, so
        results are identical to unleased calls while warm repeated reads
        issue zero version-manager round trips.  Pass False to hit the
        version manager on every call (the pre-PR-4 behaviour, with the
        old ``is_published`` + ``get_size`` pair fused into one
        ``check_read`` trip).  Also off when the cluster's config disables
        leasing (``vm_lease_ttl=None``).
    version_leases:
        Override the lease cache instance (a private
        :class:`~repro.vm.LeaseCache` isolates tests from the shared one).
        Ignored when ``lease_versions`` is False.

    Use as a context manager (``with BlobStore(c) as s: ...``) or call
    :meth:`close` explicitly (idempotent); a closed store raises
    :class:`~repro.errors.StoreClosedError` on further operations.
    """

    def __init__(
        self,
        cluster: Cluster,
        strict_unaligned: bool = False,
        cache_metadata: bool = True,
        node_cache: NodeCache | None = None,
        cache_pages: bool = True,
        page_cache: PageCache | None = None,
        lease_versions: bool = True,
        version_leases: LeaseCache | None = None,
    ):
        self._engine = AsyncBlobStore(
            cluster,
            strict_unaligned=strict_unaligned,
            cache_metadata=cache_metadata,
            node_cache=node_cache,
            cache_pages=cache_pages,
            page_cache=page_cache,
            lease_versions=lease_versions,
            version_leases=version_leases,
            runtime=SYNC_RUNTIME,
        )
        self._engine._display_name = type(self).__name__

    # ------------------------------------------------------------------ CREATE
    def create(self, page_size: int | None = None) -> str:
        """CREATE: make a new blob with an empty, published snapshot 0."""
        return run_sync(self._engine.create(page_size))

    # ------------------------------------------------------------------- WRITE
    def write(self, blob_id: str, data: bytes, offset: int) -> int:
        """WRITE: replace ``len(data)`` bytes at ``offset``; return the new
        snapshot version (which may not be published yet — use SYNC).

        Thin wrapper over the canonical :meth:`write_ex`.
        """
        return run_sync(self._engine.write(blob_id, data, offset))

    def write_ex(self, blob_id: str, data: bytes, offset: int) -> WriteResult:
        return run_sync(self._engine.write_ex(blob_id, data, offset))

    # ------------------------------------------------------------------ APPEND
    def append(self, blob_id: str, data: bytes) -> int:
        """APPEND: WRITE at the end of the previous snapshot; the offset is
        chosen by the version manager.

        Thin wrapper over the canonical :meth:`append_ex`.
        """
        return run_sync(self._engine.append(blob_id, data))

    def append_ex(self, blob_id: str, data: bytes) -> WriteResult:
        return run_sync(self._engine.append_ex(blob_id, data))

    # -------------------------------------------------------------------- READ
    def read(self, blob_id: str, version: int, offset: int, size: int) -> bytes:
        """READ: return ``size`` bytes at ``offset`` from snapshot ``version``.

        Fails when the version is not published or the range exceeds the
        snapshot size (paper, Section 2.1).  Thin wrapper over the canonical
        :meth:`read_ex`.
        """
        return run_sync(self._engine.read(blob_id, version, offset, size))

    def read_ex(
        self, blob_id: str, version: int, offset: int, size: int
    ) -> tuple[bytes, ReadStats]:
        return run_sync(self._engine.read_ex(blob_id, version, offset, size))

    def read_into(self, blob_id: str, version: int, offset: int, out) -> ReadStats:
        """READ ``len(out)`` bytes at ``offset`` into the writable buffer
        ``out`` (the paper's ``READ(id, v, buffer, offset, size)``); see
        :meth:`~repro.core.async_store.AsyncBlobStore.read_into`."""
        return run_sync(self._engine.read_into(blob_id, version, offset, out))

    def read_recent(self, blob_id: str, offset: int, size: int) -> tuple[int, bytes]:
        """Convenience: READ from the most recently published snapshot."""
        return run_sync(self._engine.read_recent(blob_id, offset, size))

    # ------------------------------------------------------- version primitives
    def get_recent(self, blob_id: str) -> int:
        """GET_RECENT: a recently published snapshot version.

        Served from the shared version lease when one is fresh — publish
        notifications renew leases synchronously, so the answer equals what
        the version manager itself would return.
        """
        return run_sync(self._engine.get_recent(blob_id))

    def get_size(self, blob_id: str, version: int) -> int:
        """GET_SIZE: size in bytes of a published snapshot.

        A published snapshot's size is immutable, so the answer is served
        from the lease cache's fact map once known.
        """
        return run_sync(self._engine.get_size(blob_id, version))

    def sync(self, blob_id: str, version: int, timeout: float | None = None) -> None:
        """SYNC: block until ``version`` is published ("read your writes")."""
        return run_sync(self._engine.sync(blob_id, version, timeout))

    def branch(self, blob_id: str, version: int) -> str:
        """BRANCH: virtually duplicate the blob up to ``version``; return the
        new blob id."""
        return run_sync(self._engine.branch(blob_id, version))

    # ------------------------------------------------------------- introspection
    def cache_stats(self) -> CacheStats:
        """Lifetime counters and occupancy of the metadata node cache.

        The cache is shared — by default across every store of this
        cluster, and (with default budgets) across all clusters of the
        process — so the numbers are cache-wide, not per-store.  One
        operation's hits and misses are counters on its result
        (``metadata_cache_hits``, ``metadata_nodes_fetched``,
        ``border_nodes_fetched``).  An uncached store reports all zeros.
        """
        return self._engine.cache_stats()

    def page_cache_stats(self) -> CacheStats:
        """Lifetime counters and occupancy of the page payload cache.

        Shared like the metadata cache (see :meth:`cache_stats`); one
        read's hits are ``ReadStats.page_cache_hits`` out of
        ``pages_fetched``.  An uncached store reports all zeros.
        """
        return self._engine.page_cache_stats()

    def lease_stats(self):
        """Counters of the (possibly shared) version lease cache, or None
        when this store runs unleased — see
        :class:`~repro.vm.lease.LeaseStats`."""
        return self._engine.lease_stats()

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the store (idempotent); further
        operations raise :class:`~repro.errors.StoreClosedError`.  The
        shared caches and the cluster stay untouched."""
        self._engine.close()

    def __enter__(self) -> "BlobStore":
        self._engine._ensure_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
