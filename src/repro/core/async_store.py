"""The asyncio-native client core: CREATE, WRITE, APPEND, READ, GET_RECENT,
GET_SIZE, SYNC and BRANCH as awaitables (paper, Section 2.1).

:class:`AsyncBlobStore` IS the client implementation — the sync
:class:`~repro.core.blob_store.BlobStore` is a loop-free bridge over this
class (see :mod:`repro.aio`), so planning, caching, replication, retry and
trip accounting exist exactly once.  Which of the two execution modes runs
underneath is decided by the injected :class:`~repro.aio.IORuntime`:

* under :class:`~repro.aio.SyncRuntime` no awaitable ever suspends, a tree
  level with cache misses is fetched as one batch and the write path stores
  pages before publishing metadata — the pre-async behaviour, timing and
  counters, bit for bit;

* under :class:`~repro.aio.AsyncRuntime` (the default) the store exploits
  the event loop:

  - READ *pipelines* the misses of its metadata descent: they are grouped
    by DHT bucket and each group expands its children — and issues their
    level-N+1 fetches — the moment it lands, while the level's slower
    buckets are still in flight;
  - WRITE *overlaps* the batched ``put_nodes`` publish with the page
    stores: descriptors are built optimistically from the allocated replica
    sets, the publish task starts while pages are still landing, and the
    rare page that landed on fewer replicas than allocated gets its leaf
    re-put before the version manager is notified (``_finish_update``);
  - SYNC and retry backoff park on the loop instead of a thread, so
    thousands of operations stay concurrently in flight in one process
    with zero per-operation threads.

Both modes produce identical bytes and identical ``ReadStats`` /
``WriteResult`` trip counters on healthy clusters (the equivalence property
in ``tests/test_async_store.py`` asserts this across random histories);
the only intentional divergence is the degraded-write reconciliation trip,
which can only occur with ``page_replication > 1`` and a mid-write replica
failure.  In both, an operation yields only where it waits for a backend:
the metadata descent (``_walk``) is cache-first, so a READ the caches
serve completes without suspending (DESIGN.md §8).

Each leg of the protocol has ONE implementation here: every WRITE and
APPEND — aligned or unaligned — runs the single ``_update`` pipeline
(Algorithm 2: store pages, get a version, weave metadata, notify), every
tree walk — READ, boundary read, border resolution — goes through
``_walk``, every page fetch through ``_fetch_pages``, and the runtime is
the only execution strategy — the version manager's update calls included
(``runtime.vm_call``), so the simulator's
:class:`~repro.sim.runtime.SimRuntime` can put them on its clock.

Everything the sync client's docstring says about frontier-parallel
metadata I/O, provider-parallel data I/O, shared caches and version leases
(see :mod:`repro.core.blob_store`) applies unchanged — same planners, same
components, same accounting.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from ..aio import SYNC_RUNTIME, AsyncRuntime, Handle, IORuntime, run_sync
from ..cache import CacheStats, CacheTally, NodeCache, PageCache
from ..errors import InvalidRangeError, StoreClosedError, UpdateAbortedError
from ..metadata.build import BorderSpec, BorderWalker, border_targets, build_nodes
from ..metadata.geometry import pages_for_size, span_for_pages, validate_node_range
from ..metadata.node import LeafNode, NodeKey, NodeRef, PageDescriptor, TreeNode
from ..metadata.read_plan import (
    FrontierWalker,
    Reachable,
    ReachWalker,
    ReadPlanResult,
    plan_walker,
)
from ..obs.trace import span
from ..providers.provider_manager import FaultTally
from ..util.ranges import covering_page_range, is_aligned
from ..version.records import BlobRecord, UpdateTicket, resolve_owner
from ..vm import LeaseCache
from .cluster import Cluster


#: The root "span" of every untraced operation: one shared no-op context.
_UNTRACED = nullcontext()


def _immutable(data) -> bytes | memoryview:
    """An update's buffer as bytes no caller can change: an exact ``bytes``
    (or a contiguous view over one) as it is, any other buffer copied once."""
    if type(data) is bytes:
        return data
    if isinstance(data, memoryview) and type(data.obj) is bytes and data.c_contiguous:
        return data.cast("B")
    return bytes(data)


def _window(data: bytes | memoryview, start: int, stop: int) -> bytes | memoryview:
    """Bytes ``[start, stop)`` of an immutable update buffer without a copy:
    the buffer itself when that is all of it, else a view of it."""
    if start == 0 and stop == len(data):
        return data
    return memoryview(data)[start:stop]


@dataclass(frozen=True)
class WriteResult:
    """Detailed outcome of a WRITE/APPEND (``*_ex`` variants)."""

    #: Snapshot version this update was assigned (published after SYNC).
    version: int
    #: Payload bytes the caller handed in.
    bytes_written: int
    #: Individual pages stored (each replicated ``page_replication`` ways).
    pages_written: int
    #: New tree nodes published for this snapshot's metadata.
    metadata_nodes_written: int
    #: Border nodes that actually travelled from the DHT during border
    #: resolution; nodes served by the shared cache are counted in
    #: ``metadata_cache_hits`` instead.
    border_nodes_fetched: int
    #: Batched metadata round trips: one per level of the border walk that
    #: had at least one cache miss, plus one for the batched publish of the new
    #: tree nodes.  A fully cached border resolution costs just the publish.
    #: (An event-loop write that had to reconcile a degraded page adds one
    #: more for the leaf re-put.)
    metadata_round_trips: int = 0
    #: Batched data round trips: one multi-page store per provider touched
    #: (plus one multi-page fetch per provider supplying boundary bytes for
    #: an unaligned write) — compare ``pages_written``, which counts
    #: individual pages and is unchanged by batching.
    data_round_trips: int = 0
    #: Border-node lookups served by the shared metadata cache.
    metadata_cache_hits: int = 0
    #: Boundary page ranges served by the shared page cache (unaligned
    #: writes fetch boundary bytes; aligned writes never fetch pages).
    page_cache_hits: int = 0
    #: Version-manager round trips this update issued: ticket registration,
    #: the completion notice, plus any record/recency/size lookups the
    #: shared lease cache could not serve.
    vm_round_trips: int = 0


@dataclass(frozen=True)
class ReadStats:
    """Detailed outcome of a READ (``read_ex`` / ``read_into``)."""

    #: Snapshot version the bytes came from.
    version: int
    #: Bytes returned (exactly the requested size).
    bytes_read: int
    #: Individual page ranges the plan resolved to, however served.
    pages_fetched: int
    #: Tree nodes that actually travelled from the DHT; lookups served by
    #: the shared cache are counted in ``metadata_cache_hits`` instead, so
    #: a warm repeated read reports ~0 here.
    metadata_nodes_fetched: int
    #: Batched metadata round trips of the tree traversal: one per frontier
    #: with at least one cache miss, i.e. at most O(log pages) — and zero
    #: for a fully cached traversal.  Compare ``metadata_nodes_fetched``,
    #: which counts individual nodes and is unchanged by batching.  The
    #: pipelined event-loop traversal preserves the count: its per-bucket
    #: fetch tasks of one tree level still constitute one logical round.
    metadata_round_trips: int = 0
    #: Batched data round trips: one multi-page fetch per provider touched,
    #: i.e. O(providers), not O(pages) — compare ``pages_fetched``, which
    #: counts individual pages and is unchanged by batching.
    data_round_trips: int = 0
    #: Tree-node lookups served by the shared metadata cache.
    metadata_cache_hits: int = 0
    #: Page ranges served by the shared page cache — a warm repeated read
    #: reports every page here and ``data_round_trips == 0``.
    page_cache_hits: int = 0
    #: Version-manager round trips this read issued: 0 when the blob record
    #: and the snapshot's published size were served by the shared lease
    #: cache (the warm repeated-read regime), up to 2 cold (record +
    #: combined publication check) — the read path never blocks on the VM's
    #: global order beyond these lookups.
    vm_round_trips: int = 0
    #: Page requests re-routed to another replica because a provider batch
    #: failed (dead provider, missing page, short read) — the read-path
    #: fault-tolerance counter (see :mod:`repro.fault` and DESIGN.md).
    failovers: int = 0
    #: Page requests ultimately served by a NON-primary replica.  A
    #: non-zero value means the read ran *degraded*: correct bytes, reduced
    #: redundancy behind them — callers can alert or trigger a repair pass.
    degraded: int = 0
    #: Speculatively prefetched metadata nodes this read actually consumed:
    #: the pipelined descent predicted them as level-N+1 children of a
    #: missed ref BEFORE the parent resolved, and the authoritative parent
    #: then confirmed the prediction (DESIGN.md §9).  Consumed predictions
    #: still count in ``metadata_nodes_fetched`` — they did travel from the
    #: DHT — so speculation never changes that counter, only when the
    #: fetch was issued.  Always 0 with ``speculative_prefetch`` off, under
    #: the sync runtime, and on warm reads (no misses, nothing to predict).
    speculative_hits: int = 0
    #: Speculative predictions this read issued but never consumed — wrong
    #: version guesses and predictions the authoritative parent pruned.
    #: Wasted lookups cost idle DHT capacity, never correctness: they are
    #: miss-tolerant, never enter the node cache, and are drained before
    #: the read returns.  This is the ONLY counter speculation may change.
    speculative_wasted: int = 0


@dataclass
class _PendingStore:
    """An in-flight batched page store plus its optimistic descriptors.

    ``planned`` records the replica sets the allocator CHOSE; the handle
    resolves to the descriptors of the replicas that actually STORED each
    page (plus the store's batch count).  Under ``SyncRuntime`` the handle
    is always already done, so the two never diverge observably; under the
    event loop the gap is what lets the metadata publish overlap the store.
    """

    handle: Handle
    planned: list[PageDescriptor]


@dataclass
class _Speculation:
    """Per-read state of the speculative frontier prefetch (DESIGN.md §9).

    ``tasks`` maps each predicted :class:`NodeKey` to the in-flight
    miss-tolerant multi-get that covers it (one handle serves a whole
    prediction batch; ``slot`` is the key's position in it).  ``seen``
    dedupes — a key is predicted at most once per read, bounding waste.
    ``handles`` keeps every issued handle so leftovers can be drained
    before the read returns (an abandoned task would leak a pending
    coroutine into the loop).
    """

    hits: int = 0
    predicted: int = 0
    tasks: dict[NodeKey, tuple[Handle, int]] = field(default_factory=dict)
    seen: set[NodeKey] = field(default_factory=set)
    handles: list[Handle] = field(default_factory=list)

    @property
    def wasted(self) -> int:
        return self.predicted - self.hits


class AsyncBlobStore:
    """Awaitable client front-end to a BlobSeer :class:`Cluster`.

    Accepts the same caching/leasing knobs as the sync
    :class:`~repro.core.blob_store.BlobStore` (see its docstring for the
    full parameter discussion), plus:

    runtime:
        The :class:`~repro.aio.IORuntime` executing the store's batched
        I/O.  Defaults to :class:`~repro.aio.AsyncRuntime` (event-loop
        mode: pipelined reads, overlapped writes, loop-parked SYNC).  The
        sync bridge injects a :class:`~repro.aio.SyncRuntime` instead.

    Use as an async context manager (``async with AsyncBlobStore(c) as s:``)
    or call :meth:`aclose` explicitly; a closed store raises
    :class:`~repro.errors.StoreClosedError` on further operations.
    """

    def __init__(
        self,
        cluster: Cluster,
        cache_metadata: bool = True,
        node_cache: NodeCache | None = None,
        cache_pages: bool = True,
        page_cache: PageCache | None = None,
        lease_versions: bool = True,
        version_leases: LeaseCache | None = None,
        runtime: IORuntime | None = None,
    ):
        self._cluster = cluster
        self._vm = cluster.version_manager
        self._pm = cluster.provider_manager
        self._meta = cluster.metadata_provider
        self._runtime: IORuntime = runtime if runtime is not None else AsyncRuntime()
        self._closed = False
        # What StoreClosedError names; the sync bridge overrides this so a
        # closed BlobStore reports itself, not its engine.
        self._display_name = type(self).__name__
        self._cache: NodeCache | None = (
            (node_cache if node_cache is not None else cluster.node_cache)
            if cache_metadata
            else None
        )
        if self._cache is not None:
            # GC invalidation must reach override caches too, not just the
            # cluster's shared one.
            cluster.register_node_cache(self._cache)
        self._page_cache: PageCache | None = (
            (page_cache if page_cache is not None else cluster.page_cache)
            if cache_pages
            else None
        )
        if self._page_cache is not None:
            cluster.register_page_cache(self._page_cache)
        self._lease: LeaseCache | None = (
            (version_leases if version_leases is not None else cluster.version_leases)
            if lease_versions
            else None
        )

    # ----------------------------------------------------------- observability
    def _trace_root(self, name: str, **attrs):
        """A root-span context on a traced cluster, the shared no-op
        :data:`_UNTRACED` (yielding None) otherwise — the only
        per-operation cost of disabled tracing."""
        tracer = self._cluster.tracer
        if tracer is None:
            return _UNTRACED
        return tracer.trace(name, **attrs)

    def _publish_op_metrics(self, op: str, stats, root) -> None:
        """Feed one operation's result struct into the metrics registry."""
        metrics = self._cluster.metrics
        if metrics is None:
            return
        labels = {"cluster": self._cluster.cache_namespace}
        prefix = f"repro.{op}"
        metrics.inc(f"{prefix}.ops", 1, labels)
        metrics.count_fields(prefix, stats, labels, skip=("version",))
        metrics.observe(f"{prefix}.latency_seconds", root.duration, labels)

    # --------------------------------------------------------------- lifecycle
    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError(self._display_name)

    def close(self) -> None:
        """Release the store (idempotent); further operations raise
        :class:`~repro.errors.StoreClosedError`.  The shared caches and the
        cluster stay untouched — other stores keep using them."""
        self._closed = True

    async def aclose(self) -> None:
        """Awaitable :meth:`close` (idempotent)."""
        self.close()

    async def __aenter__(self) -> "AsyncBlobStore":
        self._ensure_open()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ CREATE
    async def create(self, page_size: int | None = None) -> str:
        """CREATE: make a new blob with an empty, published snapshot 0."""
        self._ensure_open()
        return self._vm.create_blob(page_size).blob_id

    # ------------------------------------------------------------------- WRITE
    async def write(self, blob_id: str, data: bytes, offset: int) -> int:
        """WRITE: replace ``len(data)`` bytes at ``offset``; return the new
        snapshot version (which may not be published yet — use SYNC).

        Thin wrapper over the canonical :meth:`write_ex`.
        """
        return (await self.write_ex(blob_id, data, offset)).version

    async def write_ex(self, blob_id: str, data: bytes, offset: int) -> WriteResult:
        with self._trace_root(
            "write", blob_id=blob_id, offset=offset, nbytes=len(data)
        ) as root:
            result = await self._update(blob_id, data, offset, is_append=False)
        if root is not None:
            self._publish_op_metrics("write", result, root)
        return result

    # ------------------------------------------------------------------ APPEND
    async def append(self, blob_id: str, data: bytes) -> int:
        """APPEND: WRITE at the end of the previous snapshot; the offset is
        chosen by the version manager.

        Thin wrapper over the canonical :meth:`append_ex`.
        """
        return (await self.append_ex(blob_id, data)).version

    async def append_ex(self, blob_id: str, data: bytes) -> WriteResult:
        with self._trace_root("append", blob_id=blob_id, nbytes=len(data)) as root:
            result = await self._update(blob_id, data, None, is_append=True)
        if root is not None:
            self._publish_op_metrics("write", result, root)
        return result

    # ------------------------------------------------------ the update pipeline
    async def _update(
        self, blob_id: str, data: bytes, offset: int | None, is_append: bool
    ) -> WriteResult:
        """The one update pipeline (Algorithm 2): WRITE at ``offset``, or
        APPEND (``offset`` None — the version manager chooses it).

        Every kind stores pages, gets a version, weaves its metadata and
        notifies the version manager; the kinds differ only in what must be
        known before the pages can be composed:

        * an aligned WRITE reads no old bytes, so its page stores START
          before the version is assigned — exactly Algorithm 2's order (and
          complete before it under the sync runtime) — and it never waits;
        * every other kind registers first (an APPEND learns its offset
          from the ticket), resolves the snapshot that supplies the bytes
          of partly covered boundary pages (:meth:`_reference_snapshot`),
          composes the page payloads, then stores them.
        """
        self._ensure_open()
        data = _immutable(data)
        kind = "append" if is_append else "write"
        if not is_append and offset < 0:
            raise InvalidRangeError(f"negative write offset: {offset}")
        if not data:
            raise InvalidRangeError(f"{kind.upper()} requires a non-empty buffer")
        with span("write.vm"):
            record, vm_trips = await self._get_record(blob_id)
        page_size = record.page_size
        pending: _PendingStore | None = None
        if not is_append and is_aligned(offset, len(data), page_size):
            first_page = offset // page_size
            pending = self._start_page_stores(
                [
                    (first_page + index, _window(data, start, start + page_size))
                    for index, start in enumerate(range(0, len(data), page_size))
                ]
            )
        try:
            with span("write.vm"):
                ticket = await self._runtime.vm_call(
                    self._vm, "register_update",
                    record.blob_id, len(data), offset=offset, is_append=is_append,
                )
        except Exception:
            if pending is not None:
                await self._reap(pending.handle)
                self._discard_pages(pending.planned)
            raise
        vm_trips += 1  # the ticket registration
        boundary_trips = page_cache_hits = 0
        try:
            if pending is None:
                reference, reference_trips = await self._reference_snapshot(
                    record, ticket, is_append
                )
                page_tally = CacheTally()
                payloads, boundary_trips, size_trips = (
                    await self._compose_page_payloads(
                        record, ticket, data, reference, page_tally
                    )
                )
                vm_trips += reference_trips + size_trips
                page_cache_hits = page_tally.hits
                pending = self._start_page_stores(payloads)
            return await self._finish_update(
                record, ticket, pending, data_round_trips=boundary_trips,
                vm_round_trips=vm_trips, page_cache_hits=page_cache_hits,
            )
        except Exception:
            await self._runtime.vm_call(
                self._vm, "abort_update",
                record.blob_id, ticket.version, f"{kind} failed",
            )
            raise

    async def _reference_snapshot(
        self, record: BlobRecord, ticket: UpdateTicket, is_append: bool
    ) -> tuple[int, int]:
        """Which snapshot supplies the old bytes of the boundary pages an
        update only partly covers: ``(version, vm_round_trips)``; version 0
        is the empty snapshot.

        Snapshot v is snapshot v-1 with the written range replaced, so an
        update that keeps old bytes in a boundary page — every unaligned
        WRITE (an aligned one never gets here), and any APPEND that starts
        inside the previous snapshot's tail page — waits (SYNC) for its
        nearest **non-aborted** predecessor and completes the page from
        exactly that.  An aborted predecessor is a hole whose bytes never
        become readable, so the walk steps over it to the version before —
        which may itself still be in flight, and is waited for like any
        other (DESIGN.md §6).  An APPEND that starts on a page boundary
        keeps no old bytes and takes the most recently published snapshot
        without waiting.
        """
        if is_append and ticket.byte_offset % record.page_size == 0:
            return await self._recent(record.blob_id)
        reference = ticket.version - 1
        vm_trips = 0
        while reference > 0:
            vm_trips += 1
            try:
                with span("write.vm.sync", version=reference):
                    await self._runtime.vm_sync(self._vm, record.blob_id, reference)
                break
            except UpdateAbortedError:
                reference -= 1
        return reference, vm_trips

    # -------------------------------------------------------------------- READ
    async def read(self, blob_id: str, version: int, offset: int, size: int) -> bytes:
        """READ: return ``size`` bytes at ``offset`` from snapshot ``version``.

        Fails when the version is not published or the range exceeds the
        snapshot size (paper, Section 2.1).  Thin wrapper over the
        canonical :meth:`read_ex`.
        """
        data, _stats = await self.read_ex(blob_id, version, offset, size)
        return data

    async def read_ex(
        self, blob_id: str, version: int, offset: int, size: int
    ) -> tuple[bytes, ReadStats]:
        """READ returning its :class:`ReadStats` too.  The result is
        assembled once, by joining the immutable page payloads; a read of
        exactly one cached range returns the cached object itself."""
        with self._trace_root(
            "read", blob_id=blob_id, version=version, offset=offset, size=size
        ) as root:
            parts, stats = await self._read_parts(blob_id, version, offset, size)
            data = b"".join(parts)
        if root is not None:
            self._publish_op_metrics("read", stats, root)
        return data, stats

    async def read_into(
        self, blob_id: str, version: int, offset: int, out
    ) -> ReadStats:
        """READ into a caller-owned buffer, the paper's
        ``READ(id, v, buffer, offset, size)`` with ``size = len(out)``.

        ``out`` is any writable buffer-protocol object (``bytearray``,
        ``memoryview``, ``array``, ``mmap``); each page payload is copied
        into it once.  A read-only buffer raises :class:`TypeError` before
        any I/O.  The returned stats equal :meth:`read_ex`'s for the same
        cache state.
        """
        with memoryview(out) as raw, raw.cast("B") as view:
            if view.readonly:
                raise TypeError("read_into needs a writable buffer")
            size = view.nbytes
            with self._trace_root(
                "read", blob_id=blob_id, version=version, offset=offset, size=size
            ) as root:
                parts, stats = await self._read_parts(blob_id, version, offset, size)
                position = 0
                for part in parts:
                    end = position + len(part)
                    view[position:end] = part
                    position = end
        if root is not None:
            self._publish_op_metrics("read", stats, root)
        return stats

    async def _read_parts(
        self, blob_id: str, version: int, offset: int, size: int
    ) -> tuple[list[bytes], ReadStats]:
        """The READ itself: the payloads that make up ``[offset, offset +
        size)`` in order, plus the stats.  Callers assemble them once."""
        self._ensure_open()
        if offset < 0 or size < 0:
            raise InvalidRangeError(f"negative read offset/size ({offset}, {size})")
        with span("read.vm"):
            record, vm_trips = await self._get_record(blob_id)
            snapshot_size, check_trips = await self._published_size(blob_id, version)
        vm_trips += check_trips
        if offset + size > snapshot_size:
            raise InvalidRangeError(
                f"read range ({offset}, {size}) exceeds snapshot {version} "
                f"size {snapshot_size}"
            )
        if size == 0:
            return [], ReadStats(version, 0, 0, 0, 0, vm_round_trips=vm_trips)

        page_size = record.page_size
        page_offset, page_count = covering_page_range(offset, size, page_size)
        tree_span = span_for_pages(pages_for_size(snapshot_size, page_size))
        tally = CacheTally()
        # Speculation needs the pipelined descent (one batch per level has
        # nothing to overlap) and is opt-in; the gate leaves the default
        # read path intact.
        spec = (
            _Speculation()
            if self._cluster.config.feature_enabled("speculative_prefetch")
            and self._runtime.pipelined
            else None
        )
        with span("read.meta"):
            plan_result = await self._resolve_ranges(
                record, version, tree_span, [(page_offset, page_count)], tally,
                spec=spec,
            )

        descriptors = plan_result.sorted_descriptors()
        page_tally = CacheTally()
        fault_tally = FaultTally()
        with span("read.data", pages=len(descriptors)):
            (parts,), data_trips = await self._fetch_pages(
                record, descriptors, [(offset, size)], page_tally, fault_tally
            )
        stats = ReadStats(
            version=version,
            bytes_read=size,
            pages_fetched=len(descriptors),
            metadata_nodes_fetched=tally.fetched,
            metadata_round_trips=tally.trips,
            data_round_trips=data_trips,
            metadata_cache_hits=tally.hits,
            page_cache_hits=page_tally.hits,
            vm_round_trips=vm_trips,
            failovers=fault_tally.failovers,
            degraded=fault_tally.degraded,
            speculative_hits=spec.hits if spec is not None else 0,
            speculative_wasted=spec.wasted if spec is not None else 0,
        )
        return parts, stats

    async def read_recent(
        self, blob_id: str, offset: int, size: int
    ) -> tuple[int, bytes]:
        """Convenience: READ from the most recently published snapshot."""
        version = await self.get_recent(blob_id)
        return version, await self.read(blob_id, version, offset, size)

    # ------------------------------------------------------- version primitives
    async def get_recent(self, blob_id: str) -> int:
        """GET_RECENT: a recently published snapshot version.

        Served from the shared version lease when one is fresh — publish
        notifications renew leases synchronously, so the answer equals what
        the version manager itself would return.
        """
        self._ensure_open()
        version, _trips = await self._recent(blob_id)
        return version

    async def get_size(self, blob_id: str, version: int) -> int:
        """GET_SIZE: size in bytes of a published snapshot.

        A published snapshot's size is immutable, so the answer is served
        from the lease cache's fact map once known.
        """
        self._ensure_open()
        size, _trips = await self._published_size(blob_id, version)
        return size

    async def sync(
        self, blob_id: str, version: int, timeout: float | None = None
    ) -> None:
        """SYNC: wait until ``version`` is published ("read your writes").

        The version manager wakes the wait when the version is published
        or aborted; under the event-loop runtime it parks on the loop, not
        on a thread.
        """
        self._ensure_open()
        await self._runtime.vm_sync(self._vm, blob_id, version, timeout)

    async def branch(self, blob_id: str, version: int) -> str:
        """BRANCH: virtually duplicate the blob up to ``version``; return the
        new blob id."""
        self._ensure_open()
        return self._vm.branch(blob_id, version).blob_id

    # ------------------------------------------------------------ version leases
    # Every lookup a lease cannot serve is a ``runtime.vm_call``, so the
    # simulated clock charges it; a lease hit never suspends.
    async def _get_record(self, blob_id: str) -> tuple[BlobRecord, int]:
        """The blob's immutable record, via the lease cache's fact map:
        ``(record, vm_round_trips)``."""
        if self._lease is not None:
            return await self._lease.record(blob_id, self._runtime)
        return await self._runtime.vm_call(self._vm, "get_record", blob_id), 1

    async def _published_size(self, blob_id: str, version: int) -> tuple[int, int]:
        """Size of a published snapshot (raises
        :class:`~repro.errors.VersionNotPublishedError` otherwise):
        ``(size, vm_round_trips)``.  One combined ``check_read`` trip cold,
        zero once the immutable fact is cached."""
        if self._lease is not None:
            return await self._lease.published_size(blob_id, version, self._runtime)
        size = await self._runtime.vm_call(self._vm, "check_read", blob_id, version)
        return size, 1

    async def _recent(self, blob_id: str) -> tuple[int, int]:
        """Leased GET_RECENT: ``(version, vm_round_trips)``."""
        if self._lease is not None:
            return await self._lease.recent(blob_id, self._runtime)
        return await self._runtime.vm_call(self._vm, "get_recent", blob_id), 1

    # ---------------------------------------------------------------- internals
    async def _compose_page_payloads(
        self,
        record: BlobRecord,
        ticket: UpdateTicket,
        data: bytes,
        reference_version: int,
        page_tally: CacheTally | None = None,
    ) -> tuple[list[tuple[int, bytes]], int, int]:
        """Split ``data`` into per-page payloads, merging boundary pages with
        the content of snapshot ``reference_version`` (see
        :meth:`_reference_snapshot`) where the update is not page-aligned.

        Only the first page can need an old prefix and only the last page an
        old suffix; both are resolved with ONE combined metadata traversal
        (:meth:`_resolve_ranges` over both page ranges) instead of
        one full READ — each a complete tree walk — per boundary page, and
        the boundary bytes of both ranges come back in one provider-grouped
        batch of page fetches.

        Only a boundary page that keeps old bytes is copied; every other
        page is a view of ``data``.  Returns ``(page_index, payload)``
        pairs covering the ticket's page range exactly, plus the number of
        batched data round trips the boundary fetches cost, plus the
        version-manager round trips the reference snapshot's size lookup
        cost (zero when the shared lease cache served it).
        """
        page_size = record.page_size
        offset = ticket.byte_offset
        size = ticket.byte_size
        first_page = ticket.page_offset
        last_page = first_page + ticket.page_count - 1

        # Content outside the written range but inside the reference
        # snapshot must be preserved.
        reference_size = vm_trips = 0
        if reference_version > 0:
            reference_size, vm_trips = await self._published_size(
                record.blob_id, reference_version
            )

        # Old bytes [first_page_start, offset) and [offset + size, last_page_end),
        # both capped at the reference snapshot's size.
        first_start = first_page * page_size
        last_end = (last_page + 1) * page_size
        write_end = offset + size
        prefix_range: tuple[int, int] | None = None
        if offset > first_start and min(offset, reference_size) > first_start:
            prefix_range = (first_start, min(offset, reference_size) - first_start)
        suffix_range: tuple[int, int] | None = None
        if write_end < last_end and min(reference_size, last_end) > write_end:
            suffix_range = (write_end, min(reference_size, last_end) - write_end)
        wanted = [r for r in (prefix_range, suffix_range) if r is not None]
        chunks, boundary_trips = await self._read_byte_ranges(
            record, reference_version, reference_size, wanted, page_tally
        )
        by_range = dict(zip(wanted, chunks))

        payloads: list[tuple[int, bytes]] = []
        for page_index in range(first_page, last_page + 1):
            page_start = page_index * page_size
            page_end = page_start + page_size
            write_start = max(offset, page_start)
            write_stop = min(write_end, page_end)
            payload = _window(data, write_start - offset, write_stop - offset)
            prefix = b""
            suffix = b""
            if write_start > page_start:
                # Bytes [page_start, write_start) must come from old content.
                if prefix_range is not None:
                    prefix = by_range[prefix_range]
                prefix = prefix.ljust(write_start - page_start, b"\x00")
            if write_stop < page_end and suffix_range is not None:
                # Preserve old bytes between the end of the write and the end
                # of the previous snapshot (capped at the page boundary).
                suffix = by_range[suffix_range]
            if prefix or suffix:
                payload = b"".join((prefix, payload, suffix))
            payloads.append((page_index, payload))
        return payloads, boundary_trips, vm_trips

    async def _read_byte_ranges(
        self,
        record: BlobRecord,
        version: int,
        snapshot_size: int,
        byte_ranges: list[tuple[int, int]],
        page_tally: CacheTally | None = None,
    ) -> tuple[list[bytes], int]:
        """Read several small byte ranges of a published snapshot with one
        combined metadata traversal and one provider-grouped batch of page
        fetches covering ALL of the ranges; returns ``(chunks, data_trips)``.
        Cached page ranges are served from the shared page cache and skip
        the batch entirely (tallied into ``page_tally``).
        """
        if not byte_ranges:
            return [], 0
        page_size = record.page_size
        page_ranges = [
            covering_page_range(byte_offset, byte_size, page_size)
            for byte_offset, byte_size in byte_ranges
        ]
        span = span_for_pages(pages_for_size(snapshot_size, page_size))
        # Write-path border reads: no speculation — border resolution is
        # tiny (two boundary paths) and must stay identical across runtimes
        # and toggles.
        plan_result = await self._resolve_ranges(record, version, span, page_ranges)
        parts, data_trips = await self._fetch_pages(
            record, plan_result.sorted_descriptors(), byte_ranges, page_tally
        )
        return [b"".join(window) for window in parts], data_trips

    # ------------------------------------------------------------- page stores
    def _start_page_stores(self, payloads: list[tuple[int, bytes]]) -> _PendingStore:
        """Allocate replica sets and page ids, then START the batched store
        — ONE multi-store per provider touched (paper's ``PD`` set).

        Allocation happens here, synchronously, so the optimistic leaf
        descriptors exist before a single byte moves; under the event loop
        the returned handle's store overlaps the caller's border resolution
        and metadata publish, under the sync runtime it has already
        completed (and already raised on failure) when this returns.

        With ``page_replication > 1`` each page fans out to that many
        distinct providers; the final descriptors record the replicas that
        actually stored it (a dead replica degrades redundancy without
        failing the write — the repair service tops it back up).  A page
        landing on NO replica fails the whole store *after* the live
        providers' batches completed, and the pages that did land are
        garbage-collected before the error propagates.
        """
        replication = self._cluster.config.page_replication
        replica_sets = self._pm.allocate_replicas(len(payloads), replication)
        items: list[tuple[tuple[str, ...], str, bytes]] = []
        planned: list[PageDescriptor] = []
        for (page_index, payload), replicas in zip(payloads, replica_sets):
            page_id = self._cluster._ids.next_page_id()
            items.append((replicas, page_id, payload))
            planned.append(
                PageDescriptor(
                    page_index=page_index,
                    page_id=page_id,
                    provider_id=replicas[0],
                    length=len(payload),
                    provider_ids=replicas,
                )
            )
        handle = self._runtime.start(self._execute_page_stores(items, planned))
        return _PendingStore(handle=handle, planned=planned)

    async def _execute_page_stores(
        self,
        items: list[tuple[tuple[str, ...], str, bytes]],
        planned: list[PageDescriptor],
    ) -> tuple[list[PageDescriptor], int]:
        try:
            with span("write.store", pages=len(items)):
                landed, store_trips = await self._pm.multi_store_replicated_async(
                    items, self._runtime
                )
        except Exception:
            self._discard_pages(planned)
            raise
        descriptors = [
            PageDescriptor(
                page_index=descriptor.page_index,
                page_id=descriptor.page_id,
                provider_id=stored[0],
                length=descriptor.length,
                provider_ids=stored,
            )
            for descriptor, stored in zip(planned, landed)
        ]
        return descriptors, store_trips

    @staticmethod
    async def _reap(handle: Handle) -> None:
        """Settle an in-flight handle whose outcome no longer matters (a
        failure elsewhere already decides the operation's fate); its pages
        were garbage-collected by the store task itself on failure."""
        try:
            await handle.result()
        except Exception:  # noqa: BLE001 - reaped error must not mask the real one
            pass

    def _discard_pages(self, descriptors: list[PageDescriptor]) -> None:
        """Best-effort garbage collection of pages of a failed update —
        every replica of every page."""
        for descriptor in descriptors:
            for provider_id in descriptor.provider_ids:
                try:
                    self._pm.provider(provider_id).delete_page(
                        descriptor.page_id
                    )
                except Exception:  # noqa: BLE001 - GC must never mask the real error
                    continue

    # ----------------------------------------------------------------- publish
    async def _finish_update(
        self,
        record: BlobRecord,
        ticket: UpdateTicket,
        pending: _PendingStore,
        data_round_trips: int = 0,
        vm_round_trips: int = 0,
        page_cache_hits: int = 0,
    ) -> WriteResult:
        """Resolve border nodes, build and store the new metadata tree, then
        notify the version manager (Algorithm 2, lines 10-13).

        Border resolution always proceeds while the page stores are in
        flight.  If the store has settled by then (always true under the
        sync runtime), the tree is built from the descriptors of the
        replicas that actually stored each page — the exact legacy path.
        Otherwise the publish is *optimistic*: leaves are built from the
        allocated replica sets and ``put_nodes`` overlaps the remaining
        store; once the store settles, any page that landed on fewer
        replicas than allocated gets its leaf re-put (one extra metadata
        round trip) before the completion notice — re-puts are safe because
        nothing can read the version before it is published.
        """
        needed, dangling = border_targets(
            ticket.page_offset, ticket.page_count, ticket.span, ticket.prev_num_pages
        )
        tally = CacheTally()
        try:
            with span("write.borders"):
                spec = await self._resolve_borders(
                    record, ticket, needed, dangling, tally
                )
        except Exception:
            await self._reap(pending.handle)
            raise
        publish_trips = 1  # the batched publish itself

        def build_items(
            descriptors: list[PageDescriptor],
        ) -> list[tuple[NodeKey, TreeNode]]:
            build = build_nodes(
                ticket.version,
                ticket.page_offset,
                ticket.page_count,
                ticket.span,
                descriptors,
                spec,
            )
            return [
                (NodeKey(record.blob_id, ref.version, ref.offset, ref.size), node)
                for ref, node in build.nodes
            ]

        if pending.handle.done():
            descriptors, store_trips = await pending.handle.result()
            items = build_items(descriptors)
            with span("write.publish", nodes=len(items)):
                await self._meta.put_nodes_async(items, self._runtime)
        else:
            items = build_items(pending.planned)

            async def overlapped_publish(
                publish_items: list[tuple[NodeKey, TreeNode]],
            ) -> None:
                with span("write.publish", nodes=len(publish_items),
                          overlapped=True):
                    await self._meta.put_nodes_async(publish_items, self._runtime)

            publish = self._runtime.start(overlapped_publish(items))
            try:
                descriptors, store_trips = await pending.handle.result()
            except Exception:
                await self._reap(publish)
                raise
            await publish.result()
            fixups = self._degraded_fixups(items, pending.planned, descriptors)
            if fixups:
                with span("write.publish.fixup", nodes=len(fixups)):
                    await self._meta.put_nodes_async(
                        [(key, node) for _index, key, node in fixups],
                        self._runtime,
                    )
                publish_trips += 1
                for index, key, node in fixups:
                    items[index] = (key, node)
        # Write-through: published nodes are immutable from this moment on,
        # so caching them at publish time makes the writer's own subsequent
        # reads (and every other store on this cluster) warm.
        self._cache_put_items(items)
        await self._runtime.vm_call(
            self._vm, "complete_update", record.blob_id, ticket.version
        )
        return WriteResult(
            version=ticket.version,
            bytes_written=ticket.byte_size,
            pages_written=len(descriptors),
            metadata_nodes_written=len(items),
            border_nodes_fetched=tally.fetched,
            metadata_round_trips=tally.trips + publish_trips,
            data_round_trips=data_round_trips + store_trips,
            metadata_cache_hits=tally.hits,
            page_cache_hits=page_cache_hits,
            vm_round_trips=vm_round_trips + 1,  # + the completion notice
        )

    @staticmethod
    def _degraded_fixups(
        items: list[tuple[NodeKey, TreeNode]],
        planned: list[PageDescriptor],
        actual: list[PageDescriptor],
    ) -> list[tuple[int, NodeKey, LeafNode]]:
        """Leaf corrections for pages whose landed replica set differs from
        the allocated one an optimistic publish already wrote."""
        changed: dict[str, PageDescriptor] = {
            landed.page_id: landed
            for chosen, landed in zip(planned, actual)
            if chosen.provider_ids != landed.provider_ids
        }
        if not changed:
            return []
        fixups: list[tuple[int, NodeKey, LeafNode]] = []
        for index, (key, node) in enumerate(items):
            if isinstance(node, LeafNode) and node.page_id in changed:
                landed = changed[node.page_id]
                fixups.append(
                    (
                        index,
                        key,
                        LeafNode(
                            page_id=node.page_id,
                            provider_id=landed.provider_id,
                            length=node.length,
                            provider_ids=landed.provider_ids,
                        ),
                    )
                )
        return fixups

    async def _resolve_borders(
        self,
        record: BlobRecord,
        ticket: UpdateTicket,
        needed: list[tuple[int, int]],
        dangling: list[tuple[int, int]],
        tally: CacheTally | None = None,
    ) -> BorderSpec:
        """Resolve the update's border versions (Algorithm 4) by the same
        cache-first descent as READ, over the last published tree."""
        walker = BorderWalker(
            needed,
            dangling,
            ticket.published_version if ticket.published_version else None,
            ticket.published_num_pages,
            ticket.inflight_tuples(),
        )
        return await self._walk(record, walker, tally, None)

    # --------------------------------------------------------- metadata reads
    @staticmethod
    def _node_keys(record: BlobRecord, refs: list[NodeRef]) -> list[NodeKey]:
        """The DHT identities of ``refs``, branch lineage resolved.  Built
        only for nodes that travel; cache traffic keys through
        :meth:`Cluster.node_cache_key` straight from the ref."""
        return [
            NodeKey(
                resolve_owner(record, ref.version), ref.version, ref.offset, ref.size
            )
            for ref in refs
        ]

    async def _resolve_ranges(
        self,
        record: BlobRecord,
        version: int,
        span: int,
        page_ranges: list[tuple[int, int]],
        tally: CacheTally | None = None,
        spec: _Speculation | None = None,
    ) -> ReadPlanResult:
        """Walk snapshot ``version``'s tree down to the leaves of
        ``page_ranges``: the one metadata descent (:meth:`_walk`) behind
        READ and the boundary reads of unaligned updates, on every runtime."""
        return await self._walk(
            record, plan_walker(version, span, page_ranges), tally, spec
        )

    async def _walk(
        self,
        record: BlobRecord,
        walker: FrontierWalker | BorderWalker | ReachWalker,
        tally: CacheTally | None,
        spec: _Speculation | None,
    ) -> ReadPlanResult | BorderSpec | Reachable:
        """Drive ``walker`` — a READ's or boundary read's
        :class:`~repro.metadata.read_plan.FrontierWalker`, an update's
        :class:`~repro.metadata.build.BorderWalker` or a tool's
        :class:`~repro.metadata.read_plan.ReachWalker` — to the end of its
        descent and return its ``result``, cache first (DESIGN.md §8): each
        frontier is split against the node cache, every hit is expanded on
        the spot and the walk steps down WITHOUT awaiting anything — a
        descent the caches serve completes inside its caller's turn of the
        loop.  Only a level with misses waits, and only for the I/O it
        needs:

        * ``runtime.pipelined`` false: ONE ``get_nodes_async`` batch for
          the level, then expansion in frontier order — the sync bridge's
          counters and LRU order, bit for bit;
        * pipelined: one branch per primary DHT bucket with a miss
          (:meth:`~repro.metadata.metadata_provider.MetadataProvider.bucket_groups`),
          each expanding its children and walking on the moment its own
          fetch lands, so a slow bucket delays only its own subtree; the
          hits' children are one more branch.  A single branch is awaited
          directly, several run under ``runtime.gather``, which cancels and
          awaits the siblings of a failed one.

        Either way a level with at least one miss counts as ONE metadata
        round trip however many branches fanned out (the one-batch path
        issues the same per-bucket sub-batches inside one ``multi_get``),
        and hit/fetched tallies are per-node sums independent of order.

        With a ``spec`` state the pipelined walk also runs the speculative
        frontier prefetch (DESIGN.md §9): the moment a level's misses are
        known their wanted children are predicted from geometry
        (:meth:`~repro.metadata.read_plan.FrontierWalker.predicted_children`)
        and issued as one miss-tolerant background multi-get; a child the
        authoritative parent later confirms as a miss consumes the in-flight
        result instead of fetching afresh, and a ``None`` slot (a
        misprediction) re-fetches normally.  Predictions never enter the
        node cache and never outlive the read: leftovers are drained before
        it returns and cancelled when it fails.  A consumed prediction IS
        its level's fetch, so only the ``speculative_*`` counters differ.
        """
        runtime = self._runtime
        cache = self._cache
        key_of = self._cluster.node_cache_key
        missing_ok = walker.missing_ok  # a tool walk skips collected nodes
        depth = 0
        miss_levels: set[int] = set()

        def issue_predictions(missed_refs: list[NodeRef]) -> None:
            predictions: list[NodeKey] = []
            for ref in missed_refs:
                for key in self._node_keys(record, walker.predicted_children(ref)):
                    if key in spec.seen:
                        continue
                    spec.seen.add(key)
                    predictions.append(key)
            if not predictions:
                return
            spec.predicted += len(predictions)

            async def speculative_fetch(keys: list[NodeKey]):
                with span("meta.speculate", nodes=len(keys)):
                    return await self._meta.try_get_nodes_async(keys, runtime)

            handle = runtime.start(speculative_fetch(predictions))
            spec.handles.append(handle)
            for slot, key in enumerate(predictions):
                spec.tasks[key] = (handle, slot)

        def admit(cache_keys: list, positions: list[int], fetched: list) -> None:
            """Nodes that travelled from the DHT have landed: cache them
            and tally them."""
            if cache is not None:
                cache.put_many(
                    [
                        (cache_keys[position], node)
                        for position, node in zip(positions, fetched)
                    ]
                )
            if tally is not None:
                tally.fetched += len(positions)

        def expand(refs, nodes) -> list[NodeRef]:
            """The child refs the resolved ``nodes`` still want (``None``
            slots are misses another branch resolves)."""
            children: list[NodeRef] = []
            for ref, node in zip(refs, nodes):
                if node is not None:
                    children.extend(walker.expand(ref, node))
            return children

        async def join(branches: list) -> None:
            if len(branches) == 1:
                await branches[0]
            elif branches:
                await runtime.gather(*branches)

        async def descend(refs: list[NodeRef], level: int) -> None:
            """Walk ``refs`` down to the leaves; suspends only on a miss.
            A level costs one key per ref, one probe of the node cache and
            one expansion of what it served."""
            nonlocal depth
            while refs:
                if level >= depth:
                    depth = level + 1
                cache_keys = []
                for ref in refs:
                    validate_node_range(ref.offset, ref.size)
                    cache_keys.append(
                        key_of(resolve_owner(record, ref.version), ref)
                    )
                walker.note_fetched(len(refs))
                if cache is None:
                    nodes = [None] * len(refs)
                else:
                    nodes = cache.get_many(cache_keys)
                miss_indices = [
                    index for index, node in enumerate(nodes) if node is None
                ]
                if tally is not None:
                    tally.hits += len(refs) - len(miss_indices)
                if miss_indices:
                    miss_levels.add(level)
                    if runtime.pipelined:
                        await fan_out(refs, cache_keys, nodes, miss_indices, level)
                        return
                    keys = self._node_keys(record, [refs[i] for i in miss_indices])
                    with span("meta.fetch", level=level, nodes=len(keys)):
                        fetched = await self._meta.get_nodes_async(
                            keys, runtime, missing_ok
                        )
                    admit(cache_keys, miss_indices, fetched)
                    for index, node in zip(miss_indices, fetched):
                        nodes[index] = node
                refs = expand(refs, nodes)
                level += 1

        async def fan_out(
            refs: list[NodeRef],
            cache_keys: list,
            nodes: list,
            miss_indices: list[int],
            level: int,
        ) -> None:
            """One branch per DHT bucket with a miss, one for the misses
            whose prediction is already in flight, one for the hits'
            children."""
            normal = miss_indices
            predicted: list[tuple[int, Handle, int]] = []
            if spec is not None:
                # Predict the misses' children NOW, before any fetch of this
                # level resolves — that head start is the entire win.
                issue_predictions([refs[index] for index in miss_indices])
                normal = []
                keys = self._node_keys(record, [refs[i] for i in miss_indices])
                for index, key in zip(miss_indices, keys):
                    entry = spec.tasks.pop(key, None)
                    if entry is None:
                        normal.append(index)
                    else:
                        predicted.append((index, *entry))
            # Expand first: a malformed node must raise before any branch
            # coroutine exists, or those would never be awaited.
            children = expand(refs, nodes)
            branches = group_fetches(refs, cache_keys, normal, level)
            if predicted:
                branches.append(consume_spec(refs, cache_keys, predicted, level))
            if children:
                branches.append(descend(children, level + 1))
            await join(branches)

        def group_fetches(
            refs: list[NodeRef], cache_keys: list, positions: list[int], level: int
        ) -> list:
            """One :func:`fetch_group` branch per primary DHT bucket."""
            if not positions:
                return []
            keys = self._node_keys(record, [refs[p] for p in positions])
            return [
                fetch_group(
                    refs, cache_keys,
                    [positions[g] for g in group], [keys[g] for g in group],
                    level,
                )
                for group in self._meta.bucket_groups(keys)
            ]

        async def fetch_group(
            refs: list[NodeRef],
            cache_keys: list,
            positions: list[int],
            keys: list[NodeKey],
            level: int,
        ) -> None:
            with span("meta.fetch", level=level, nodes=len(keys)):
                fetched = await self._meta.get_nodes_async(keys, runtime, missing_ok)
            admit(cache_keys, positions, fetched)
            children = expand([refs[position] for position in positions], fetched)
            await descend(children, level + 1)

        async def consume_spec(
            refs: list[NodeRef],
            cache_keys: list,
            predicted: list[tuple[int, Handle, int]],
            level: int,
        ) -> None:
            """Reconcile confirmed misses against their in-flight
            predictions: a landed prediction is this level's fetch (cached,
            tallied, expanded exactly like ``fetch_group``'s results); a
            ``None`` slot was a misprediction and re-fetches normally."""
            landed_positions: list[int] = []
            landed_nodes: list[TreeNode] = []
            fallback: list[int] = []
            with span("meta.consume_spec", level=level, nodes=len(predicted)):
                for position, handle, slot in predicted:
                    node = (await handle.result())[slot]
                    if node is None:
                        fallback.append(position)
                    else:
                        landed_positions.append(position)
                        landed_nodes.append(node)
            spec.hits += len(landed_positions)
            admit(cache_keys, landed_positions, landed_nodes)
            children = expand(
                [refs[position] for position in landed_positions], landed_nodes
            )
            branches = group_fetches(refs, cache_keys, fallback, level)
            if children:
                branches.append(descend(children, level + 1))
            await join(branches)

        # Predictions must not outlive the read: a failed one cancels them,
        # a finished one drains the last wave's leftovers (their results are
        # dropped on the floor — wasted speculation never touches the cache).
        handles = spec.handles if spec is not None else ()
        try:
            await descend(walker.root_refs(), 0)
        except BaseException:
            for handle in handles:
                await handle.cancel()
            raise
        for handle in handles:
            await handle.result()
        if tally is not None:
            tally.trips += len(miss_levels)
        result = walker.result
        result.round_trips = depth
        return result

    # ----------------------------------------------------------- cache plumbing
    def _cache_put_items(self, items: list[tuple[NodeKey, TreeNode]]) -> None:
        if self._cache is not None:
            key_of = self._cluster.node_cache_key
            self._cache.put_many(
                [(key_of(key.blob_id, key), node) for key, node in items]
            )

    def cache_stats(self) -> CacheStats:
        """Lifetime counters and occupancy of the metadata node cache.

        The cache is shared — by default across every store of this
        cluster, and (with default budgets) across all clusters of the
        process — so the numbers are cache-wide, not per-store: one sweep
        over every shard, a pull for monitoring.  One operation's hits and
        misses are counters on its result (``metadata_cache_hits``,
        ``metadata_nodes_fetched``, ``border_nodes_fetched``).  An uncached
        store reports all zeros.
        """
        return self._cache.stats() if self._cache is not None else CacheStats()

    def page_cache_stats(self) -> CacheStats:
        """Lifetime counters and occupancy of the page payload cache.

        Shared like the metadata cache (see :meth:`cache_stats`); one
        read's hits are ``ReadStats.page_cache_hits`` out of
        ``pages_fetched``.  An uncached store reports all zeros.
        """
        return (
            self._page_cache.stats()
            if self._page_cache is not None
            else CacheStats()
        )

    def lease_stats(self):
        """Counters of the (possibly shared) version lease cache, or None
        when this store runs unleased — see
        :class:`~repro.vm.lease.LeaseStats`."""
        return self._lease.stats() if self._lease is not None else None

    # ------------------------------------------------------------- data fetches
    async def _fetch_pages(
        self,
        record: BlobRecord,
        descriptors: list[PageDescriptor],
        windows: list[tuple[int, int]],
        page_tally: CacheTally | None = None,
        fault_tally: FaultTally | None = None,
    ) -> tuple[list[list[bytes]], int]:
        """The payloads of every ``(byte_offset, size)`` window — the
        blob's bytes ``[byte_offset, byte_offset + size)`` — from the pages
        of ``descriptors``, with one batched multi-fetch per provider
        covering ALL windows: ``(parts, batches)``, one list of in-order
        parts per window.  Ranges held by the shared page cache never enter
        a provider batch — a fully cached read costs zero batches.  Each
        request carries its page's replica tuple, so a failed provider
        batch fails over to the next live replica (counted in
        ``fault_tally``) instead of failing the read.

        Each request is the part of one page inside one window.  Parts are
        the immutable payloads the providers or caches handed back, not
        copies: the caller assembles each window once (``b"".join`` or a
        copy into its own buffer).
        """
        page_size = record.page_size
        requests: list[tuple[str, str, int, int]] = []
        failover: list[tuple[str, ...]] = []
        # Each window's requests, as a [first, last) slice of ``requests``.
        slices: list[tuple[int, int]] = []
        for offset, size in windows:
            end = offset + size
            first = len(requests)
            for descriptor in descriptors:
                page_start = descriptor.page_index * page_size
                want_start = max(offset, page_start)
                want_end = min(end, page_start + page_size)
                if want_end <= want_start:
                    continue
                requests.append(
                    (
                        descriptor.provider_id,
                        descriptor.page_id,
                        want_start - page_start,
                        want_end - want_start,
                    )
                )
                failover.append(descriptor.provider_ids)
            slices.append((first, len(requests)))
        payloads, batches = await self._pm.multi_fetch_into_async(
            requests,
            self._runtime,
            cache=self._page_cache,
            cache_key=self._cluster.page_cache_key,
            tally=page_tally,
            failover=failover,
            fault_tally=fault_tally,
        )
        return [payloads[first:last] for first, last in slices], batches


def walk_uncached(cluster: Cluster, record: BlobRecord, walker):
    """The tools' tree walks: :meth:`AsyncBlobStore._walk` of ``walker`` on
    an uncached, unleased ``SYNC_RUNTIME`` store — one DHT batch per tree
    level, no client cache read or filled."""
    store = AsyncBlobStore(
        cluster,
        cache_metadata=False,
        cache_pages=False,
        lease_versions=False,
        runtime=SYNC_RUNTIME,
    )
    return run_sync(store._walk(record, walker, None, None))
