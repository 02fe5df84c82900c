"""The four workloads.

A run is a fixed number of *rounds*; a round is one timed set-up (fresh
cluster, preload, warm-up — one ``setup_s`` sample) followed by a fixed
number of fixed-work *epochs* on that cluster.  What an epoch's clients do
feeds every rate and every count.  The set-up's preload appends and
``append_stream``'s read-back verification are timed too: they are the only
appends of the read workloads and the only reads of ``append_stream``.
Closed loop throughout: a client issues its next op when the previous one
returned.

Inputs come from ``random.Random`` streams seeded by ``(seed, round,
epoch)`` — by ``(seed, epoch)`` on the workload whose rounds replay one op
list; the engine only ever sees the generated ops.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro import BlobStore
from repro.errors import BlobSeerError

from .engine import MiB, PAGE_SIZE, Engine, build_engine, make_config
from .payload import Payloads, Reference
from .spans import SpanRecorder

clock = time.perf_counter

#: Pages per preload / stream append (1 MiB at 64 KiB pages).
APPEND_PAGES = 16
UNALIGNED_BYTES = 777
#: Final-version comparison on the event-loop workload, per read.
VERIFY_CHUNK = 4 * MiB


@dataclass
class Tally:
    """What an epoch — or a round outside its epochs — did, as seen by its
    client(s)."""

    ops: int = 0
    seconds: float = 0.0
    payload_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    first_error: str = ""
    latencies: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    #: Per op, in completion order: the tally's clock when it completed.
    #: The clock is busy time on the single-client workloads (harness time
    #: between ops excluded) and wall time since the gather started on the
    #: event-loop workload.
    marks: list[float] = field(default_factory=list)
    sums: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def fail(self, why: str) -> None:
        self.failed += 1
        if not self.first_error:
            self.first_error = why

    def note_read(self, stats, seconds: float) -> None:
        self.latencies["read"].append(seconds)
        self.payload_bytes += stats.bytes_read
        sums = self.sums
        sums["read.n"] += 1
        sums["read.bytes"] += stats.bytes_read
        sums["read.pages"] += stats.pages_fetched
        sums["read.nodes_fetched"] += stats.metadata_nodes_fetched
        sums["read.meta_trips"] += stats.metadata_round_trips
        sums["read.data_trips"] += stats.data_round_trips
        sums["read.page_hits"] += stats.page_cache_hits
        sums["read.vm_trips"] += stats.vm_round_trips
        sums["read.failovers"] += stats.failovers
        sums["read.degraded"] += stats.degraded

    def note_update(self, kind: str, result, seconds: float) -> None:
        self.latencies[kind].append(seconds)
        self.payload_bytes += result.bytes_written
        sums = self.sums
        sums["update.n"] += 1
        sums["update.bytes"] += result.bytes_written
        sums["update.pages"] += result.pages_written
        sums["update.nodes_written"] += result.metadata_nodes_written
        sums["update.border_fetched"] += result.border_nodes_fetched
        sums["update.data_trips"] += result.data_round_trips
        sums["update.vm_trips"] += result.vm_round_trips


@dataclass
class EpochResult:
    main: Tally
    #: Component counter deltas over the epoch.
    counters: dict[str, float]
    #: Component gauges at the end of the epoch.
    gauges: dict[str, float]
    space_amp: float
    #: Automatic full collections that ran inside the epoch.
    gc_gen2: int
    #: Cache occupancy when the epoch started (isolation check).
    start_node_entries: int
    start_page_mb: float


@dataclass
class RoundResult:
    setup_seconds: float
    epochs: list[EpochResult]
    #: Ops outside any epoch: set-up, read-back verification.
    outside: Tally
    nodes_per_mib_written: float
    schedule_digest: str


class _Round:
    """State shared by the set-up, the epochs and the verification of one
    round on one cluster."""

    def __init__(self, workload: "Workload", seed: int, index: int,
                 recorder: SpanRecorder | None, tracing: bool):
        self.workload = workload
        self.seed = seed
        self.index = index
        self.recorder = recorder
        self.payloads = Payloads(seed, PAGE_SIZE)
        self.reference = Reference(self.payloads)
        self.engine: Engine = build_engine(
            workload.config(tracing), recorder, event_loop=workload.event_loop
        )
        self.blob = ""
        #: The read workloads' pinned version and what it must read as.
        self.version = 0
        self.pinned: Reference | None = None
        self.next_op_id = 0
        self.bytes_accepted = 0
        self.outside = Tally()
        self.digest = hashlib.sha256()

    def rng(self, *stream) -> random.Random:
        index = 0 if self.workload.replays else self.index
        return random.Random(f"{self.workload.name}-{self.seed}-{index}-{stream}")

    def op_id(self) -> int:
        self.next_op_id += 1
        return self.next_op_id - 1

    def note_schedule(self, ops) -> None:
        self.digest.update(repr(ops).encode())

    def wrap(self, name: str, fn):
        return fn if self.recorder is None else self.recorder.wrap(name, fn)


class _SyncClient:
    """The single closed-loop client of the ``BlobStore`` workloads."""

    def __init__(self, rnd: _Round, store=None):
        store = rnd.engine.store if store is None else store
        self.rnd = rnd
        self.read_ex = rnd.wrap("core.read_ex", store.read_ex)
        self.append_ex = rnd.wrap("core.append_ex", store.append_ex)
        self.sync = rnd.wrap("core.sync", store.sync)

    def read(self, tally: Tally, reference: Reference, version: int,
             offset: int, size: int) -> None:
        tally.attempted += 1
        try:
            start = clock()
            data, stats = self.read_ex(self.rnd.blob, version, offset, size)
            seconds = clock() - start
        except BlobSeerError as error:
            tally.fail(repr(error))
            return
        tally.note_read(stats, seconds)
        tally.seconds += seconds
        tally.ops += 1
        tally.latencies["op"].append(seconds)
        tally.marks.append(tally.seconds)
        # Compared outside the timed interval.
        if not reference.matches(data, offset):
            tally.fail(f"wrong bytes: read({version}, {offset}, {size})")

    def append(self, tally: Tally, data: bytes) -> int | None:
        """One APPEND, not followed by its SYNC; returns the version."""
        rnd = self.rnd
        tally.attempted += 1
        try:
            start = clock()
            result = self.append_ex(rnd.blob, data)
            seconds = clock() - start
        except BlobSeerError as error:
            tally.fail(repr(error))
            return None
        tally.note_update("append", result, seconds)
        tally.seconds += seconds
        tally.ops += 1
        tally.latencies["op"].append(seconds)
        tally.marks.append(tally.seconds)
        rnd.bytes_accepted += len(data)
        return result.version


class Workload:
    """Sizes and behaviour of one named workload."""

    name = ""
    clients = 1
    event_loop = False
    epochs_per_round = 1
    #: Rounds of a ``--seconds 20`` run (a round takes about 20 s / this on
    #: the box the benchmark was written on).  The number of rounds follows
    #: ``--seconds`` alone, never the engine's speed: see :meth:`rounds`.
    rounds_per_20s = 3
    #: Consecutive ops per block (see ``metrics.py``): 15-60 ms of work, and
    #: a multiple of the op cycle.
    block_ops = 32
    #: True when every round runs round 0's ops again on a fresh cluster, so
    #: that op ``i`` of one round is op ``i`` of every other.
    replays = False

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def rounds(self, seconds: float) -> int:
        """How many rounds a run of ``--seconds`` makes: at least three
        (``setup_s`` wants several set-ups), a single one at smoke size."""
        if self.smoke:
            return 1
        return max(3, round(self.rounds_per_20s * seconds / 20))

    def config(self, tracing: bool):
        return make_config(tracing=tracing)

    def geometry(self) -> tuple[int, int, int]:
        """``(blob pages, pages per read, pages per update)`` for the
        metadata micro-drives."""
        raise NotImplementedError

    # -- the round protocol --------------------------------------------------
    def run_round(self, seed: int, index: int, recorder: SpanRecorder | None,
                  tracing: bool, corrupt: bool) -> RoundResult:
        gc.collect()
        start = clock()
        rnd = _Round(self, seed, index, recorder, tracing)
        self.setup(rnd)
        setup_seconds = clock() - start
        epochs = []
        for epoch in range(self.epochs_per_round):
            gc.collect()
            epochs.append(self.epoch(rnd, epoch, corrupt and index == 0 and epoch == 0))
        nodes = rnd.engine.cluster.metadata_node_count()
        return RoundResult(
            setup_seconds=setup_seconds,
            epochs=epochs,
            outside=rnd.outside,
            nodes_per_mib_written=nodes / (rnd.bytes_accepted / MiB),
            schedule_digest=rnd.digest.hexdigest(),
        )

    def setup(self, rnd: _Round) -> None:
        raise NotImplementedError

    def epoch(self, rnd: _Round, epoch: int, corrupt: bool) -> EpochResult:
        raise NotImplementedError

    # -- shared pieces -------------------------------------------------------
    def preload(self, rnd: _Round, client: _SyncClient, appends: int) -> int:
        """``appends`` × 1 MiB APPENDs, then SYNC; returns the version."""
        version = 0
        for _ in range(appends):
            op_id = rnd.op_id()
            version = client.append(
                rnd.outside, rnd.payloads.pages(op_id, APPEND_PAGES)
            )
            rnd.reference.append(op_id, APPEND_PAGES)
        client.sync(rnd.blob, version)
        return version

    def measured(self, rnd: _Round, body) -> EpochResult:
        """Run ``body(tally)`` as one epoch, between two counter snapshots."""
        engine, recorder = rnd.engine, rnd.recorder
        start_gauges = engine.gauges()
        main = Tally()
        gen2 = gc.get_stats()[2]["collections"]
        before = engine.counters()
        first_span = 0 if recorder is None else len(recorder.spans)
        body(main)
        accepted = rnd.bytes_accepted
        if recorder is not None:
            recorder.windows.append((first_span, len(recorder.spans)))
        after = engine.counters()
        gen2 = gc.get_stats()[2]["collections"] - gen2
        gauges = engine.gauges()
        return EpochResult(
            main=main,
            counters={name: after[name] - before[name] for name in after},
            gauges=gauges,
            space_amp=gauges["storage.bytes"] / accepted,
            gc_gen2=gen2,
            start_node_entries=int(start_gauges["cache.node_entries"]),
            start_page_mb=start_gauges["cache.page_resident_mb"],
        )


def corrupt_stored_byte(rnd: _Round, version: int, offset: int) -> None:
    """Test-only hook (``--corrupt``): flip the stored byte behind byte
    ``offset`` of ``version`` in its provider.  The page is found by its
    header, through a cache-less store, so no cache sees the clean bytes."""
    cluster = rnd.engine.cluster
    finder = BlobStore(cluster, cache_metadata=False, cache_pages=False)
    page, index = divmod(offset, PAGE_SIZE)
    header = finder.read(rnd.blob, version, page * PAGE_SIZE, 16)
    for provider in cluster.provider_manager.providers():
        for page_id in provider.page_ids():
            if provider.fetch_page(page_id, 0, 16) == header:
                data = bytearray(provider.fetch_page(page_id))
                data[index] ^= 0xFF
                provider.store_page(page_id, bytes(data))
                return
    raise RuntimeError(f"no stored page backs blob page {page}")


class AppendStream(Workload):
    name = "append_stream"
    rounds_per_20s = 20

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.appends = 32 if smoke else 512
        self.warmup_appends = 4 if smoke else 16
        #: The read-back verification reads every ``stride``-th MiB.
        self.stride = 4

    def geometry(self) -> tuple[int, int, int]:
        return self.appends * APPEND_PAGES, APPEND_PAGES, APPEND_PAGES

    def setup(self, rnd: _Round) -> None:
        store = rnd.engine.store
        client = _SyncClient(rnd)
        # Warm the write path on a scratch blob of the same cluster.
        rnd.blob = store.create()
        self.preload(rnd, client, self.warmup_appends)
        rnd.reference = Reference(rnd.payloads)
        rnd.blob = store.create()

    def epoch(self, rnd: _Round, epoch: int, corrupt: bool) -> EpochResult:
        client = _SyncClient(rnd)
        payloads, reference = rnd.payloads, rnd.reference
        rnd.note_schedule(("append", APPEND_PAGES, self.appends))

        def body(tally: Tally) -> None:
            version = None
            for _ in range(self.appends):
                op_id = rnd.op_id()
                version = client.append(tally, payloads.pages(op_id, APPEND_PAGES))
                reference.append(op_id, APPEND_PAGES)
            start = clock()
            client.sync(rnd.blob, version)
            tally.seconds += clock() - start

        result = self.measured(rnd, body)
        # Read-back verification, after the epoch: the only reads of this
        # workload, so they are what its ``read_p50_ms`` reports.
        version = rnd.engine.store.get_recent(rnd.blob)
        if corrupt:
            corrupt_stored_byte(rnd, version, PAGE_SIZE + 1)
        size = APPEND_PAGES * PAGE_SIZE
        for chunk in range(0, self.appends, self.stride):
            client.read(rnd.outside, reference, version, chunk * size, size)
        return result


class ReadWorkload(Workload):
    """Random reads of one pinned version of a preloaded blob."""

    epochs_per_round = 3
    blob_mib = 0
    reads = 0

    def setup(self, rnd: _Round) -> None:
        rnd.blob = rnd.engine.store.create()
        rnd.version = self.preload(rnd, _SyncClient(rnd), self.blob_mib)
        rnd.pinned = rnd.reference.frozen()

    def schedule(self, rng: random.Random) -> list[tuple[int, int]]:
        raise NotImplementedError

    def epoch(self, rnd: _Round, epoch: int, corrupt: bool) -> EpochResult:
        client = _SyncClient(rnd)
        ops = self.schedule(rnd.rng("reads", epoch))
        rnd.note_schedule(ops)
        if corrupt:
            corrupt_stored_byte(rnd, rnd.version, ops[0][0])
            # Forget clean copies the warm-up may have cached.
            rnd.engine.cluster.page_cache.clear()

        def body(tally: Tally) -> None:
            for offset, size in ops:
                client.read(tally, rnd.pinned, rnd.version, offset, size)

        return self.measured(rnd, body)


class ReadColdScan(ReadWorkload):
    name = "read_cold_scan"

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.blob_mib = 16 if smoke else 512
        self.reads = 60 if smoke else 1000
        self.read_bytes = MiB
        if smoke:
            self.epochs_per_round = 1

    def config(self, tracing: bool):
        pages = self.blob_mib * MiB // PAGE_SIZE
        return make_config(
            tracing=tracing,
            encode_metadata=True,
            page_cache_bytes=self.blob_mib * MiB // 16,
            metadata_cache_entries=max(64, pages // 8),
        )

    def geometry(self) -> tuple[int, int, int]:
        return self.blob_mib * MiB // PAGE_SIZE, self.read_bytes // PAGE_SIZE + 1, 1

    def schedule(self, rng: random.Random) -> list[tuple[int, int]]:
        limit = self.blob_mib * MiB - self.read_bytes
        return [(rng.randrange(limit), self.read_bytes) for _ in range(self.reads)]


class ReadHotSmall(ReadWorkload):
    name = "read_hot_small"
    sizes = (4 << 10, 16 << 10, 64 << 10)
    block_ops = 96

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.blob_mib = 2 if smoke else 32
        self.reads = 99 if smoke else 12000
        if smoke:
            self.epochs_per_round = 1

    def geometry(self) -> tuple[int, int, int]:
        return self.blob_mib * MiB // PAGE_SIZE, 1, 1

    def setup(self, rnd: _Round) -> None:
        super().setup(rnd)
        # One warm-up pass over every (page, size, slot) the epochs can ask
        # for, so the measured reads find all of them cached.
        store = rnd.engine.store
        for page in range(rnd.reference.page_count):
            for size in self.sizes:
                for offset in range(0, PAGE_SIZE, size):
                    store.read(rnd.blob, rnd.version, page * PAGE_SIZE + offset, size)

    def schedule(self, rng: random.Random) -> list[tuple[int, int]]:
        pages = self.blob_mib * MiB // PAGE_SIZE
        ops = []
        for index in range(self.reads):
            size = self.sizes[index % len(self.sizes)]
            page = min(pages, int(rng.paretovariate(1.2))) - 1
            slot = rng.randrange(PAGE_SIZE // size)
            ops.append((page * PAGE_SIZE + slot * size, size))
        return ops


class MixedRwAsync(Workload):
    name = "mixed_rw_async"
    clients = 16
    event_loop = True
    rounds_per_20s = 7
    replays = True
    #: Each client patches only its own pages.  A non-strict unaligned WRITE
    #: completes its boundary bytes from the last *published* snapshot, so
    #: two in-flight writers of one page may legitimately lose a sub-page
    #: update; keeping every client's patches on pages no other writer
    #: touches makes the version-order fold of the reference exact.
    patch_pages_per_client = 8
    shares = (("write", 0.15), ("append", 0.10), ("uwrite", 0.05))
    read_pages = (1, 4, 16)
    update_pages = (1, 2, 4)
    versions_back = 32

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        if smoke:
            self.clients = 4
        self.preload_mib = 16 if smoke else 128
        self.ops_per_client = 40 if smoke else 200

    @property
    def patch_zone_pages(self) -> int:
        return self.clients * self.patch_pages_per_client

    def geometry(self) -> tuple[int, int, int]:
        return self.preload_mib * MiB // PAGE_SIZE, 4, 2

    def setup(self, rnd: _Round) -> None:
        # Preloaded through the sync bridge; the epoch then runs on the
        # event-loop store of the same cluster.
        preloader = BlobStore(rnd.engine.cluster)
        rnd.blob = preloader.create()
        rnd.version = self.preload(
            rnd, _SyncClient(rnd, preloader), self.preload_mib
        )

    def schedule(self, rng: random.Random) -> list[list[tuple]]:
        kinds = []
        for kind, share in self.shares:
            kinds += [kind] * round(self.ops_per_client * share)
        kinds += ["read"] * (self.ops_per_client - len(kinds))
        clients = []
        for _ in range(self.clients):
            rng.shuffle(kinds)
            seen: dict[str, int] = defaultdict(int)
            ops = []
            for kind in kinds:
                sizes = self.read_pages if kind == "read" else self.update_pages
                pages = sizes[seen[kind] % len(sizes)]
                seen[kind] += 1
                ops.append((kind, pages, rng.random(), rng.randrange(self.versions_back)))
            clients.append(ops)
        return clients

    def epoch(self, rnd: _Round, epoch: int, corrupt: bool) -> EpochResult:
        schedule = self.schedule(rnd.rng("ops", epoch))
        rnd.note_schedule(schedule)
        preload_pages = rnd.reference.page_count
        if corrupt:
            # The last preloaded page: no overwrite ever targets it.
            corrupt_stored_byte(rnd, rnd.version, preload_pages * PAGE_SIZE - 1)

        def body(tally: Tally) -> None:
            asyncio.run(self._clients(rnd, schedule, preload_pages, tally))

        result = self.measured(rnd, body)
        asyncio.run(self._compare_final_version(rnd))
        return result

    async def _clients(self, rnd: _Round, schedule, preload_pages: int,
                       tally: Tally) -> None:
        store, blob = rnd.engine.store, rnd.blob
        payloads = rnd.payloads
        read_ex = rnd.wrap("core.read_ex", store.read_ex)
        append_ex = rnd.wrap("core.append_ex", store.append_ex)
        write_ex = rnd.wrap("core.write_ex", store.write_ex)
        sync = rnd.wrap("core.sync", store.sync)
        zone = self.patch_zone_pages
        slice_bytes = self.patch_pages_per_client * PAGE_SIZE
        #: (version, kind, byte offset, op id, pages) of every accepted update.
        accepted: list[tuple] = []
        #: Per kind, the op id behind each latency sample, in completion order.
        owners: dict[str, list[int]] = defaultdict(list)

        async def read(op_id: int, pages: int, fraction: float, back: int) -> None:
            version = max(1, await store.get_recent(blob) - back)
            size = await store.get_size(blob, version)
            first = int(fraction * (size // PAGE_SIZE - pages + 1))
            start = clock()
            data, stats = await read_ex(
                blob, version, first * PAGE_SIZE, pages * PAGE_SIZE
            )
            tally.note_read(stats, clock() - start)
            owners["read"].append(op_id)
            for index in range(pages):
                # Patched pages carry foreign bytes by design; the final
                # comparison covers them.
                if first + index >= zone and not payloads.page_is_intact(
                    data, index * PAGE_SIZE
                ):
                    tally.fail(f"torn page {first + index} in version {version}")
                    break

        async def update(client: int, op_id: int, kind: str, pages: int,
                         fraction: float) -> None:
            start = clock()
            if kind == "append":
                offset = None
                result = await append_ex(blob, payloads.pages(op_id, pages))
            elif kind == "write":
                # Inside the preloaded range, clear of the patch zone and of
                # the last preloaded page.
                first = zone + int(fraction * (preload_pages - zone - pages))
                offset = first * PAGE_SIZE
                result = await write_ex(blob, payloads.pages(op_id, pages), offset)
            else:
                pages = UNALIGNED_BYTES
                offset = client * slice_bytes + int(
                    fraction * (slice_bytes - UNALIGNED_BYTES)
                )
                result = await write_ex(
                    blob, payloads.patch(op_id, UNALIGNED_BYTES), offset
                )
            done = clock()
            await sync(blob, result.version)
            tally.latencies["publish"].append(clock() - start)
            tally.note_update(kind, result, done - start)
            owners["publish"].append(op_id)
            owners[kind].append(op_id)
            rnd.bytes_accepted += result.bytes_written
            accepted.append((result.version, kind, offset, op_id, pages))

        first_op_id = rnd.next_op_id
        rnd.next_op_id += self.clients * self.ops_per_client

        async def client(index: int) -> None:
            op_id = first_op_id + index * self.ops_per_client - 1
            for kind, pages, fraction, back in schedule[index]:
                op_id += 1
                tally.attempted += 1
                tally.ops += 1
                start = clock()
                try:
                    if kind == "read":
                        await read(op_id, pages, fraction, back)
                    else:
                        await update(index, op_id, kind, pages, fraction)
                except BlobSeerError as error:
                    tally.fail(repr(error))
                done = clock()
                tally.latencies["op"].append(done - start)
                owners["op"].append(op_id)
                tally.marks.append(done - began)

        began = clock()
        await asyncio.gather(*(client(index) for index in range(self.clients)))
        tally.seconds = clock() - began
        # Latencies in op order, not completion order: sample i of one
        # round and sample i of another then belong to the same op.
        for kind, ids in owners.items():
            latencies = tally.latencies[kind]
            latencies[:] = [latencies[at] for at in sorted(range(len(ids)),
                                                           key=ids.__getitem__)]

        reference = rnd.reference
        for _version, kind, offset, op_id, pages in sorted(accepted):
            if kind == "append":
                reference.append(op_id, pages)
            elif kind == "write":
                reference.write(offset // PAGE_SIZE, op_id, pages)
            else:
                reference.patch(offset, op_id, UNALIGNED_BYTES)

    async def _compare_final_version(self, rnd: _Round) -> None:
        store, blob, reference = rnd.engine.store, rnd.blob, rnd.reference
        version = await store.get_recent(blob)
        size = await store.get_size(blob, version)
        if size != reference.size:
            rnd.outside.fail(f"final size {size}, expected {reference.size}")
            return
        for offset in range(0, size, VERIFY_CHUNK):
            length = min(VERIFY_CHUNK, size - offset)
            rnd.outside.attempted += 1
            data = await store.read(blob, version, offset, length)
            if not reference.matches(data, offset):
                rnd.outside.fail(f"wrong bytes in final version at {offset}")


WORKLOADS = {
    workload.name: workload
    for workload in (AppendStream, ReadColdScan, ReadHotSmall, MixedRwAsync)
}
