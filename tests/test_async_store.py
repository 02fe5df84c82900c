"""Tests of the asyncio-native client core (:mod:`repro.core.async_store`)
and the sync bridge over it.

No pytest-asyncio in the toolchain: every async scenario runs through
``asyncio.run`` inside an ordinary sync test function, which also proves the
library never requires a particular test harness.

The headline property: :class:`AsyncBlobStore` (event-loop runtime,
pipelined reads, overlapped writes) and :class:`BlobStore` (loop-free sync
bridge) produce byte-for-byte identical data AND field-for-field identical
``ReadStats`` / ``WriteResult`` trip counters across random operation
histories — one code path, two execution modes, same observable behaviour.
"""

from __future__ import annotations

import array
import asyncio
import threading
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import (
    AsyncBlobStore,
    BlobStore,
    Cluster,
    InvalidRangeError,
    StoreClosedError,
    VersionNotPublishedError,
)
from repro.aio import AsyncRuntime, SyncRuntime, run_sync
from repro.cache import NodeCache, PageCache
from repro.config import BlobSeerConfig
from repro.errors import ProviderUnavailableError
from repro.metadata.node import NodeKey

from .conftest import TEST_PAGE_SIZE, make_payload


def small_cluster() -> Cluster:
    return Cluster.in_memory(
        num_data_providers=4,
        num_metadata_providers=4,
        page_size=TEST_PAGE_SIZE,
    )


class TestAsyncSurface:
    """Every paper primitive, awaited."""

    def test_create_write_sync_read_roundtrip(self):
        async def scenario():
            cluster = small_cluster()
            async with AsyncBlobStore(cluster) as store:
                blob_id = await store.create()
                payload = make_payload(5 * TEST_PAGE_SIZE + 17)
                result = await store.write_ex(blob_id, payload, 0)
                await store.sync(blob_id, result.version)
                assert await store.get_size(blob_id, result.version) == len(payload)
                data, stats = await store.read_ex(
                    blob_id, result.version, 0, len(payload)
                )
                assert data == payload
                assert stats.pages_fetched == 6
                # The writer's publish write-through warmed the shared cache:
                # its own read-back walks the tree entirely from memory.
                assert stats.metadata_round_trips == 0
                assert stats.metadata_cache_hits > 0
                return result

        result = asyncio.run(scenario())
        assert result.version == 1
        assert result.pages_written == 6

    def test_append_read_recent_and_branch(self):
        async def scenario():
            cluster = small_cluster()
            async with AsyncBlobStore(cluster) as store:
                blob_id = await store.create()
                first = make_payload(TEST_PAGE_SIZE + 5, seed=1)
                second = make_payload(30, seed=2)
                v1 = await store.append(blob_id, first)
                await store.sync(blob_id, v1)
                v2 = await store.append(blob_id, second)
                await store.sync(blob_id, v2)
                assert await store.get_recent(blob_id) == v2
                version, tail = await store.read_recent(
                    blob_id, len(first), len(second)
                )
                assert (version, tail) == (v2, second)
                # BRANCH isolates the child from later parent writes.
                child = await store.branch(blob_id, v1)
                child_bytes = await store.read(child, v1, 0, len(first))
                assert child_bytes == first

        asyncio.run(scenario())

    def test_unaligned_write_preserves_boundaries(self):
        async def scenario():
            cluster = small_cluster()
            async with AsyncBlobStore(cluster) as store:
                blob_id = await store.create()
                base = make_payload(3 * TEST_PAGE_SIZE, seed=3)
                v1 = await store.write(blob_id, base, 0)
                await store.sync(blob_id, v1)
                patch = make_payload(40, seed=4)
                v2 = await store.write(blob_id, patch, 50)
                await store.sync(blob_id, v2)
                expected = base[:50] + patch + base[90:]
                assert await store.read(blob_id, v2, 0, len(base)) == expected

        asyncio.run(scenario())

    def test_invalid_ranges_raise(self):
        async def scenario():
            cluster = small_cluster()
            async with AsyncBlobStore(cluster) as store:
                blob_id = await store.create()
                with pytest.raises(InvalidRangeError):
                    await store.write_ex(blob_id, b"", 0)
                with pytest.raises(InvalidRangeError):
                    await store.read(blob_id, 0, 0, 10)

        asyncio.run(scenario())

    def test_sync_waits_for_late_publication_and_times_out(self):
        async def scenario():
            cluster = small_cluster()
            async with AsyncBlobStore(cluster) as store:
                blob_id = await store.create()
                vm = cluster.version_manager
                ticket = vm.register_update(blob_id, TEST_PAGE_SIZE, offset=0)

                async def publish_later():
                    await asyncio.sleep(0.05)
                    vm.complete_update(blob_id, ticket.version)

                # The version is only published mid-wait: sync() must park on
                # the loop until the publish notification arrives.
                task = asyncio.ensure_future(publish_later())
                await store.sync(blob_id, ticket.version, timeout=5.0)
                await task
                # And a version that never publishes trips the timeout.
                with pytest.raises(VersionNotPublishedError):
                    await store.sync(blob_id, ticket.version + 5, timeout=0.05)

        asyncio.run(scenario())


class TestLifecycle:
    """Context managers, idempotent close, use-after-close errors."""

    def test_sync_store_context_manager_and_double_close(self):
        cluster = small_cluster()
        with BlobStore(cluster) as store:
            blob_id = store.create()
            store.append(blob_id, b"x")
        store.close()  # second close (after __exit__): idempotent no-op
        with pytest.raises(StoreClosedError, match="BlobStore is closed"):
            store.create()
        with pytest.raises(StoreClosedError):
            store.read(blob_id, 1, 0, 1)
        with pytest.raises(StoreClosedError):
            with store:
                pass  # re-entering a closed store is refused

    def test_async_store_context_manager_and_double_close(self):
        async def scenario():
            cluster = small_cluster()
            async with AsyncBlobStore(cluster) as store:
                blob_id = await store.create()
                await store.append(blob_id, b"x")
            await store.aclose()  # idempotent after __aexit__
            store.close()  # and the sync spelling too
            with pytest.raises(StoreClosedError, match="AsyncBlobStore is closed"):
                await store.create()
            with pytest.raises(StoreClosedError):
                await store.read_ex(blob_id, 1, 0, 1)

        asyncio.run(scenario())

    def test_closing_one_store_leaves_cluster_usable(self):
        cluster = small_cluster()
        first = BlobStore(cluster)
        blob_id = first.create()
        first.append(blob_id, b"hello")
        first.close()
        second = BlobStore(cluster)
        assert second.read(blob_id, 1, 0, 5) == b"hello"


class _SyncAsAsync:
    """Adapter running the equivalence driver against the sync bridge, so
    one history executor covers both execution modes."""

    def __init__(self, store: BlobStore):
        self._store = store

    async def create(self):
        return self._store.create()

    async def write_ex(self, blob_id, data, offset):
        return self._store.write_ex(blob_id, data, offset)

    async def append_ex(self, blob_id, data):
        return self._store.append_ex(blob_id, data)

    async def read_ex(self, blob_id, version, offset, size):
        return self._store.read_ex(blob_id, version, offset, size)

    async def sync(self, blob_id, version):
        return self._store.sync(blob_id, version)

    async def branch(self, blob_id, version):
        return self._store.branch(blob_id, version)


async def _drive_history(store, operations):
    """Execute a random-but-deterministic history; return every observable
    outcome (result dataclasses and read bytes) for comparison.

    Op specs carry fractions rather than absolute values so the same spec
    stays valid against whatever sizes the history produced so far; the
    resolution is pure arithmetic, hence identical across stores.
    """
    outcomes = []
    blobs: list[str] = [await store.create()]
    # (blob_index, version, size) of every published snapshot
    published: list[tuple[int, int, int]] = []
    sizes: dict[int, int] = {0: 0}

    def pick(items, frac):
        return items[int(frac * (len(items) - 1))] if items else None

    for op in operations:
        kind = op[0]
        if kind == "append":
            _, blob_frac, length, seed = op
            blob_index = pick(range(len(blobs)), blob_frac)
            result = await store.append_ex(
                blobs[blob_index], make_payload(length, seed)
            )
            await store.sync(blobs[blob_index], result.version)
            sizes[blob_index] += length
            published.append((blob_index, result.version, sizes[blob_index]))
            outcomes.append(result)
        elif kind == "write":
            _, blob_frac, length, offset_frac, seed = op
            blob_index = pick(range(len(blobs)), blob_frac)
            offset = int(offset_frac * sizes[blob_index])
            result = await store.write_ex(
                blobs[blob_index], make_payload(length, seed), offset
            )
            await store.sync(blobs[blob_index], result.version)
            sizes[blob_index] = max(sizes[blob_index], offset + length)
            published.append((blob_index, result.version, sizes[blob_index]))
            outcomes.append(result)
        elif kind == "branch":
            _, snap_frac = op
            snap = pick(published, snap_frac)
            if snap is None:
                continue
            blob_index, version, size = snap
            child = await store.branch(blobs[blob_index], version)
            blobs.append(child)
            sizes[len(blobs) - 1] = size
            published.append((len(blobs) - 1, version, size))
        else:  # read
            _, snap_frac, offset_frac, size_frac = op
            snap = pick(published, snap_frac)
            if snap is None:
                continue
            blob_index, version, size = snap
            offset = int(offset_frac * size)
            count = int(size_frac * (size - offset))
            data, stats = await store.read_ex(
                blobs[blob_index], version, offset, count
            )
            outcomes.append((data, stats))
    return outcomes


history_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.floats(0, 1),
            st.integers(1, 3 * TEST_PAGE_SIZE),
            st.integers(0, 255),
        ),
        st.tuples(
            st.just("write"),
            st.floats(0, 1),
            st.integers(1, 2 * TEST_PAGE_SIZE),
            st.floats(0, 1),
            st.integers(0, 255),
        ),
        st.tuples(st.just("branch"), st.floats(0, 1)),
        st.tuples(
            st.just("read"), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)
        ),
    ),
    min_size=1,
    max_size=12,
)


class TestAsyncSyncEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(operations=history_strategy, strict_unaligned=st.booleans())
    @example(
        # Strict mode pinned on one history that crosses page boundaries
        # every way: unaligned appends, a write at v>1 inside one page, one
        # spanning two, a branch written to, and reads over the seams.
        operations=[
            ("append", 0.0, 100, 1),
            ("write", 0.0, 30, 0.25, 2),
            ("write", 0.0, 90, 0.5, 3),
            ("append", 0.0, 50, 4),
            ("branch", 0.5),
            ("write", 1.0, 70, 0.9, 5),
            ("read", 1.0, 0.1, 0.9),
            ("read", 0.5, 0.0, 1.0),
        ],
        strict_unaligned=True,
    )
    def test_same_bytes_and_same_trip_counters(self, operations, strict_unaligned):
        """The tentpole property: one async code path, two execution modes,
        identical bytes AND identical ReadStats/WriteResult counters — with
        lock-free and with strict boundary pages alike.

        Each store gets its own cluster and its own dedicated caches (the
        process-shared defaults would leak occupancy between the twins);
        in-cluster state is otherwise deterministic, so every counter —
        trips, cache hits — must match field for field, and so must the
        caches' lifetime counters and occupancy at the end.
        """
        sync_cluster = small_cluster()
        sync_store = BlobStore(
            sync_cluster,
            strict_unaligned=strict_unaligned,
            node_cache=NodeCache(),
            page_cache=PageCache(),
        )
        sync_outcomes = asyncio.run(
            _drive_history(_SyncAsAsync(sync_store), operations)
        )

        async_cluster = small_cluster()

        async def run_async():
            async with AsyncBlobStore(
                async_cluster,
                strict_unaligned=strict_unaligned,
                node_cache=NodeCache(),
                page_cache=PageCache(),
            ) as store:
                outcomes = await _drive_history(store, operations)
                return outcomes, store.cache_stats(), store.page_cache_stats()

        async_outcomes, node_stats, page_stats = asyncio.run(run_async())
        assert async_outcomes == sync_outcomes
        assert node_stats == sync_store.cache_stats()
        assert page_stats == sync_store.page_cache_stats()

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(operations=history_strategy)
    def test_equivalence_extends_to_cold_path_counters(self, operations):
        """The same property under the cold-path config (DESIGN.md §9):
        with ``speculative_prefetch`` on, the sync bridge cannot pipeline
        (its speculation gate stays closed) while the async store
        speculates — yet every outcome still matches field for field once
        the async side's ``speculative_*`` pair, its ONLY permitted
        divergence, is zeroed.  The other new counters (``failovers``,
        ``degraded``) must agree at exactly zero on a healthy run."""

        def cold_cluster():
            return Cluster.in_memory(
                num_data_providers=4,
                num_metadata_providers=4,
                page_size=TEST_PAGE_SIZE,
                speculative_prefetch=True,
            )

        sync_store = BlobStore(
            cold_cluster(), node_cache=NodeCache(), page_cache=PageCache()
        )
        sync_outcomes = asyncio.run(
            _drive_history(_SyncAsAsync(sync_store), operations)
        )

        async def run_async():
            async with AsyncBlobStore(
                cold_cluster(), node_cache=NodeCache(), page_cache=PageCache()
            ) as store:
                return await _drive_history(store, operations)

        async_outcomes = asyncio.run(run_async())
        assert len(async_outcomes) == len(sync_outcomes)
        for async_outcome, sync_outcome in zip(async_outcomes, sync_outcomes):
            if not isinstance(async_outcome, tuple):  # WriteResult
                assert async_outcome == sync_outcome
                continue
            (async_data, async_stats) = async_outcome
            (sync_data, sync_stats) = sync_outcome
            assert async_data == sync_data
            assert sync_stats.speculative_hits == 0
            assert sync_stats.speculative_wasted == 0
            normalized = replace(
                async_stats, speculative_hits=0, speculative_wasted=0
            )
            assert normalized == sync_stats
            for stats in (async_stats, sync_stats):
                assert stats.failovers == 0
                assert stats.degraded == 0

    def test_cold_read_counters_match_exactly(self):
        """Deterministic spot check (no hypothesis): a cold multi-level read
        through the pipelined traversal reports the same nodes_fetched and
        round-trip counts as the strict level-by-level sync walk."""
        payload = make_payload(16 * TEST_PAGE_SIZE, seed=9)

        def sync_stats():
            store = BlobStore(
                small_cluster(), cache_metadata=False, cache_pages=False
            )
            blob_id = store.create()
            version = store.write(blob_id, payload, 0)
            store.sync(blob_id, version)
            return store.read_ex(blob_id, version, 0, len(payload))

        async def async_stats():
            store = AsyncBlobStore(
                small_cluster(), cache_metadata=False, cache_pages=False
            )
            blob_id = await store.create()
            version = await store.write(blob_id, payload, 0)
            await store.sync(blob_id, version)
            return await store.read_ex(blob_id, version, 0, len(payload))

        sync_data, sync_read = sync_stats()
        async_data, async_read = asyncio.run(async_stats())
        assert async_data == sync_data == payload
        assert async_read == sync_read
        assert sync_read.metadata_round_trips >= 3  # genuinely multi-level


class TestEventLoopConcurrency:
    def test_ten_thousand_gathered_reads_no_per_op_threads(self):
        """10k concurrent reads on ONE event loop: every operation goes
        through the store concurrently and not a single thread is spawned
        per operation (the old model needed a thread per blocked client)."""
        cluster = small_cluster()
        payload = make_payload(2 * TEST_PAGE_SIZE, seed=7)

        async def scenario():
            async with AsyncBlobStore(cluster) as store:
                blob_id = await store.create()
                version = await store.write(blob_id, payload, 0)
                await store.sync(blob_id, version)

                before = threading.active_count()
                reads = [
                    store.read_ex(
                        blob_id, version, index % TEST_PAGE_SIZE, TEST_PAGE_SIZE
                    )
                    for index in range(10_000)
                ]
                results = await asyncio.gather(*reads)
                after = threading.active_count()
                return before, after, results

        before, after, results = asyncio.run(scenario())
        assert after == before  # zero threads per operation
        assert len(results) == 10_000
        for index, (data, stats) in enumerate(results):
            offset = index % TEST_PAGE_SIZE
            assert data == payload[offset:offset + TEST_PAGE_SIZE]
            assert stats.bytes_read == TEST_PAGE_SIZE

    def test_gathered_cold_reads_interleave_on_the_loop(self):
        """Cold concurrent reads genuinely interleave: the runtime parks
        every gathered read on the loop before the first backend batch runs
        (AsyncRuntime.run_batches yields first), so peak in-flight equals
        the gather width."""
        cluster = small_cluster()
        payload = make_payload(4 * TEST_PAGE_SIZE, seed=8)
        in_flight = 0
        peak = 0

        async def tracked_read(store, blob_id, version):
            nonlocal in_flight, peak
            in_flight += 1
            peak = max(peak, in_flight)
            # Parking here lets every sibling read start before any backend
            # work happens; without the loop this would serialize.
            await asyncio.sleep(0)
            data = await store.read(blob_id, version, 0, len(payload))
            in_flight -= 1
            return data

        async def scenario():
            async with AsyncBlobStore(
                cluster, cache_metadata=False, cache_pages=False
            ) as store:
                blob_id = await store.create()
                version = await store.write(blob_id, payload, 0)
                await store.sync(blob_id, version)
                return await asyncio.gather(
                    *(tracked_read(store, blob_id, version) for _ in range(64))
                )

        results = asyncio.run(scenario())
        assert all(data == payload for data in results)
        assert peak == 64


class TestRuntimeSeam:
    def test_run_sync_rejects_suspending_coroutines(self):
        class Suspends:
            def __await__(self):
                yield  # a genuine suspension point, no loop required

        async def suspends():
            await Suspends()

        with pytest.raises(RuntimeError, match="suspended"):
            run_sync(suspends())

    def test_sync_bridge_uses_sync_runtime(self):
        store = BlobStore(small_cluster())
        assert isinstance(store._engine, AsyncBlobStore)
        assert isinstance(store._engine._runtime, SyncRuntime)
        assert not store._engine._runtime.pipelined

    def test_async_store_defaults_to_event_loop_runtime(self):
        store = AsyncBlobStore(small_cluster())
        assert isinstance(store._runtime, AsyncRuntime)
        assert store._runtime.pipelined


class _CountingRuntime(AsyncRuntime):
    """The event-loop runtime, counting the two calls a READ can park in."""

    def __init__(self) -> None:
        self.gathers = 0
        self.batches = 0

    async def gather(self, *coros):
        self.gathers += 1
        return await super().gather(*coros)

    async def run_batches(self, jobs):
        self.batches += 1
        return await super().run_batches(jobs)


class TestSuspensionBudget:
    """DESIGN.md §8's scheduling contract: an operation yields to the loop
    only where it waits for a backend."""

    PAGES = 16  # a five-level tree: spans 16, 8, 4, 2, 1

    def _written_store(self, runtime):
        """A store with dedicated caches over a published 16-page blob:
        ``(store, node_cache, page_cache, blob_id, version, payload)``."""
        node_cache, page_cache = NodeCache(), PageCache()
        store = AsyncBlobStore(
            small_cluster(), node_cache=node_cache, page_cache=page_cache,
            runtime=runtime,
        )
        payload = make_payload(self.PAGES * TEST_PAGE_SIZE, seed=24)

        async def write():
            blob_id = await store.create()
            version = await store.write(blob_id, payload, 0)
            await store.sync(blob_id, version)
            assert await store.read(blob_id, version, 0, len(payload)) == payload
            return blob_id, version

        blob_id, version = asyncio.run(write())
        return store, node_cache, page_cache, blob_id, version, payload

    def test_fully_cached_read_completes_in_one_send(self):
        runtime = _CountingRuntime()
        store, _nodes, _pages, blob_id, version, payload = self._written_store(runtime)
        runtime.gathers = runtime.batches = 0
        # Driven by hand, with no loop running: one send must finish it.
        coro = store.read_ex(blob_id, version, 0, len(payload))
        with pytest.raises(StopIteration) as stop:
            coro.send(None)
        data, stats = stop.value.value
        assert data == payload
        assert stats.metadata_round_trips == stats.data_round_trips == 0
        assert stats.metadata_cache_hits == 2 * self.PAGES - 1
        assert (runtime.gathers, runtime.batches) == (0, 0)

    def test_cached_nodes_uncached_pages_park_once(self):
        runtime = _CountingRuntime()
        store, _nodes, pages, blob_id, version, payload = self._written_store(runtime)
        pages.clear()
        runtime.gathers = runtime.batches = 0
        data, stats = asyncio.run(store.read_ex(blob_id, version, 0, len(payload)))
        assert data == payload
        assert stats.metadata_round_trips == 0
        assert stats.data_round_trips > 1  # several providers, ONE dispatch
        assert (runtime.gathers, runtime.batches) == (0, 1)

    @pytest.mark.parametrize(
        ("warm_pages", "miss_levels"), [(0, 5), (8, 4), (12, 3)],
        ids=["cold", "left-half-warm", "three-quarters-warm"],
    )
    def test_metadata_trips_are_the_levels_with_a_miss(self, warm_pages, miss_levels):
        def trips(runtime, run):
            store, nodes, pages, blob_id, version, payload = self._written_store(
                runtime
            )
            nodes.clear()
            pages.clear()
            if warm_pages:
                run(store.read(blob_id, version, 0, warm_pages * TEST_PAGE_SIZE))
            data, stats = run(store.read_ex(blob_id, version, 0, len(payload)))
            assert data == payload
            return stats.metadata_round_trips

        assert trips(_CountingRuntime(), asyncio.run) == miss_levels
        assert trips(SyncRuntime(), run_sync) == miss_levels


class TestFailedReadLeavesNothingBehind:
    """A tree walk that raises — a read's, or the border walk of a write —
    cancels and awaits every branch and speculative fetch it started; the
    loop holds nothing of it afterwards."""

    @pytest.mark.parametrize("case", ["plain", "speculative", "border_write"])
    def test_no_task_outlives_a_failed_read(self, case):
        cluster = Cluster(
            BlobSeerConfig(
                page_size=1024, num_data_providers=4, num_metadata_providers=4,
                speculative_prefetch=case == "speculative",
            ),
            node_cache=NodeCache(),
        )
        scenario = self._border_write if case == "border_write" else self._read
        assert asyncio.run(scenario(cluster)) == set()

    @staticmethod
    async def _read(cluster):
        store = AsyncBlobStore(cluster)
        blob_id = await store.create()
        for seed in range(4):
            payload = make_payload(64 * 1024, seed=seed)
            version = await store.append(blob_id, payload)
        await store.sync(blob_id, version)
        cluster.node_cache.clear()
        cluster.kill_metadata_bucket("meta-0001")
        with pytest.raises(ProviderUnavailableError):
            await store.read(blob_id, version, 0, 256 * 1024)
        return asyncio.all_tasks() - {asyncio.current_task()}

    @staticmethod
    async def _border_write(cluster):
        """A cold write of pages 3-6 ending mid-page: its boundary read walks
        only the path to page 6, so the published (0, 4) node — on a dead
        bucket — is fetched by the border walk alone.  The write's abort
        must reach the version manager: once the bucket is back, the next
        append publishes."""
        store = AsyncBlobStore(cluster)
        blob_id = await store.create()
        version = await store.append(blob_id, make_payload(8 * 1024))
        await store.sync(blob_id, version)

        def bucket(offset, size):
            key = NodeKey(blob_id, version, offset, size).to_string()
            return cluster.dht.buckets_for(key)[0]

        victim = bucket(0, 4)
        boundary_path = [(0, 8), (4, 4), (6, 2), (6, 1)]
        assert victim not in {bucket(*node) for node in boundary_path}
        cluster.node_cache.clear()
        cluster.kill_metadata_bucket(victim)
        with pytest.raises(ProviderUnavailableError):
            await store.write_ex(blob_id, make_payload(3 * 1024 + 100), 3 * 1024)
        leftovers = asyncio.all_tasks() - {asyncio.current_task()}
        cluster.revive_metadata_bucket(victim)
        after = await store.append(blob_id, b"tail")
        await asyncio.wait_for(store.sync(blob_id, after), timeout=10)
        return leftovers


SYNC_AND_LOOP = [
    pytest.param(SyncRuntime, run_sync, id="sync"),
    pytest.param(AsyncRuntime, asyncio.run, id="async"),
]


class TestOneCopyReads:
    """A READ copies each byte once: providers and caches hand back the
    immutable page payloads themselves, ``read_ex`` joins them and
    ``read_into`` copies them into the caller's buffer."""

    @staticmethod
    def _store(make_runtime, run, pages: int):
        """An unleased store with dedicated caches over a published blob of
        ``pages`` pages: ``(store, node_cache, page_cache, blob_id, version,
        payload)``."""
        node_cache, page_cache = NodeCache(), PageCache()
        store = AsyncBlobStore(
            small_cluster(), node_cache=node_cache, page_cache=page_cache,
            lease_versions=False, runtime=make_runtime(),
        )
        payload = make_payload(pages * TEST_PAGE_SIZE, seed=26)

        async def write():
            blob_id = await store.create()
            version = await store.write(blob_id, payload, 0)
            await store.sync(blob_id, version)
            return blob_id, version

        blob_id, version = run(write())
        return store, node_cache, page_cache, blob_id, version, payload

    @pytest.mark.parametrize(("make_runtime", "run"), SYNC_AND_LOOP)
    def test_cold_full_page_read_hands_back_the_stored_object(
        self, make_runtime, run
    ):
        store, _nodes, pages, blob_id, version, payload = self._store(
            make_runtime, run, 1
        )
        pages.clear()
        data, stats = run(store.read_ex(blob_id, version, 0, TEST_PAGE_SIZE))
        assert data == payload
        assert (stats.page_cache_hits, stats.data_round_trips) == (0, 1)
        cluster = store._cluster
        (provider,) = [
            p for p in cluster.provider_manager.providers() if p.page_count()
        ]
        (page_id,) = provider.page_ids()
        stored = provider._store._pages[page_id]
        # No copy anywhere: the cache entry and the result ARE the page.
        assert pages.get(cluster.page_cache_key(page_id, 0, TEST_PAGE_SIZE)) is stored
        assert data is stored

    @pytest.mark.parametrize(("make_runtime", "run"), SYNC_AND_LOOP)
    def test_read_into_matches_read_ex_bytes_and_stats(self, make_runtime, run):
        store, nodes, pages, blob_id, version, payload = self._store(
            make_runtime, run, 6
        )
        offset, size = TEST_PAGE_SIZE // 2 + 3, 4 * TEST_PAGE_SIZE + 5
        for cold in (True, False):
            if cold:
                nodes.clear()
                pages.clear()
            data, expected = run(store.read_ex(blob_id, version, offset, size))
            if cold:
                nodes.clear()
                pages.clear()
            out = bytearray(size)
            stats = run(store.read_into(blob_id, version, offset, out))
            assert out == data == payload[offset:offset + size]
            assert stats == expected
            assert (stats.page_cache_hits == 0) == cold

    def test_read_into_fills_any_writable_buffer(self):
        store, _nodes, _pages, blob_id, version, payload = self._store(
            SyncRuntime, run_sync, 3
        )
        words = array.array("H", bytes(2 * TEST_PAGE_SIZE))
        stats = run_sync(store.read_into(blob_id, version, 5, words))
        assert stats.bytes_read == 2 * TEST_PAGE_SIZE
        assert words.tobytes() == payload[5:5 + 2 * TEST_PAGE_SIZE]
        # A window of a larger buffer: the bytes around it stay untouched.
        backing = bytearray(b"#" * (TEST_PAGE_SIZE + 20))
        window = memoryview(backing)[10:10 + TEST_PAGE_SIZE]
        run_sync(store.read_into(blob_id, version, 7, window))
        window.release()
        assert backing[10:-10] == payload[7:7 + TEST_PAGE_SIZE]
        assert backing[:10] == backing[-10:] == b"#" * 10
        empty = run_sync(store.read_into(blob_id, version, 0, bytearray()))
        assert empty.bytes_read == 0

    def test_read_only_buffer_raises_before_any_io(self):
        store, nodes, pages, blob_id, version, _payload = self._store(
            SyncRuntime, run_sync, 2
        )
        providers = store._cluster.provider_manager.providers()

        def io_counters():
            fetched = sum(provider.stats().get_requests for provider in providers)
            return nodes.stats(), pages.stats(), fetched

        before = io_counters()
        with pytest.raises(TypeError):
            run_sync(store.read_into(blob_id, version, 0, bytes(TEST_PAGE_SIZE)))
        with pytest.raises(TypeError):
            run_sync(store.read_into(blob_id, version, 0, [0] * 8))
        bridge = BlobStore(store._cluster, node_cache=nodes, page_cache=pages)
        with pytest.raises(TypeError):
            bridge.read_into(blob_id, version, 0, b"x" * 8)
        assert io_counters() == before

    @pytest.mark.parametrize(("make_runtime", "run"), SYNC_AND_LOOP)
    def test_mutating_the_caller_buffer_leaves_the_cache_intact(
        self, make_runtime, run
    ):
        store, _nodes, pages, blob_id, version, payload = self._store(
            make_runtime, run, 2
        )
        pages.clear()
        out = bytearray(TEST_PAGE_SIZE)
        run(store.read_into(blob_id, version, 0, out))
        out[:] = b"\xff" * TEST_PAGE_SIZE
        data, stats = run(store.read_ex(blob_id, version, 0, TEST_PAGE_SIZE))
        assert (stats.page_cache_hits, stats.data_round_trips) == (1, 0)
        assert data == payload[:TEST_PAGE_SIZE]
        again = bytearray(TEST_PAGE_SIZE)
        run(store.read_into(blob_id, version, 0, again))
        assert again == payload[:TEST_PAGE_SIZE]
