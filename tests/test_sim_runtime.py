"""The shipped engine on the simulated clock (``repro.sim.runtime``).

One APPEND, three clocks: the same ``AsyncBlobStore.append_ex`` must report
the same trip counters whether a ``SimRuntime``, an ``AsyncRuntime`` or the
``SyncRuntime`` executes it — and on the virtual clock it must take time,
interleave with other writers, and abort cleanly when it fails.
"""

import asyncio
import random
from itertools import accumulate

import pytest

from dataclasses import replace

from repro import AsyncBlobStore, BlobSeerConfig, Cluster
from repro.aio import SYNC_RUNTIME, AsyncRuntime, run_sync
from repro.cache import CacheTally, NodeCache, PageCache
from repro.config import KiB
from repro.errors import ProviderUnavailableError, VersionNotPublishedError
from repro.sim import SimClient, SimDeployment, SimRuntime
from repro.vm import LeaseCache

PAGE = 16 * KiB
COUNTERS = (
    "pages_written",
    "metadata_nodes_written",
    "border_nodes_fetched",
    "metadata_round_trips",
    "data_round_trips",
    "vm_round_trips",
)


def _page_counts() -> list[int]:
    """A seeded list of append sizes (in pages) whose running total crosses
    several power-of-two page counts — where the tree grows a level."""
    rng = random.Random(22)
    counts = [rng.randint(1, 9) for _ in range(18)]
    totals = list(accumulate(counts))
    for power in (8, 16, 32, 64):
        assert any(
            before < power <= after for before, after in zip([0] + totals, totals)
        )
    return counts


def _counters(result) -> tuple:
    return tuple(getattr(result, name) for name in COUNTERS)


def _deployment() -> SimDeployment:
    return SimDeployment(num_provider_nodes=4, page_size=PAGE)


class TestCrossClockEquality:
    @pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
    def test_append_counters_equal_on_all_three_runtimes(self, cold):
        counts = _page_counts()

        def on_sim() -> list[tuple]:
            dep = _deployment()
            blob_id = dep.create_blob()
            client = SimClient(dep, 0)
            seen = []
            for pages in counts:
                if cold:
                    dep.clear_node_caches()
                outcome = dep.simulator.run_process(
                    client.append_process(blob_id, pages * PAGE)
                )
                seen.append(_counters(outcome.result))
            return seen

        def on_engine(runtime, run) -> list[tuple]:
            # Same geometry (a SimDeployment's cluster) and the same cache
            # state as a SimClient's machine: a private node cache, no page
            # cache traffic, a private version lease.
            dep = _deployment()
            blob_id = dep.create_blob()
            cache = NodeCache()
            lease = LeaseCache(dep.version_manager)
            store = AsyncBlobStore(
                dep.cluster, node_cache=cache, cache_pages=False,
                version_leases=lease, runtime=runtime,
            )
            seen = []
            for pages in counts:
                if cold:
                    cache.clear()
                    lease.clear()
                result = run(store.append_ex(blob_id, bytes(pages * PAGE)))
                seen.append(_counters(result))
            return seen

        simulated = on_sim()
        assert simulated == on_engine(AsyncRuntime(), asyncio.run)
        assert simulated == on_engine(SYNC_RUNTIME, run_sync)
        if cold:
            # The cold regime exercises the border-fetch (meta_get) leg.
            fetched = COUNTERS.index("border_nodes_fetched")
            assert any(row[fetched] for row in simulated)


READ_COUNTERS = (
    "pages_fetched",
    "metadata_nodes_fetched",
    "metadata_round_trips",
    "metadata_cache_hits",
    "data_round_trips",
    "page_cache_hits",
)
READ_PAGE = 1024


def _read_script() -> list[tuple[str, int, int]]:
    """A seeded list of ``(cache regime, byte offset, byte size)`` reads of
    a 96-page blob; ``half`` warms the first half of the range beforehand."""
    rng = random.Random(24)
    script = []
    for regime in ("cold", "half", "warm", "cold", "half", "warm", "warm", "cold"):
        pages = rng.randint(2, 40)
        start = rng.randint(0, 96 - pages)
        script.append(
            (regime, start * READ_PAGE + rng.randint(0, 99), pages * READ_PAGE - 100)
        )
    return script


class TestCrossRuntimeReads:
    """One READ on two shipped runtimes: the descent suspends differently
    (one batch per level vs. per-bucket branches) and must count alike."""

    @staticmethod
    def _run_script(
        runtime, run, speculate: bool, reader: str = "read_ex"
    ) -> list[tuple]:
        cluster = Cluster(
            BlobSeerConfig(
                page_size=READ_PAGE, num_data_providers=4, num_metadata_providers=4,
                speculative_prefetch=speculate,
            ),
            node_cache=NodeCache(),
            page_cache=PageCache(),
        )
        nodes, pages = NodeCache(), PageCache()
        store = AsyncBlobStore(
            cluster, node_cache=nodes, page_cache=pages, runtime=runtime
        )
        blob_id = run(store.create())
        for _ in range(3):
            run(store.append(blob_id, bytes(32 * READ_PAGE)))
        # Two overwrites, so subtrees carry different versions.
        run(store.write(blob_id, b"x" * (5 * READ_PAGE), 7 * READ_PAGE))
        version = run(store.write(blob_id, b"y" * 300, 40 * READ_PAGE + 17))
        run(store.sync(blob_id, version))
        seen = []
        for regime, offset, size in _read_script():
            if regime != "warm":
                nodes.clear()
                pages.clear()
            if regime == "half":
                run(store.read(blob_id, version, offset, size // 2))
            if reader == "read_into":
                out = bytearray(size)
                stats = run(store.read_into(blob_id, version, offset, out))
                data = bytes(out)
            else:
                data, stats = run(store.read_ex(blob_id, version, offset, size))
            seen.append((data, stats))
        # The two-range boundary read an unaligned write issues through
        # ``_read_byte_ranges``: cold, then warm.
        record, _trips = store._get_record(blob_id)
        nodes.clear()
        for _ in range(2):
            tally = CacheTally()
            plan = run(
                store._resolve_ranges(record, version, 128, [(3, 1), (77, 1)], tally)
            )
            seen.append(
                (
                    [d.page_id for d in plan.sorted_descriptors()],
                    (tally.hits, tally.fetched, tally.trips, plan.round_trips),
                )
            )
        return seen

    @pytest.mark.parametrize("speculate", [False, True], ids=["plain", "speculative"])
    def test_read_counters_equal_on_both_runtimes(self, speculate):
        on_sync = self._run_script(SYNC_RUNTIME, run_sync, speculate)
        on_loop = self._run_script(AsyncRuntime(), asyncio.run, speculate)
        assert len(on_sync) == len(on_loop) == len(_read_script()) + 2
        misses = 0
        for (sync_data, sync_stats), (loop_data, loop_stats) in zip(on_sync, on_loop):
            assert loop_data == sync_data
            if isinstance(sync_stats, tuple):  # the two-range boundary read
                assert loop_stats == sync_stats
                continue
            for name in READ_COUNTERS:
                assert getattr(loop_stats, name) == getattr(sync_stats, name), name
            # Speculation may move nothing but its own two counters.
            assert sync_stats.speculative_hits == sync_stats.speculative_wasted == 0
            assert replace(
                loop_stats, speculative_hits=0, speculative_wasted=0
            ) == sync_stats
            misses += sync_stats.metadata_round_trips
        assert misses  # the script does leave the caches
        if speculate:
            assert any(stats.speculative_hits for _data, stats in on_loop[:-2])

    @pytest.mark.parametrize("speculate", [False, True], ids=["plain", "speculative"])
    def test_read_into_equals_read_ex_on_both_runtimes(self, speculate):
        for runtime, run in ((SYNC_RUNTIME, run_sync), (AsyncRuntime(), asyncio.run)):
            joined = self._run_script(runtime, run, speculate)
            copied = self._run_script(runtime, run, speculate, reader="read_into")
            assert copied == joined


class TestVirtualClock:
    def test_virtual_time_advances_and_is_the_outcomes_elapsed(self):
        dep = _deployment()
        blob_id = dep.create_blob()
        client = SimClient(dep, 0)
        assert dep.simulator.now == 0.0
        outcome = dep.simulator.run_process(
            client.append_process(blob_id, 8 * PAGE)
        )
        # At least the payload's serialization on the client's NIC.
        assert outcome.elapsed >= 8 * PAGE / dep.sim_config.nic_bandwidth
        assert dep.simulator.now >= outcome.elapsed
        assert dep.network.bytes_moved >= 8 * PAGE

    def test_two_concurrent_writers_both_publish(self):
        dep = _deployment()
        blob_id = dep.create_blob()
        writers, appends = 2, 3

        def writer(index):
            client = SimClient(dep, index)
            versions = []
            for _ in range(appends):
                outcome = yield from client.append_process(blob_id, 4 * PAGE)
                versions.append(outcome.result.version)
            return versions

        processes = [
            dep.simulator.process(writer(index)) for index in range(writers)
        ]
        dep.simulator.run()
        versions = sorted(v for process in processes for v in process.event.value)
        assert versions == list(range(1, writers * appends + 1))
        vm = dep.version_manager
        assert vm.get_recent(blob_id) == writers * appends
        assert vm.inflight_count(blob_id) == 0
        # The writers really overlapped: their registrations group-committed.
        stats = dep.vm_stats()
        assert stats.register_batches < stats.register_requests

    def test_sync_polls_until_published(self):
        dep = _deployment()
        blob_id = dep.create_blob()
        store = AsyncBlobStore(
            dep.cluster, runtime=SimRuntime(dep, dep.client_node(0)),
            node_cache=NodeCache(), cache_pages=False, lease_versions=False,
        )

        async def append_then_sync():
            result = await store.append_ex(blob_id, bytes(2 * PAGE))
            returned_at = dep.simulator.now
            published = dep.version_manager.is_published(blob_id, result.version)
            await store.sync(blob_id, result.version)
            return published, returned_at

        published_on_return, returned_at = dep.simulator.run_process(
            append_then_sync()
        )
        # Publication is pipelined behind the writer's back; SYNC waits it out.
        assert not published_on_return
        assert dep.simulator.now > returned_at
        assert dep.version_manager.is_published(blob_id, 1)

        dep.version_manager.register_update(blob_id, PAGE, is_append=True)
        with pytest.raises(VersionNotPublishedError):
            dep.simulator.run_process(store.sync(blob_id, 2, timeout=0.01))

    def test_unaligned_write_charges_its_boundary_page_fetch(self):
        dep = _deployment()
        blob_id = dep.create_blob()
        store = AsyncBlobStore(
            dep.cluster, runtime=SimRuntime(dep, dep.client_node(0)),
            node_cache=NodeCache(), cache_pages=False, lease_versions=False,
        )
        dep.simulator.run_process(store.append_ex(blob_id, bytes(2 * PAGE)))
        moved = dep.network.bytes_moved
        result = dep.simulator.run_process(store.write_ex(blob_id, b"x" * 10, 5))
        # One boundary fetch plus one store, both on the virtual network.
        assert result.data_round_trips == 2
        assert dep.network.bytes_moved - moved >= 2 * PAGE - 10


class TestFailureDelivery:
    def test_handles_and_gather_deliver_a_childs_exception(self):
        dep = _deployment()
        runtime = SimRuntime(dep, dep.client_node(0))

        async def ok():
            await runtime.sleep(2.0)
            return "ok"

        async def boom():
            await runtime.sleep(1.0)
            raise KeyError("boom")

        async def parent():
            handle = runtime.start(boom())
            with pytest.raises(KeyError):
                await handle.result()
            assert handle.done()
            with pytest.raises(KeyError):
                await runtime.gather(ok(), boom())
            return await runtime.gather(ok(), ok())

        assert dep.simulator.run_process(parent()) == ["ok", "ok"]

    def test_failed_append_is_aborted_and_never_wedges_publication(self):
        """Regression: the hand-written simulated APPEND had no abort path —
        a version registered by an append that then failed stayed in flight
        forever and every later append stayed unpublished behind it."""
        dep = _deployment()
        blob_id = dep.create_blob()
        client = SimClient(dep, 0)
        vm = dep.version_manager
        dep.simulator.run_process(client.append_process(blob_id, 4 * PAGE))
        assert vm.get_recent(blob_id) == 1

        buckets = dep.cluster.dht.bucket_ids()
        for bucket_id in buckets:
            dep.cluster.kill_metadata_bucket(bucket_id)
        with pytest.raises(ProviderUnavailableError):
            dep.simulator.run_process(client.append_process(blob_id, 4 * PAGE))
        for bucket_id in buckets:
            dep.cluster.revive_metadata_bucket(bucket_id)
        dep.simulator.run()

        dep.simulator.run_process(client.append_process(blob_id, 4 * PAGE))
        assert vm.get_recent(blob_id) == 3
        assert vm.inflight_count(blob_id) == 0
