"""Tests for the provider-parallel (batched) data path.

Mirrors ``test_batch_metadata.py`` one layer down: the same three concerns,
now for pages instead of tree nodes:

* the provider multi-ops — ``multi_fetch``/``multi_store`` must be
  byte-for-byte equivalent to the per-page loop, count one batch per
  request, and fail whole batches on a dead provider;
* the provider-manager grouping — requests are grouped into one batch per
  provider, results stay aligned with the request order, and a dead
  provider surfaces after the live ones finished;
* end-to-end accounting — ``ReadStats.data_round_trips`` and
  ``WriteResult.data_round_trips`` are O(providers touched), not O(pages),
  on aligned and unaligned reads/writes, with bytes and page counts
  unchanged by batching.
"""

import pytest

from repro import BlobStore, Cluster
from repro.aio import SyncRuntime, run_sync
from repro.errors import (
    IntegrityError,
    PageNotFoundError,
    ProviderUnavailableError,
    ShortReadError,
)
from repro.metadata.geometry import pages_for_size, span_for_pages
from repro.providers.data_provider import DataProvider
from repro.providers.provider_manager import ProviderManager
from repro.sim.client import SimClient
from repro.sim.deployment import SimDeployment
from repro.util.ranges import covering_page_range

from .conftest import TEST_PAGE_SIZE, make_payload, run_inline

PAGE = TEST_PAGE_SIZE


def manager_store(manager, items, runtime=None):
    """Single-home batched store of ``(provider_id, page_id, payload)``
    items through the manager; returns the per-provider batch count."""
    _landed, trips = run_inline(
        manager.multi_store_replicated_async,
        [((provider_id,), page_id, payload) for provider_id, page_id, payload in items],
        runtime,
    )
    return trips


def manager_fetch(manager, requests, runtime=None):
    """Batched fetch of ``(provider_id, page_id, offset, length)`` requests
    through the manager; returns ``(payloads, batch count)``."""
    return run_inline(manager.multi_fetch_into_async, requests, runtime)


def per_page_read(cluster, store, blob_id, version, offset, size):
    """Reference READ fetching every page with its own ``fetch_page`` call
    (the old protocol); returns (data, pages_fetched)."""
    record = cluster.version_manager.get_record(blob_id)
    page_size = record.page_size
    snapshot_size = cluster.version_manager.get_size(blob_id, version)
    page_offset, page_count = covering_page_range(offset, size, page_size)
    span = span_for_pages(pages_for_size(snapshot_size, page_size))
    plan_result = run_sync(
        store._engine._resolve_ranges(
            record, version, span, [(page_offset, page_count)]
        )
    )
    buffer = bytearray(size)
    fetched = 0
    for descriptor in plan_result.sorted_descriptors():
        page_start = descriptor.page_index * page_size
        want_start = max(offset, page_start)
        want_end = min(offset + size, page_start + page_size)
        if want_end <= want_start:
            continue
        chunk = cluster.provider_manager.provider(descriptor.provider_id).fetch_page(
            descriptor.page_id,
            offset=want_start - page_start,
            length=want_end - want_start,
        )
        buffer[want_start - offset:want_start - offset + len(chunk)] = chunk
        fetched += 1
    return bytes(buffer), fetched


class TestProviderMultiOps:
    def test_multi_store_then_multi_fetch_round_trip(self):
        provider = DataProvider("data-0000")
        items = [(f"p{i}", bytes([i]) * (10 + i)) for i in range(6)]
        provider.multi_store(items)
        payloads = provider.multi_fetch([(pid, 0, len(data)) for pid, data in items])
        assert payloads == [data for _, data in items]

    def test_batch_equals_per_page_loop(self):
        batched = DataProvider("data-batch")
        looped = DataProvider("data-loop")
        items = [(f"p{i}", make_payload(40, seed=i)) for i in range(5)]
        batched.multi_store(items)
        for page_id, data in items:
            looped.store_page(page_id, data)
        requests = [(f"p{i}", 3, 7) for i in range(5)]
        assert batched.multi_fetch(requests) == [
            looped.fetch_page(pid, offset=off, length=length)
            for pid, off, length in requests
        ]
        # Same per-page counters, one batch instead of N requests.
        bstats, lstats = batched.stats(), looped.stats()
        assert (bstats.put_requests, bstats.get_requests) == (
            lstats.put_requests, lstats.get_requests,
        )
        assert (bstats.batch_put_requests, bstats.batch_get_requests) == (1, 1)
        assert (lstats.batch_put_requests, lstats.batch_get_requests) == (0, 0)

    def test_empty_batches_are_free(self):
        provider = DataProvider("data-0000")
        provider.multi_store([])
        assert provider.multi_fetch([]) == []
        stats = provider.stats()
        assert stats.batch_put_requests == 0
        assert stats.batch_get_requests == 0

    def test_dead_provider_fails_the_whole_batch(self):
        provider = DataProvider("data-0000")
        provider.multi_store([("p0", b"x"), ("p1", b"y")])
        provider.kill()
        with pytest.raises(ProviderUnavailableError):
            provider.multi_fetch([("p0", 0, 1)])
        with pytest.raises(ProviderUnavailableError):
            provider.multi_store([("p2", b"z")])
        provider.revive()
        assert provider.multi_fetch([("p0", 0, 1), ("p1", 0, 1)]) == [
            b"x", b"y",
        ]

    def test_missing_page_raises_like_fetch_page(self):
        provider = DataProvider("data-0000")
        provider.store_page("p0", b"x")
        with pytest.raises(PageNotFoundError):
            provider.multi_fetch([("p0", 0, 1), ("ghost", 0, 1)])

    def test_full_page_batched_reads_verify_checksums(self):
        provider = DataProvider("data-0000", verify_checksums=True)
        provider.multi_store([("p0", b"payload-bytes")])
        # Full-page reads verify, whether the length is explicit or open.
        assert provider.fetch_page("p0") == b"payload-bytes"
        assert provider.multi_fetch([("p0", 0, 13)]) == [b"payload-bytes"]
        provider._store._pages["p0"] = b"corrupted-byte"[:13]
        with pytest.raises(IntegrityError):
            provider.fetch_page("p0")
        with pytest.raises(IntegrityError):
            provider.multi_fetch([("p0", 0, 13)])
        # Partial reads cannot verify and still pass through.
        assert provider.multi_fetch([("p0", 1, 4)]) == [b"orru"]


class TestShortReads:
    """Short reads must raise, never silently serve short or zero-filled
    data.

    Regression tests for the PR 5 bugfix: the batched fetch used to copy
    ``len(data)`` bytes into a zeroed destination and count them, so a
    truncated stored page came back with a tail of zeros served as blob
    content.  Payloads are now returned as they are, and every length is
    reconciled against its request.
    """

    def test_truncated_page_raises_instead_of_serving_zeros(self):
        provider = DataProvider("data-0000")
        provider.store_page("p0", b"x" * 64)
        # Simulate truncation: the store now holds fewer bytes than the
        # leaf metadata (and hence the request length) promises.
        provider._store.put("p0", b"x" * 40)
        with pytest.raises(ShortReadError):
            provider.multi_fetch([("p0", 0, 64)])

    def test_truncated_page_raises_on_checksum_verify_path_too(self):
        provider = DataProvider("data-0000", verify_checksums=True)
        provider.store_page("p0", b"y" * 64)
        # The re-put refreshes the stored checksum, so only the length
        # reconciliation can catch the truncation — the verify path used to
        # be the one silently zero-filling.
        provider._store.put("p0", b"y" * 40)
        with pytest.raises(ShortReadError):
            provider.multi_fetch([("p0", 0, 64)])

    def test_intact_page_still_reads_full_window(self):
        provider = DataProvider("data-0000")
        provider.store_page("p0", b"z" * 64)
        assert provider.multi_fetch([("p0", 8, 16)]) == [b"z" * 16]

    def test_manager_reconciles_batch_byte_counts(self):
        # Even a provider implementation that does NOT self-check cannot
        # smuggle a short batch past the manager: every payload length is
        # reconciled against its request.
        manager = ProviderManager()
        provider = DataProvider("data-0000")
        provider.store_page("p0", b"w" * 64)
        manager.register(provider)
        provider.multi_fetch = lambda requests: [b"www"]  # a short payload
        with pytest.raises(ShortReadError):
            manager_fetch(manager, [("data-0000", "p0", 0, 8)])
        provider.multi_fetch = lambda requests: []  # a payload missing
        with pytest.raises(ShortReadError):
            manager_fetch(manager, [("data-0000", "p0", 0, 8)])

    def test_end_to_end_read_surfaces_truncation(self, store, cluster, blob_id):
        payload = make_payload(4 * PAGE, seed=11)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        victim = next(
            provider
            for provider in cluster.provider_manager.providers()
            if provider.page_count()
        )
        page_id = victim.page_ids()[0]
        original = victim._store.get(page_id)
        victim._store.put(page_id, original[:-10])
        with pytest.raises(ShortReadError):
            store.read(blob_id, version, 0, 4 * PAGE)


class TestProviderManagerGrouping:
    def _manager(self, count=4):
        manager = ProviderManager()
        providers = [DataProvider(f"data-{i:04d}") for i in range(count)]
        for provider in providers:
            manager.register(provider)
        return manager, providers

    def test_requests_grouped_one_batch_per_provider(self):
        manager, providers = self._manager(3)
        items = [
            (f"data-{i % 3:04d}", f"p{i}", bytes([i]) * 8) for i in range(9)
        ]
        trips = manager_store(manager, items)
        assert trips == 3
        requests = [(pid, page_id, 0, 8) for pid, page_id, _ in items]
        payloads, fetch_trips = manager_fetch(manager, requests)
        assert payloads == [payload for _, _, payload in items]
        assert fetch_trips == 3
        for provider in providers:
            stats = provider.stats()
            assert stats.put_requests == 3 and stats.batch_put_requests == 1
            assert stats.get_requests == 3 and stats.batch_get_requests == 1

    def test_empty_request_list(self):
        manager, _providers = self._manager(2)
        assert manager_fetch(manager, []) == ([], 0)
        assert manager_store(manager, []) == 0

    def test_killed_provider_mid_batch_fails_after_live_ones(self):
        manager, providers = self._manager(3)
        items = [(f"data-{i % 3:04d}", f"p{i}", b"x" * 4) for i in range(6)]
        manager_store(manager, items)
        providers[1].kill()
        with pytest.raises(ProviderUnavailableError):
            manager_fetch(manager, [(pid, page_id, 0, 4) for pid, page_id, _ in items])
        # The live providers' batches still completed before the error; the
        # dead one rejected its batch before counting it.
        assert providers[0].stats().batch_get_requests == 1
        assert providers[2].stats().batch_get_requests == 1
        assert providers[1].stats().batch_get_requests == 0

    def test_run_batches_hook_receives_one_job_per_provider(self):
        manager, _providers = self._manager(4)
        items = [(f"data-{i % 4:04d}", f"p{i}", b"y" * 4) for i in range(8)]
        seen = []

        class CountingRuntime(SyncRuntime):
            async def run_batches(self, jobs):
                seen.append(len(jobs))
                return await super().run_batches(jobs)

        runtime = CountingRuntime()
        manager_store(manager, items, runtime)
        manager_fetch(
            manager, [(pid, page_id, 0, 4) for pid, page_id, _ in items], runtime
        )
        assert seen == [4, 4]


class TestEndToEndAccounting:
    def _cluster(self, providers=8, page_size=PAGE):
        return Cluster.in_memory(
            num_data_providers=providers,
            num_metadata_providers=8,
            page_size=page_size,
        )

    def test_128_page_read_over_8_providers_is_8_trips(self):
        cluster = self._cluster(providers=8)
        store = BlobStore(cluster)
        blob_id = store.create()
        payload = make_payload(128 * PAGE, seed=3)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        data, stats = store.read_ex(blob_id, version, 0, 128 * PAGE)
        assert data == payload
        assert stats.pages_fetched == 128
        assert stats.data_round_trips <= 8  # one batch per provider
        # Bytes and page counts identical to the per-page reference path.
        expected, fetched = per_page_read(
            cluster, store, blob_id, version, 0, 128 * PAGE
        )
        assert data == expected and fetched == 128

    def test_aligned_write_trips_count_providers_not_pages(self):
        cluster = self._cluster(providers=4)
        store = BlobStore(cluster)
        blob_id = store.create()
        result = store.write_ex(blob_id, make_payload(32 * PAGE, seed=1), 0)
        assert result.pages_written == 32
        assert result.data_round_trips == 4
        assert result.bytes_written == 32 * PAGE

    def test_unaligned_read_and_write_trips(self):
        cluster = self._cluster(providers=4)
        store = BlobStore(cluster)
        blob_id = store.create()
        version = store.append(blob_id, make_payload(8 * PAGE, seed=2))
        store.sync(blob_id, version)

        # Unaligned read: partial first/last pages are still one batch per
        # provider holding a touched page.
        data, stats = store.read_ex(blob_id, version, PAGE // 2, 5 * PAGE)
        assert stats.pages_fetched == 6
        assert 1 <= stats.data_round_trips <= 4
        assert data == make_payload(8 * PAGE, seed=2)[PAGE // 2:PAGE // 2 + 5 * PAGE]

        # Unaligned write: boundary fetches and the store are all batched —
        # trips are bounded by providers touched, never by pages.
        result = store.write_ex(blob_id, make_payload(300, seed=4), PAGE // 2)
        boundary_pages = result.pages_written
        assert result.data_round_trips <= 4 + min(boundary_pages, 4)
        store.sync(blob_id, result.version)
        merged = store.read(blob_id, result.version, 0, 8 * PAGE)
        reference = bytearray(make_payload(8 * PAGE, seed=2))
        reference[PAGE // 2:PAGE // 2 + 300] = make_payload(300, seed=4)
        assert merged == bytes(reference)

    def test_mid_store_death_discards_landed_pages(self):
        cluster = self._cluster(providers=2)
        store = BlobStore(cluster)
        blob_id = store.create()
        version = store.append(blob_id, make_payload(4 * PAGE, seed=7))
        store.sync(blob_id, version)
        pages_before = cluster.provider_manager.total_pages()
        victim = cluster.provider_manager.provider("data-0001")
        original = victim.multi_store

        def dying_multi_store(items):
            victim.kill()
            return original(items)

        victim.multi_store = dying_multi_store
        # The victim dies mid-update: the other provider's batch landed, the
        # write fails, and the landed pages are garbage-collected.
        with pytest.raises(ProviderUnavailableError):
            store.append(blob_id, make_payload(4 * PAGE, seed=8))
        assert cluster.provider_manager.total_pages() == pages_before
        assert store.get_recent(blob_id) == version

    def test_read_fails_cleanly_when_a_provider_dies_mid_batch(self):
        cluster = self._cluster(providers=4)
        store = BlobStore(cluster)
        blob_id = store.create()
        payload = make_payload(8 * PAGE, seed=5)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        victim = cluster.provider_manager.provider("data-0002")
        victim.kill()
        # The dead provider's batch fails the READ; writes keep working
        # because allocation skips dead providers.
        with pytest.raises(ProviderUnavailableError):
            store.read(blob_id, version, 0, 8 * PAGE)
        next_version = store.append(blob_id, make_payload(4 * PAGE, seed=6))
        store.sync(blob_id, next_version)
        victim.revive()
        assert store.read(blob_id, version, 0, 8 * PAGE) == payload


class TestSimulatedDataTrips:
    def test_sim_read_and_append_report_provider_batches(self):
        deployment = SimDeployment(num_provider_nodes=8, page_size=64 * 1024)
        blob_id = deployment.create_blob()
        client = SimClient(deployment, 0)
        outcome = deployment.simulator.run_process(
            client.append_process(blob_id, 2 * 1024 * 1024)
        )
        assert outcome.result.pages_written == 32
        assert outcome.result.data_round_trips == 8  # one multi-push per provider
        read = deployment.simulator.run_process(
            client.read_process(blob_id, outcome.result.version, 0, 2 * 1024 * 1024)
        )
        assert read.stats.pages_fetched == 32
        assert read.stats.data_round_trips == 8  # one multi-fetch per provider
        # The appender's write-through warmed its machine's cache, so the
        # traversal is free; a cold client pays batched frontier trips.
        assert read.stats.metadata_round_trips == 0
        assert read.stats.metadata_cache_hits > 0
        deployment.clear_node_caches()
        cold = deployment.simulator.run_process(
            client.read_process(blob_id, outcome.result.version, 0, 2 * 1024 * 1024)
        )
        assert cold.stats.metadata_cache_hits == 0
        assert 0 < cold.stats.metadata_round_trips < cold.stats.metadata_nodes_fetched
