"""Tests for the shared page payload cache (:mod:`repro.cache.page_cache`).

Mirrors ``test_node_cache.py`` one layer down — the four concerns, for page
bytes instead of tree nodes:

* the :class:`PageCache` data structure — payload-dominated byte weights,
  LRU eviction, the page-group index (all sub-ranges of one page share a
  shard and are discarded together), and budget enforcement under
  concurrent readers;
* the sharing semantics — stores on one cluster warm each other so warm
  repeated reads cost ZERO data round trips, clusters sharing the
  process-wide default cache stay isolated through their namespaces, GC
  discards exactly the pages it deletes, and ``page_cache_entries=None``
  disables the subsystem;
* end-to-end correctness — a hypothesis property drives random APPEND /
  WRITE / BRANCH histories and checks page-cached reads are byte-identical
  to uncached reads, including under eviction pressure from a tiny budget;
* the simulator — warm repeated reads skip the provider NIC pipes
  entirely (``data_round_trips == 0``, hit rate 1.0) and a cache clear
  restores the cold regime.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import BlobStore, CacheStats, Cluster, PageCache
from repro.cache import page_weight, shared_page_cache
from repro.sim.client import SimClient
from repro.sim.deployment import SimDeployment
from repro.tools.gc import collect_garbage

from .conftest import TEST_PAGE_SIZE, make_payload

PAGE = TEST_PAGE_SIZE


def small_cluster(**overrides) -> Cluster:
    return Cluster.in_memory(
        num_data_providers=4, num_metadata_providers=4, page_size=PAGE,
        **overrides,
    )


class TestPageCacheStructure:
    def test_payload_bytes_dominate_entry_weight(self):
        small = page_weight(("ns", "p", 0, 16), b"x" * 16)
        large = page_weight(("ns", "p", 0, 4096), b"x" * 4096)
        assert large - small == 4096 - 16

    def test_byte_budget_evicts_lru_payloads(self):
        payload = b"d" * 100
        weight = page_weight(("ns", "p-000", 0, 100), payload)
        cache = PageCache(max_entries=10_000, max_bytes=4 * weight, shards=1)
        for index in range(12):
            cache.put(("ns", f"p-{index:03d}", 0, 100), payload)
            assert cache.bytes_used() <= cache.max_bytes
        stats = cache.stats()
        assert stats.entries == 4
        assert stats.evictions == 8
        # LRU order: the most recently inserted ranges survive.
        assert cache.get(("ns", "p-011", 0, 100)) == payload
        assert cache.get(("ns", "p-000", 0, 100)) is None

    def test_entry_heavier_than_its_shard_is_not_admitted(self):
        # Regression: admitting first and evicting after emptied the whole
        # shard, the oversize entry included.
        cache = PageCache(max_entries=64, max_bytes=8 * 1024, shards=1)
        small = [(("ns", f"p{index}", 0, 1024), b"s" * 1024) for index in range(4)]
        cache.put_many(small)
        assert (cache.stats().entries, cache.stats().evictions) == (4, 0)
        cache.put(("ns", "huge", 0, 16 * 1024), b"h" * (16 * 1024))
        stats = cache.stats()
        assert (stats.entries, stats.evictions) == (4, 0)
        assert cache.get(("ns", "huge", 0, 16 * 1024)) is None
        assert all(cache.get(key) == value for key, value in small)

    def test_sub_ranges_of_one_page_share_a_shard_and_discard_together(self):
        cache = PageCache(max_entries=64, max_bytes=64 * 1024, shards=4)
        for offset, length in [(0, 10), (10, 20), (5, 40)]:
            cache.put(("ns", "page-a", offset, length), b"r" * length)
        cache.put(("ns", "page-b", 0, 10), b"b" * 10)
        assert cache.discard_page("ns", "page-a") == 3
        assert cache.get(("ns", "page-a", 0, 10)) is None
        assert cache.get(("ns", "page-a", 10, 20)) is None
        assert cache.get(("ns", "page-b", 0, 10)) == b"b" * 10
        assert cache.discard_page("ns", "page-a") == 0  # idempotent
        # Eviction maintains the group index: evicted entries are no longer
        # counted by a later discard.
        tiny = PageCache(max_entries=2, max_bytes=64 * 1024, shards=1)
        tiny.put(("ns", "p1", 0, 8), b"1" * 8)
        tiny.put(("ns", "p2", 0, 8), b"2" * 8)
        tiny.put(("ns", "p3", 0, 8), b"3" * 8)  # evicts p1's range
        assert tiny.discard_page("ns", "p1") == 0
        assert tiny.discard_page("ns", "p2") == 1

    def test_budget_enforced_under_concurrent_readers(self):
        payload = b"c" * 64
        cache = PageCache(max_entries=48, max_bytes=48 * 200, shards=4)
        errors: list[Exception] = []

        def hammer(worker: int) -> None:
            try:
                for round_index in range(300):
                    key = ("ns", f"p-{(worker * 11 + round_index) % 96}", 0, 64)
                    if cache.get(key) is None:
                        cache.put(key, payload)
                    cache.get_many(
                        [("ns", f"p-{i}", 0, 64) for i in range(5)]
                    )
                    assert cache.bytes_used() <= cache.max_bytes * 2
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert stats.entries <= cache.max_entries
        assert stats.bytes <= cache.max_bytes
        assert stats.entries == len(cache)
        assert stats.hits + stats.misses == 8 * 300 * 6


class TestSharingSemantics:
    def test_warm_repeated_read_skips_the_providers(self):
        cluster = small_cluster()
        store = BlobStore(cluster, page_cache=PageCache())
        blob_id = store.create()
        payload = make_payload(16 * PAGE)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        data, cold = store.read_ex(blob_id, version, 0, len(payload))
        assert data == payload
        assert cold.data_round_trips > 0 and cold.page_cache_hits == 0
        gets_before = sum(
            provider.stats().get_requests
            for provider in cluster.provider_manager.providers()
        )
        data, warm = store.read_ex(blob_id, version, 0, len(payload))
        assert data == payload
        assert warm.data_round_trips == 0
        assert warm.page_cache_hits == warm.pages_fetched > 0
        # The private cache's own counters are exactly the two reads' tallies.
        assert store.page_cache_stats().hits == warm.page_cache_hits
        assert store.page_cache_stats().misses == cold.pages_fetched
        assert sum(
            provider.stats().get_requests
            for provider in cluster.provider_manager.providers()
        ) == gets_before

    def test_two_stores_on_one_cluster_share_page_hits(self):
        cluster = small_cluster(page_cache_entries=4096)
        first = BlobStore(cluster)
        second = BlobStore(cluster)
        blob_id = first.create()
        payload = make_payload(8 * PAGE, seed=3)
        version = first.append(blob_id, payload)
        second.sync(blob_id, version)
        first.read(blob_id, version, 0, len(payload))  # warms the cluster cache
        _, stats = second.read_ex(blob_id, version, 0, len(payload))
        assert stats.data_round_trips == 0
        assert stats.page_cache_hits == stats.pages_fetched
        assert first.page_cache_stats() == second.page_cache_stats()

    def test_default_clusters_share_the_process_wide_cache(self):
        one, two = small_cluster(), small_cluster()
        assert one.page_cache is two.page_cache is shared_page_cache()
        # ...but namespaces keep them apart: same id generators, same page
        # ids, yet each cluster reads back its own bytes warm.
        store_one, store_two = BlobStore(one), BlobStore(two)
        blob_one, blob_two = store_one.create(), store_two.create()
        payload_one = make_payload(8 * PAGE, seed=1)
        payload_two = make_payload(8 * PAGE, seed=2)
        store_one.sync(blob_one, store_one.append(blob_one, payload_one))
        store_two.sync(blob_two, store_two.append(blob_two, payload_two))
        for _pass in range(2):  # second pass is served from the shared cache
            assert store_one.read(blob_one, 1, 0, len(payload_one)) == payload_one
            assert store_two.read(blob_two, 1, 0, len(payload_two)) == payload_two

    def test_page_cache_entries_none_disables_the_subsystem(self):
        cluster = small_cluster(page_cache_entries=None)
        assert cluster.page_cache is None
        store = BlobStore(cluster)
        blob_id = store.create()
        payload = make_payload(4 * PAGE)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        for _pass in range(2):
            data, stats = store.read_ex(blob_id, version, 0, len(payload))
            assert data == payload
            assert stats.data_round_trips > 0
            assert stats.page_cache_hits == 0
        assert store.page_cache_stats() == CacheStats()

    def test_gc_discards_collected_pages_from_the_cache(self):
        cluster = small_cluster(page_cache_entries=4096)
        store = BlobStore(cluster)
        blob_id = store.create()
        store.append(blob_id, make_payload(4 * PAGE, seed=1))
        replacement = make_payload(4 * PAGE, seed=2)
        version = store.write(blob_id, replacement, 0)
        store.sync(blob_id, version)
        store.read(blob_id, 1, 0, 4 * PAGE)  # warm v1's pages
        entries_before = cluster.page_cache.stats().entries
        assert entries_before > 0
        collect_garbage(cluster, {blob_id: [version]})
        # v1's pages are gone from providers AND from the cache: a read of
        # the collected snapshot must not be wrongly served from memory.
        assert cluster.page_cache.stats().entries < entries_before
        with pytest.raises(Exception):
            store.read(blob_id, 1, 0, 4 * PAGE)
        # The kept snapshot reads correctly, warm or cold.
        assert store.read(blob_id, version, 0, 4 * PAGE) == replacement
        assert store.read(blob_id, version, 0, 4 * PAGE) == replacement

    def test_eviction_pressure_keeps_reads_correct(self):
        cluster = small_cluster()
        tiny = PageCache(max_entries=8, max_bytes=8 * 1024, shards=2)
        store = BlobStore(cluster, page_cache=tiny)
        cold = BlobStore(cluster, cache_pages=False, cache_metadata=False)
        blob_id = store.create()
        payload = make_payload(32 * PAGE, seed=9)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        for offset, length in [(0, len(payload)), (3 * PAGE, 11 * PAGE), (7, 301)]:
            for _pass in range(2):
                assert store.read(blob_id, version, offset, length) == \
                    cold.read(blob_id, version, offset, length)
        assert len(tiny) <= 8
        assert tiny.stats().evictions > 0


class TestSimulatedPageCache:
    def test_warm_sim_reads_skip_provider_pipes(self):
        deployment = SimDeployment(num_provider_nodes=8, page_size=64 * 1024)
        blob_id = deployment.create_blob()
        deployment.populate_blob(blob_id, 8 * 1024 * 1024)
        version = deployment.version_manager.get_recent(blob_id)
        client = SimClient(deployment, 0)
        cold = deployment.simulator.run_process(
            client.read_process(blob_id, version, 0, 4 * 1024 * 1024)
        )
        assert cold.stats.page_cache_hits == 0 and cold.stats.data_round_trips == 8
        deployment.reset_timing()
        warm = deployment.simulator.run_process(
            SimClient(deployment, 0).read_process(blob_id, version, 0, 4 * 1024 * 1024)
        )
        assert warm.stats.data_round_trips == 0
        assert warm.stats.page_cache_hits == warm.stats.pages_fetched
        assert warm.page_cache_hit_rate == 1.0
        assert warm.elapsed < cold.elapsed  # memory bandwidth beats the NIC
        assert warm.elapsed > 0.0  # ...but serving bytes is not free
        # A different range misses; a cache clear restores the cold regime.
        deployment.reset_timing()
        other = deployment.simulator.run_process(
            SimClient(deployment, 0).read_process(
                blob_id, version, 4 * 1024 * 1024, 4 * 1024 * 1024
            )
        )
        assert other.stats.page_cache_hits == 0
        deployment.clear_node_caches()
        deployment.reset_timing()
        recold = deployment.simulator.run_process(
            SimClient(deployment, 0).read_process(blob_id, version, 0, 4 * 1024 * 1024)
        )
        assert recold.stats.page_cache_hits == 0
        assert recold.stats.data_round_trips == 8


# --------------------------------------------------------------- property test
operation_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 3 * PAGE), st.integers(0, 255)),
        st.tuples(st.just("write"), st.integers(1, 2 * PAGE), st.integers(0, 255)),
        st.tuples(st.just("branch"), st.integers(0, 8), st.integers(0, 255)),
    ),
    min_size=1,
    max_size=10,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(operations=operation_strategy, data=st.data())
def test_page_cached_reads_match_uncached_reads_across_histories(operations, data):
    """Random APPEND / WRITE / BRANCH histories: every published snapshot
    must read identically through a warm shared page cache, a tiny
    thrashing one, and no page cache at all — twice, so the pure-hit path
    is exercised."""
    cluster = Cluster.in_memory(
        num_data_providers=4, num_metadata_providers=4, page_size=PAGE
    )
    warm = BlobStore(cluster, page_cache=PageCache())
    tiny = BlobStore(
        cluster, page_cache=PageCache(max_entries=6, max_bytes=4096, shards=2)
    )
    cold = BlobStore(cluster, cache_pages=False, cache_metadata=False)

    blobs = [warm.create()]
    for operation, amount, fill in operations:
        blob_id = data.draw(st.sampled_from(blobs))
        recent = warm.get_recent(blob_id)
        if operation == "append":
            warm.sync(blob_id, warm.append(blob_id, bytes([fill]) * amount))
        elif operation == "write":
            size = warm.get_size(blob_id, recent)
            offset = data.draw(st.integers(0, max(size - 1, 0)))
            warm.sync(blob_id, warm.write(blob_id, bytes([fill]) * amount, offset))
        else:
            if recent > 0:
                version = data.draw(st.integers(1, recent))
                blobs.append(warm.branch(blob_id, version))

    for blob_id in blobs:
        for version in range(1, warm.get_recent(blob_id) + 1):
            size = warm.get_size(blob_id, version)
            expected = cold.read(blob_id, version, 0, size)
            for _ in range(2):  # second pass hits the warm/thrashed caches
                assert warm.read(blob_id, version, 0, size) == expected
                assert tiny.read(blob_id, version, 0, size) == expected
