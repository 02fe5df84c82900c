"""Tests for the shared metadata cache subsystem (:mod:`repro.cache`).

Four concerns:

* the :class:`NodeCache` data structure itself — LRU eviction order, entry
  and byte budget enforcement, batched lookups, and behaviour under
  concurrent readers;
* the sharing semantics — two ``BlobStore`` instances on one cluster warm
  each other, clusters sharing the process-wide default cache stay isolated
  through their namespaces, and GC invalidates what it deletes;
* end-to-end correctness — a property test drives random APPEND / WRITE /
  BRANCH histories and checks warm-cache reads are byte-identical to
  cold-cache reads, including under eviction pressure from a tiny budget;
* the structured stats — :class:`CacheStats` arithmetic and the deprecated
  positional tuple shim.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import BlobStore, CacheStats, Cluster, NodeCache
from repro.errors import ConfigurationError, MetadataNotFoundError
from repro.cache import node_weight, shared_node_cache
from repro.cache.sharded_lru import ENTRY_OVERHEAD
from repro.metadata.node import InnerNode, LeafNode, NodeKey
from repro.tools.gc import collect_garbage

from .conftest import TEST_PAGE_SIZE, make_payload, run_inline

PAGE = TEST_PAGE_SIZE


def small_cluster(**overrides) -> Cluster:
    return Cluster.in_memory(
        num_data_providers=4, num_metadata_providers=4, page_size=PAGE,
        **overrides,
    )


class TestLRUSemantics:
    def test_eviction_follows_recency_order(self):
        cache = NodeCache(max_entries=3, shards=1)
        node = InnerNode(1, 1)
        cache.put("a", node)
        cache.put("b", node)
        cache.put("c", node)
        assert cache.get("a") is node          # refresh: a is now most recent
        cache.put("d", node)                   # evicts b, the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") is node
        assert cache.get("c") is node
        assert cache.get("d") is node
        assert cache.stats().evictions == 1

    def test_reinsert_refreshes_recency_without_double_counting(self):
        cache = NodeCache(max_entries=2, shards=1)
        node = InnerNode(1, None)
        cache.put("a", node)
        cache.put("b", node)
        bytes_before = cache.bytes_used()
        cache.put("a", node)                   # immutable: refresh, not grow
        assert cache.bytes_used() == bytes_before
        cache.put("c", node)                   # evicts b, not a
        assert cache.get("b") is None
        assert cache.get("a") is node

    def test_byte_budget_enforced(self):
        leaf = LeafNode("page-00000001", "data-0000", PAGE)
        weight = node_weight("k-000", leaf)
        cache = NodeCache(max_entries=10_000, max_bytes=4 * weight, shards=1)
        for index in range(20):
            cache.put(f"k-{index:03d}", leaf)
            assert cache.bytes_used() <= cache.max_bytes
        stats = cache.stats()
        assert stats.entries == 4
        assert stats.evictions == 16
        assert stats.bytes <= cache.max_bytes

    def test_budgets_hold_across_shards(self):
        cache = NodeCache(max_entries=8, shards=4)
        node = InnerNode(2, 3)
        for index in range(100):
            cache.put(("key", index), node)
        # Each shard holds at most its slice, so the whole cache never
        # exceeds the global entry budget.
        assert len(cache) <= cache.max_entries

    def test_get_many_put_many_align_with_keys(self):
        cache = NodeCache(max_entries=64, shards=4)
        node_a, node_b = InnerNode(1, None), InnerNode(None, 2)
        cache.put_many([("a", node_a), ("b", node_b)])
        assert cache.get_many(["missing", "a", "b", "a"]) == [
            None, node_a, node_b, node_a,
        ]
        stats = cache.stats()
        assert stats.hits == 3 and stats.misses == 1

    def test_discard_and_clear(self):
        cache = NodeCache(max_entries=8, shards=2)
        cache.put("a", InnerNode(1, 1))
        assert cache.discard("a") is True
        assert cache.discard("a") is False
        assert cache.get("a") is None
        cache.put("b", InnerNode(1, 1))
        cache.clear()
        assert len(cache) == 0 and cache.bytes_used() == 0

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeCache(max_entries=0)
        with pytest.raises(ConfigurationError):
            NodeCache(max_bytes=0)
        with pytest.raises(ConfigurationError):
            NodeCache(shards=0)

    def test_concurrent_readers_respect_budgets(self):
        cache = NodeCache(max_entries=64, max_bytes=64 * 200, shards=4)
        node = LeafNode("page-x", "data-0", PAGE)
        errors: list[Exception] = []

        def hammer(worker: int) -> None:
            try:
                for round_index in range(300):
                    key = ("k", (worker * 7 + round_index) % 120)
                    if cache.get(key) is None:
                        cache.put(key, node)
                    cache.get_many([("k", i) for i in range(5)])
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
        # Invariants after the storm: budgets hold exactly, and the
        # counters are consistent with the occupancy.
        assert stats.entries <= cache.max_entries
        assert stats.bytes <= cache.max_bytes
        assert stats.entries == len(cache)
        assert stats.hits + stats.misses == 8 * 300 * 6


class TestSharingSemantics:
    def test_two_stores_on_one_cluster_share_hits(self):
        # Non-default budgets give the cluster a dedicated cache, isolating
        # the counters from the process-wide shared instance.
        cluster = small_cluster(metadata_cache_entries=4096)
        first = BlobStore(cluster)
        second = BlobStore(cluster)
        blob_id = first.create()
        payload = make_payload(16 * PAGE)
        version = first.append(blob_id, payload)
        second.sync(blob_id, version)
        gets_before = cluster.dht.stats().gets
        data, stats = second.read_ex(blob_id, version, 0, len(payload))
        # The writer's publish-time write-through warms the OTHER store.
        assert data == payload
        assert stats.metadata_nodes_fetched == 0
        assert stats.metadata_cache_hits > 0
        assert cluster.dht.stats().gets == gets_before
        assert first.cache_stats() == second.cache_stats()
        assert second.cache_stats().hits >= stats.metadata_cache_hits

    def test_default_clusters_share_the_process_wide_cache(self):
        one, two = small_cluster(), small_cluster()
        assert one.node_cache is two.node_cache is shared_node_cache()
        # ...but namespaces keep them apart: both clusters generate the same
        # blob ids and tree shapes, yet each reads back its own bytes.
        store_one, store_two = BlobStore(one), BlobStore(two)
        blob_one, blob_two = store_one.create(), store_two.create()
        assert blob_one == blob_two  # same id generator, same first id
        payload_one = make_payload(8 * PAGE, seed=1)
        payload_two = make_payload(8 * PAGE, seed=2)
        store_one.sync(blob_one, store_one.append(blob_one, payload_one))
        store_two.sync(blob_two, store_two.append(blob_two, payload_two))
        assert store_one.read(blob_one, 1, 0, len(payload_one)) == payload_one
        assert store_two.read(blob_two, 1, 0, len(payload_two)) == payload_two

    def test_private_store_cache_stays_cold_for_others(self):
        cluster = small_cluster(metadata_cache_entries=4096)
        private = BlobStore(cluster, node_cache=NodeCache())
        shared = BlobStore(cluster)
        blob_id = private.create()
        version = private.append(blob_id, make_payload(8 * PAGE))
        shared.sync(blob_id, version)
        # The private store warmed only its own cache.
        _, stats = shared.read_ex(blob_id, version, 0, 8 * PAGE)
        assert stats.metadata_nodes_fetched > 0

    def test_gc_invalidates_collected_nodes(self):
        cluster = small_cluster(metadata_cache_entries=4096)
        store = BlobStore(cluster)
        blob_id = store.create()
        store.append(blob_id, make_payload(4 * PAGE, seed=1))
        # A full overwrite: v2 shares nothing with v1, so collecting down to
        # v2 reclaims v1's entire tree.
        replacement = make_payload(4 * PAGE, seed=2)
        version = store.write(blob_id, replacement, 0)
        store.sync(blob_id, version)
        store.read(blob_id, 1, 0, 4 * PAGE)  # warm v1's nodes
        collect_garbage(cluster, {blob_id: [version]})
        # Without invalidation the cached v1 tree would wrongly satisfy the
        # metadata traversal of the collected snapshot.
        with pytest.raises(MetadataNotFoundError):
            store.read(blob_id, 1, 0, 4 * PAGE)
        assert store.read(blob_id, version, 0, 4 * PAGE) == replacement

    def test_flat_keys_weigh_what_nested_keys_did_and_gc_evicts_them(self):
        """The cache key is the flat tuple of ``Cluster.node_cache_key``;
        an entry still charges the bytes the ``(namespace, NodeKey)`` pair
        used to — the two id strings plus three 8-byte integers — so byte
        budgets did not move, and GC's discards find the flat keys."""
        cache = NodeCache()
        cluster = small_cluster()
        store = BlobStore(cluster, node_cache=cache)
        blob_id = store.create()
        store.append(blob_id, make_payload(4 * PAGE, seed=1))
        version = store.write(blob_id, make_payload(4 * PAGE, seed=2), 0)
        store.sync(blob_id, version)

        def resident_bytes() -> int:
            total = 0
            for bucket_id in cluster.dht.bucket_ids():
                for raw in cluster.dht.bucket(bucket_id).keys():
                    key = NodeKey.from_string(raw)
                    (node,) = run_inline(
                        cluster.metadata_provider.get_nodes_async, [key]
                    )
                    nested_key = len(cluster.cache_namespace) + len(key.blob_id) + 24
                    total += nested_key + node_weight((), node)
            return total

        # Two full 4-page trees, written through at publish: 2 x 7 nodes.
        assert node_weight((), InnerNode(1, 1)) > ENTRY_OVERHEAD  # () weighs 0
        assert cache.stats().entries == cluster.metadata_node_count() == 14
        assert cache.stats().bytes == resident_bytes()
        collect_garbage(cluster, {blob_id: [version]})
        assert cache.stats().entries == cluster.metadata_node_count() == 7
        assert cache.stats().bytes == resident_bytes()

    def test_eviction_pressure_keeps_reads_correct(self):
        cluster = small_cluster()
        # A cache far smaller than the tree: every read churns through
        # evictions yet must stay byte-identical.
        tiny = NodeCache(max_entries=8, shards=2)
        store = BlobStore(cluster, node_cache=tiny)
        cold = BlobStore(cluster, cache_metadata=False)
        blob_id = store.create()
        payload = make_payload(32 * PAGE, seed=9)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        for offset, length in [(0, len(payload)), (3 * PAGE, 11 * PAGE), (7, 301)]:
            assert store.read(blob_id, version, offset, length) == \
                cold.read(blob_id, version, offset, length)
        assert len(tiny) <= 8
        assert tiny.stats().evictions > 0


class TestCacheStats:
    def test_hit_rate_and_tuple_shape(self):
        stats = CacheStats(hits=3, misses=1, entries=4, bytes=512, evictions=2)
        assert stats.hit_rate == 0.75
        assert (stats.hits, stats.misses, stats.entries) == (3, 1, 4)
        # The legacy positional shape went with its last caller.
        assert not hasattr(stats, "as_tuple")
        assert CacheStats().hit_rate == 0.0

    def test_structured_stats_reflect_store_traffic(self):
        # The deprecated metadata_cache_stats() tuple shim is gone; the
        # structured CacheStats carries the same information.
        cluster = small_cluster()
        store = BlobStore(cluster, node_cache=NodeCache())
        blob_id = store.create()
        version = store.append(blob_id, make_payload(4 * PAGE))
        store.sync(blob_id, version)
        store.read(blob_id, version, 0, 4 * PAGE)
        stats = store.cache_stats()
        assert not hasattr(store, "metadata_cache_stats")
        assert stats.hits + stats.misses > 0
        assert stats.entries > 0


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
def test_warm_reads_match_cold_reads_across_histories(operations, data):
    """Random APPEND / WRITE / BRANCH histories: every published snapshot
    must read identically through a warm shared cache, a tiny thrashing
    cache, and no cache at all — twice, so the pure-hit path is exercised.
    """
    cluster = Cluster.in_memory(
        num_data_providers=4, num_metadata_providers=4, page_size=PAGE
    )
    warm = BlobStore(cluster, node_cache=NodeCache())
    tiny = BlobStore(cluster, node_cache=NodeCache(max_entries=6, shards=2))
    cold = BlobStore(cluster, cache_metadata=False)

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
