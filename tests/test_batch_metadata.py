"""Tests for the frontier-batched metadata layer.

Three concerns, one per test class:

* equivalence — a frontier-driven READ must return byte-identical data, the
  same descriptors and the same node count as the old one-fetch-per-node
  traversal, while needing only O(log pages) round trips;
* the DHT multi-ops — replica fallback and failure semantics of
  ``multi_get`` / ``multi_put`` must match their per-key counterparts, and
  batches must take each bucket lock once;
* cache accounting — client-side cache hits are served without entering the
  batch, so repeated reads stop touching the DHT entirely.
"""

import math

import pytest

from repro import BlobStore, Cluster, NodeCache
from repro.core.async_store import walk_uncached
from repro.dht.dht import DHT
from repro.dht.storage import BucketStore
from repro.errors import MetadataNotFoundError, ProviderUnavailableError
from repro.metadata.geometry import pages_for_size, span_for_pages
from repro.metadata.node import Frontier, NodeKey
from repro.metadata.read_plan import drive_plan, plan_walker, read_plan
from repro.util.ranges import covering_page_range
from repro.version.records import resolve_owner

from .conftest import TEST_PAGE_SIZE, make_payload, run_inline

PAGE = TEST_PAGE_SIZE


def per_node_read(cluster, blob_id, version, offset, size):
    """Reference READ using one metadata fetch per node (the old protocol).

    ``drive_plan`` with a per-ref ``fetch`` resolves every frontier by
    looping over its refs one single-key fetch at a time — exactly the
    pre-frontier behaviour.  Returns (data, plan_result).
    """
    vm = cluster.version_manager
    record = vm.get_record(blob_id)
    page_size = record.page_size
    snapshot_size = vm.get_size(blob_id, version)
    page_offset, page_count = covering_page_range(offset, size, page_size)
    span = span_for_pages(pages_for_size(snapshot_size, page_size))

    def fetch(ref):
        owner = resolve_owner(record, ref.version)
        (node,) = run_inline(
            cluster.metadata_provider.get_nodes_async,
            [NodeKey(owner, ref.version, ref.offset, ref.size)],
        )
        return node

    result = drive_plan(read_plan(version, span, page_offset, page_count), fetch)
    buffer = bytearray(size)
    for descriptor in result.sorted_descriptors():
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
    return bytes(buffer), result


class TestFrontierEquivalence:
    def _populated(self, store, blob_id):
        """A blob with appends, an aligned overwrite and an unaligned write."""
        store.append(blob_id, make_payload(13 * PAGE + 17, seed=1))
        store.write(blob_id, make_payload(2 * PAGE, seed=2), 3 * PAGE)
        store.append(blob_id, make_payload(5 * PAGE, seed=3))
        version = store.write(blob_id, make_payload(300, seed=4), 7 * PAGE - 50)
        store.sync(blob_id, version)
        return version

    def test_read_matches_per_node_traversal(self, cluster, store, blob_id):
        last = self._populated(store, blob_id)
        for version in range(1, last + 1):
            size = store.get_size(blob_id, version)
            for offset, length in [(0, size), (PAGE + 7, min(size, 6 * PAGE)),
                                   (size - 40, 40)]:
                data, stats = store.read_ex(blob_id, version, offset, length)
                expected, reference = per_node_read(
                    cluster, blob_id, version, offset, length
                )
                assert data == expected
                # Same nodes, same descriptors — only the trip count shrinks.
                assert stats.metadata_nodes_fetched == reference.nodes_fetched
                assert stats.metadata_round_trips <= reference.nodes_fetched
                assert stats.metadata_round_trips == reference.round_trips

    def test_round_trips_are_log_pages(self, store, blob_id):
        version = store.append(blob_id, make_payload(64 * PAGE))
        store.sync(blob_id, version)
        # Single page: one node per level — trips == nodes == depth.
        _, narrow = store.read_ex(blob_id, version, 10 * PAGE, PAGE)
        depth = int(math.log2(64)) + 1
        assert narrow.metadata_nodes_fetched == depth
        assert narrow.metadata_round_trips == depth
        # Whole blob: O(pages) nodes but still O(log pages) trips.
        _, wide = store.read_ex(blob_id, version, 0, 64 * PAGE)
        assert wide.metadata_nodes_fetched == 2 * 64 - 1
        assert wide.metadata_round_trips == depth

    def test_write_round_trips_reported(self, store, blob_id):
        store.append(blob_id, make_payload(8 * PAGE))
        result = store.write_ex(blob_id, make_payload(2 * PAGE, seed=5), 2 * PAGE)
        # Border resolution frontiers plus exactly one batched publish.
        assert result.metadata_round_trips >= 1
        assert result.metadata_round_trips <= int(math.log2(8)) + 2

    def test_multi_range_plan_shares_the_spine(self, cluster, store, blob_id):
        version = store.append(blob_id, make_payload(16 * PAGE))
        store.sync(blob_id, version)
        record = cluster.version_manager.get_record(blob_id)
        walker = plan_walker(version, 16, [(0, 1), (15, 1)])
        result = walk_uncached(cluster, record, walker)
        assert sorted(d.page_index for d in result.descriptors) == [0, 15]
        # Two root-to-leaf paths of depth 5 share the root: 9 nodes, 5 trips.
        assert result.nodes_fetched == 9
        assert result.round_trips == 5

    def test_empty_and_invalid_ranges(self, cluster, blob_id):
        record = cluster.version_manager.get_record(blob_id)
        assert walk_uncached(
            cluster, record, plan_walker(1, 8, [])
        ).round_trips == 0
        with pytest.raises(Exception):
            walk_uncached(cluster, record, plan_walker(1, 8, [(7, 2)]))


class TestDHTMultiOps:
    def _filled(self, num_buckets=6, replication=1, items=24):
        dht = DHT(num_buckets=num_buckets, replication=replication)
        pairs = [(f"key-{index}", index) for index in range(items)]
        run_inline(dht.multi_put_async, pairs)
        return dht, pairs

    def test_multi_roundtrip_preserves_order_and_duplicates(self):
        dht, pairs = self._filled()
        keys = [key for key, _ in pairs]
        assert dht.multi_get(keys) == [value for _, value in pairs]
        assert dht.multi_get(["key-3", "key-3", "key-1"]) == [3, 3, 1]

    def test_multi_get_missing_key_raises(self):
        dht, pairs = self._filled()
        with pytest.raises(MetadataNotFoundError):
            dht.multi_get(["key-0", "absent"])

    def test_multi_get_survives_killed_replica(self):
        dht, pairs = self._filled(replication=3)
        keys = [key for key, _ in pairs]
        dht.kill_bucket(dht.buckets_for(keys[0])[0])
        assert dht.multi_get(keys) == [value for _, value in pairs]

    def test_multi_get_unreplicated_killed_bucket_raises(self):
        dht, pairs = self._filled(replication=1)
        victim = dht.buckets_for("key-0")[0]
        dht.kill_bucket(victim)
        with pytest.raises(ProviderUnavailableError):
            dht.multi_get(["key-0"])
        dht.revive_bucket(victim)
        assert dht.multi_get(["key-0"]) == [0]

    def test_multi_put_needs_one_live_replica_per_key(self):
        dht = DHT(num_buckets=3, replication=3)
        for bucket_id in dht.bucket_ids():
            dht.kill_bucket(bucket_id)
        with pytest.raises(ProviderUnavailableError):
            run_inline(dht.multi_put_async, [("a", 1), ("b", 2)])
        dht.revive_bucket(dht.bucket_ids()[0])
        # One live replica is enough.
        run_inline(dht.multi_put_async, [("a", 1), ("b", 2)])
        assert dht.multi_get(["a", "b"]) == [1, 2]

    def test_batches_take_each_bucket_lock_once(self):
        store = BucketStore("meta-0000")
        store.multi_put([(f"k{i}", i) for i in range(10)])
        found, missing = store.multi_get([f"k{i}" for i in range(12)])
        assert len(found) == 10 and missing == ["k10", "k11"]
        stats = store.stats
        assert stats.puts == 10 and stats.batch_puts == 1
        assert stats.gets == 12 and stats.batch_gets == 1
        assert stats.hits == 10 and stats.misses == 2

    def test_dht_stats_aggregate_batches_and_max_keys(self):
        dht, pairs = self._filled(num_buckets=4, items=20)
        dht.multi_get([key for key, _ in pairs])
        stats = dht.stats()
        assert stats.keys == 20
        assert stats.max_keys_per_bucket >= 5  # a real field, no getattr hack
        assert stats.gets == 20
        # One lock acquisition per touched bucket, not one per key.
        assert stats.batch_gets <= 4 < stats.gets
        assert stats.batch_puts <= 4 < stats.puts

    def test_killed_replica_mid_batch_falls_back_key_by_key(self):
        dht = DHT(num_buckets=6, replication=2)
        pairs = [(f"key-{index}", index) for index in range(30)]
        run_inline(dht.multi_put_async, pairs)
        # Kill one bucket: keys whose primary it was fall back to their
        # second replica; keys whose secondary it was are unaffected.
        dht.kill_bucket(dht.bucket_ids()[0])
        assert dht.multi_get([key for key, _ in pairs]) == [
            value for _, value in pairs
        ]


class TestCacheAccountingAcrossBatches:
    def _cluster(self):
        return Cluster.in_memory(
            num_data_providers=4, num_metadata_providers=4, page_size=PAGE
        )

    def test_repeat_read_is_served_from_cache(self):
        cluster = self._cluster()
        # A private NodeCache isolates counters from the process-wide shared
        # instance; the appender runs cold so publish-time write-through
        # does not pre-warm the reader under test.
        writer = BlobStore(cluster, cache_metadata=False)
        store = BlobStore(cluster, node_cache=NodeCache())
        blob_id = writer.create()
        version = writer.append(blob_id, make_payload(16 * PAGE))
        store.sync(blob_id, version)

        _, first = store.read_ex(blob_id, version, 0, 16 * PAGE)
        stats = store.cache_stats()
        assert first.metadata_cache_hits == 0
        assert first.metadata_nodes_fetched > 0
        assert stats.hits == 0
        assert stats.misses == first.metadata_nodes_fetched == stats.entries

        gets_before = cluster.dht.stats().gets
        _, second = store.read_ex(blob_id, version, 0, 16 * PAGE)
        stats = store.cache_stats()
        # Same traversal, every node a cache hit: zero DHT traffic, zero
        # round trips, zero nodes fetched.
        assert second.metadata_nodes_fetched == 0
        assert second.metadata_round_trips == 0
        assert second.metadata_cache_hits == first.metadata_nodes_fetched
        assert second.metadata_cache_hits / (
            second.metadata_cache_hits + second.metadata_nodes_fetched
        ) == 1.0
        assert stats.hits == first.metadata_nodes_fetched
        assert cluster.dht.stats().gets == gets_before

    def test_write_through_warms_the_writers_own_reads(self):
        cluster = self._cluster()
        store = BlobStore(cluster, node_cache=NodeCache())
        blob_id = store.create()
        result = store.append_ex(blob_id, make_payload(16 * PAGE))
        store.sync(blob_id, result.version)
        gets_before = cluster.dht.stats().gets
        _, stats = store.read_ex(blob_id, result.version, 0, 16 * PAGE)
        # Publish-time write-through: the writer's first read is already warm.
        assert stats.metadata_nodes_fetched == 0
        assert stats.metadata_cache_hits > 0
        assert cluster.dht.stats().gets == gets_before

    def test_partial_overlap_only_fetches_new_nodes(self):
        cluster = self._cluster()
        writer = BlobStore(cluster, cache_metadata=False)
        store = BlobStore(cluster, node_cache=NodeCache())
        blob_id = writer.create()
        version = writer.append(blob_id, make_payload(16 * PAGE))
        store.sync(blob_id, version)

        store.read_ex(blob_id, version, 0, 4 * PAGE)
        entries_before = store.cache_stats().entries
        gets_before = cluster.dht.stats().gets
        _, stats = store.read_ex(blob_id, version, 0, 8 * PAGE)
        new_nodes = store.cache_stats().entries - entries_before
        # Only the nodes not seen by the narrower read enter the batch; the
        # shared spine is served from the cache.
        assert new_nodes == stats.metadata_nodes_fetched > 0
        assert stats.metadata_cache_hits > 0
        assert cluster.dht.stats().gets - gets_before == new_nodes

    def test_cached_reads_match_uncached_reads(self):
        cluster = self._cluster()
        cached_store = BlobStore(cluster, node_cache=NodeCache())
        plain_store = BlobStore(cluster, cache_metadata=False)
        blob_id = cached_store.create()
        payload = make_payload(9 * PAGE + 123)
        version = cached_store.append(blob_id, payload)
        cached_store.sync(blob_id, version)
        for offset, length in [(0, len(payload)), (PAGE, 3 * PAGE), (17, 301)]:
            assert (
                cached_store.read(blob_id, version, offset, length)
                == plain_store.read(blob_id, version, offset, length)
                == payload[offset:offset + length]
            )
            # Read twice: the second pass exercises the hit path end-to-end.
            assert cached_store.read(blob_id, version, offset, length) == \
                payload[offset:offset + length]


class TestDrivePlanProtocol:
    def test_frontier_resolved_by_mapping_single_fetch(self):
        def plan():
            nodes = yield Frontier((1, 2, 3))  # refs are opaque to the driver
            return nodes

        assert drive_plan(plan(), lambda ref: ref * 10) == [10, 20, 30]

    def test_frontier_length_mismatch_detected(self):
        def plan():
            yield Frontier((1, 2))
            return "unreachable"

        with pytest.raises(MetadataNotFoundError):
            drive_plan(plan(), fetch_many=lambda refs: [0])

    def test_driver_requires_some_fetcher(self):
        with pytest.raises(TypeError):
            drive_plan(read_plan(1, 4, 0, 4))
