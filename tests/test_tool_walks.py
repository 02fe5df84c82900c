"""GC's mark, repair's scan and diff run on the engine's one tree descent.

Each of them drives ``AsyncBlobStore._walk`` on an uncached store: one
batched DHT multi-get per tree level, never a per-node ``DHT.get``.  The
shape is one 64 MiB blob of 64 KiB pages (a tree of depth 11) with 16
versions: an append, then 15 aligned 1 MiB overwrites.
"""

from __future__ import annotations

import asyncio
from functools import partial

import pytest

from repro import AsyncBlobStore, BlobStore, Cluster
from repro.aio import AsyncRuntime
from repro.config import BlobSeerConfig
from repro.core.async_store import walk_uncached
from repro.errors import ProviderUnavailableError
from repro.fault import RepairService
from repro.metadata.node import NodeKey
from repro.metadata.read_plan import ReachWalker
from repro.tools.diff import ChangedRange, diff_versions
from repro.tools.gc import collect_garbage
from repro.version.records import resolve_owner

from .conftest import TEST_PAGE_SIZE, make_payload

KiB, MiB = 1 << 10, 1 << 20
PAGES = 1024
DEPTH = 11  # node sizes 1 024, 512, ..., 1
WRITE_PAGES = 16  # one 1 MiB overwrite


def write_offset(index: int) -> int:
    """Page offset of the ``index``-th overwrite (version ``index + 2``)."""
    return (index * 37) % (PAGES // WRITE_PAGES) * WRITE_PAGES


@pytest.fixture(scope="module")
def probe():
    cluster = Cluster(
        BlobSeerConfig(
            page_size=64 * KiB, num_data_providers=8, num_metadata_providers=8
        )
    )
    store = BlobStore(cluster, cache_metadata=False, cache_pages=False)
    blob_id = store.create()
    store.append(blob_id, bytes(64 * MiB))
    for index in range(15):
        version = store.write(
            blob_id, bytes([index + 1]) * MiB, write_offset(index) * 64 * KiB
        )
    store.sync(blob_id, version)
    return cluster, blob_id


@pytest.fixture
def dht_calls(probe, monkeypatch):
    """Counts single-key gets, batched gets and the keys those batches ask."""
    dht = probe[0].dht
    calls = {"get": 0, "batches": 0, "keys": 0}
    get, multi_get_async = dht.get, dht.multi_get_async

    def counted_get(key):
        calls["get"] += 1
        return get(key)

    async def counted_multi_get_async(keys, *args):
        calls["batches"] += 1
        calls["keys"] += len(keys)
        return await multi_get_async(keys, *args)

    monkeypatch.setattr(dht, "get", counted_get)
    monkeypatch.setattr(dht, "multi_get_async", counted_multi_get_async)
    return calls


class TestOneBatchPerTreeLevel:
    def test_gc_marks_sixteen_versions_in_one_batch_per_level(self, probe, dht_calls):
        cluster, blob_id = probe
        report = collect_garbage(cluster, {blob_id: range(1, 17)})
        assert report.deleted_nodes == report.deleted_pages == 0
        assert dht_calls["get"] == 0
        assert dht_calls["batches"] == DEPTH
        # A subtree shared between versions is fetched once.
        assert dht_calls["keys"] == report.reachable_nodes

    def test_repair_scan_is_the_same_walk(self, probe, dht_calls):
        cluster, _blob_id = probe
        assert RepairService(cluster).under_replicated() == 0
        assert dht_calls["get"] == 0
        assert dht_calls["batches"] == DEPTH
        assert dht_calls["keys"] == cluster.metadata_node_count()

    def test_diff_of_first_and_last_version(self, probe, dht_calls):
        cluster, blob_id = probe
        changed = diff_versions(cluster, blob_id, 1, 16)
        expected = {
            page
            for index in range(15)
            for page in range(write_offset(index), write_offset(index) + WRITE_PAGES)
        }
        assert {
            page
            for run in changed
            for page in range(run.page_offset, run.page_offset + run.page_count)
        } == expected
        assert {run.kind for run in changed} == {"modified"}
        assert dht_calls["get"] == 0
        assert dht_calls["batches"] <= DEPTH

    def test_diff_of_neighbours_fetches_the_change_not_the_blob(
        self, probe, dht_calls
    ):
        cluster, blob_id = probe
        assert diff_versions(cluster, blob_id, 15, 16) == [
            ChangedRange(write_offset(14), WRITE_PAGES, "modified")
        ]
        assert dht_calls["get"] == 0
        assert dht_calls["batches"] <= DEPTH
        # Only the newer tree, and of it only the path down to the rewritten
        # subtree and that subtree: 6 + 31 nodes, not the 2 047 of the tree.
        assert dht_calls["keys"] <= DEPTH + 2 * WRITE_PAGES


class TestReachWalkerOnThePipelinedRuntime:
    def test_event_loop_walk_finds_what_the_inline_walk_finds(self, probe):
        """Sibling fetches land per DHT bucket, in any order; what the
        walker reaches does not depend on it."""
        cluster, blob_id = probe
        record = cluster.version_manager.get_record(blob_id)
        owner = partial(resolve_owner, record)
        store = AsyncBlobStore(
            cluster,
            cache_metadata=False,
            cache_pages=False,
            lease_versions=False,
            runtime=AsyncRuntime(),
        )

        def walkers():
            every_version = ReachWalker(
                owner, [(version, PAGES) for version in range(1, 17)], set()
            )
            newer_than_one = ReachWalker(
                owner, [(16, PAGES)], set(), wanted=lambda ref: ref.version > 1
            )
            return every_version, newer_than_one

        async def walk_all():
            return [await store._walk(record, w, None, None) for w in walkers()]

        on_the_loop = asyncio.run(walk_all())
        inline = [walk_uncached(cluster, record, w) for w in walkers()]
        for loop_result, inline_result in zip(on_the_loop, inline):
            assert set(loop_result.leaves) == set(inline_result.leaves)
        assert len(inline[0].leaves) == PAGES + 15 * WRITE_PAGES
        assert len(inline[1].leaves) == 15 * WRITE_PAGES


class TestRepairScanEdge:
    def test_scan_skips_collected_nodes_but_not_a_dead_bucket(self):
        page = TEST_PAGE_SIZE
        cluster = Cluster(
            BlobSeerConfig(
                page_size=page,
                num_data_providers=4,
                num_metadata_providers=4,
                page_replication=2,
            )
        )
        store = BlobStore(cluster, cache_metadata=False, cache_pages=False)
        blob_id = store.create()
        store.append(blob_id, make_payload(8 * page, seed=1))
        v2 = store.write(blob_id, make_payload(2 * page, seed=2), 0)
        store.sync(blob_id, v2)
        collect_garbage(cluster, {blob_id: [v2]})
        # Version 1 is still published in the VM, but GC removed its root
        # and its two overwritten pages; its other six pages live on
        # through version 2's tree.
        record = cluster.version_manager.get_record(blob_id)
        assert not cluster.metadata_provider.has_node(NodeKey(blob_id, 1, 0, 8))

        service = RepairService(cluster)
        victim = max(
            cluster.provider_manager.providers(),
            key=lambda provider: (provider.page_count(), provider.provider_id),
        )
        lost = victim.page_count()
        cluster.kill_data_provider(victim.provider_id)
        assert service.under_replicated() == lost
        report = service.repair()
        assert report.pages_scanned == 8
        assert report.pages_re_replicated == lost
        assert service.under_replicated() == 0

        root = NodeKey(resolve_owner(record, v2), v2, 0, 8).to_string()
        cluster.dht.kill_bucket(cluster.dht.buckets_for(root)[0])
        with pytest.raises(ProviderUnavailableError):
            service.under_replicated()
        with pytest.raises(ProviderUnavailableError):
            service.repair()
