"""The cost contract of a cached READ (DESIGN.md §8, §11).

A warm read costs one node-cache probe and one expansion per tree level,
and nothing the read does not use: no cache-wide ``stats()`` sweep, no
span object when tracing is off.  These tests pin the cheap paths to the
checked ones they replaced — the walker's split against
:func:`~repro.metadata.geometry.children_of`, the flat cache-key weights
against the recursive estimate.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro import AsyncBlobStore, BlobStore, Cluster
from repro.cache import NodeCache, PageCache, node_weight, page_weight
from repro.cache.node_cache import INNER_NODE_WEIGHT, LEAF_NODE_WEIGHT
from repro.cache.sharded_lru import ENTRY_OVERHEAD
from repro.errors import MetadataNotFoundError
from repro.metadata.geometry import children_of, is_leaf_range
from repro.metadata.node import InnerNode, LeafNode, NodeRef
from repro.metadata.read_plan import plan_walker
from repro.obs.trace import Tracer, span
from repro.util.ranges import intersects

from .conftest import TEST_PAGE_SIZE, make_payload

PAGE = TEST_PAGE_SIZE


def small_cluster() -> Cluster:
    return Cluster.in_memory(
        num_data_providers=4, num_metadata_providers=4, page_size=PAGE
    )


def tree_nodes(span: int):
    """Every ``(offset, size)`` node range of a tree spanning ``span`` pages."""
    size = 1
    while size <= span:
        for offset in range(0, span, size):
            yield offset, size
        size *= 2


def random_ranges(rng: random.Random, span: int) -> list[tuple[int, int]]:
    """One to three non-empty page ranges inside ``[0, span)``."""
    ranges = []
    for _ in range(rng.randint(1, 3)):
        offset = rng.randrange(span)
        ranges.append((offset, rng.randint(1, span - offset)))
    return ranges


def checked_children(ranges, version_of, offset, size) -> list[NodeRef]:
    """The wanted children by the validating geometry and ``intersects``."""
    children = []
    for (child_offset, child_size), version in zip(
        children_of(offset, size), version_of
    ):
        if version is not None and any(
            intersects(child_offset, child_size, start, count)
            for start, count in ranges
        ):
            children.append(NodeRef(version, child_offset, child_size))
    return children


class TestFrontierWalkerExpansion:
    @pytest.mark.parametrize("span", [1, 2, 4, 8, 16, 32, 64])
    def test_expand_yields_the_children_of_the_checked_split(self, span):
        rng = random.Random(span)
        for _trial in range(40):
            ranges = random_ranges(rng, span)
            walker = plan_walker(7, span, ranges)
            for offset, size in tree_nodes(span):
                ref = NodeRef(7, offset, size)
                if is_leaf_range(offset, size):
                    leaf = LeafNode(f"p{offset}", "data-0", PAGE)
                    assert walker.expand(ref, leaf) == []
                    assert walker.result.descriptors[-1].page_index == offset
                    assert walker.predicted_children(ref) == []
                    continue
                for versions in [(5, 6), (None, 6), (5, None), (None, None)]:
                    node = InnerNode(*versions)
                    assert walker.expand(ref, node) == checked_children(
                        ranges, versions, offset, size
                    )
                assert walker.predicted_children(ref) == checked_children(
                    ranges, (7, 7), offset, size
                )

    def test_wrong_node_types_still_raise(self):
        walker = plan_walker(1, 4, [(0, 4)])
        with pytest.raises(MetadataNotFoundError):
            walker.expand(NodeRef(1, 2, 1), InnerNode(1, 1))
        with pytest.raises(MetadataNotFoundError):
            walker.expand(NodeRef(1, 0, 2), LeafNode("p", "data-0", PAGE))


class TestNodeRef:
    def test_is_immutable(self):
        ref = NodeRef(3, 4, 2)
        with pytest.raises(AttributeError):
            ref.version = 4
        assert (ref.version, ref.offset, ref.size) == (3, 4, 2)
        assert ref == NodeRef(3, 4, 2) and hash(ref) == hash(NodeRef(3, 4, 2))


class TestUntracedSpan:
    def test_returns_one_shared_no_op(self):
        first = span("read.meta")
        assert span("meta.fetch", level=3, nodes=1) is first
        with first as opened:
            assert opened is None
            assert span("nested") is first

    def test_traced_spans_are_fresh(self):
        tracer = Tracer()
        with tracer.trace("read"):
            with span("read.meta") as meta, span("meta.fetch") as fetch:
                assert fetch.parent_id == meta.span_id
        assert [item.name for item in tracer.spans()] == [
            "meta.fetch", "read.meta", "read",
        ]


class _CountingNodeCache(NodeCache):
    def __init__(self):
        super().__init__()
        self.sweeps = 0

    def stats(self):
        self.sweeps += 1
        return super().stats()


class _CountingPageCache(PageCache):
    def __init__(self):
        super().__init__()
        self.sweeps = 0

    def stats(self):
        self.sweeps += 1
        return super().stats()


class TestNoPerOperationSweeps:
    def test_sync_store(self):
        nodes, pages = _CountingNodeCache(), _CountingPageCache()
        store = BlobStore(small_cluster(), node_cache=nodes, page_cache=pages)
        blob_id = store.create()
        payload = make_payload(8 * PAGE, seed=3)
        version = store.append(blob_id, payload)
        store.write(blob_id, make_payload(PAGE, seed=4), 3 * PAGE)
        store.sync(blob_id, version)
        store.read(blob_id, version, 0, len(payload))
        data, warm = store.read_ex(blob_id, version, 0, len(payload))
        assert data == payload
        assert warm.metadata_nodes_fetched == warm.data_round_trips == 0
        assert (nodes.sweeps, pages.sweeps) == (0, 0)

    def test_async_store(self):
        nodes, pages = _CountingNodeCache(), _CountingPageCache()

        async def scenario():
            store = AsyncBlobStore(
                small_cluster(), node_cache=nodes, page_cache=pages
            )
            blob_id = await store.create()
            payload = make_payload(8 * PAGE, seed=5)
            version = await store.append(blob_id, payload)
            await store.sync(blob_id, version)
            await store.read(blob_id, version, 0, len(payload))
            data, warm = await store.read_ex(blob_id, version, PAGE, 2 * PAGE)
            assert data == payload[PAGE:3 * PAGE]
            assert warm.metadata_cache_hits > 0
            assert warm.metadata_nodes_fetched == 0

        asyncio.run(scenario())
        assert (nodes.sweeps, pages.sweeps) == (0, 0)


def recursive_key_weight(key) -> int:
    """The estimate the caches charged before keys were weighed flat."""
    if isinstance(key, str):
        return len(key)
    if isinstance(key, tuple):
        return sum(recursive_key_weight(part) for part in key)
    return 8


class TestFlatKeyWeights:
    def test_node_and_page_weights_equal_the_recursive_estimate(self):
        cluster = small_cluster()
        leaf = LeafNode("page-00000042", "data-0003", PAGE, ("data-0003", "data-1"))
        inner = InnerNode(4, None)
        payload = b"x" * 48
        for ref in [NodeRef(1, 0, 1), NodeRef(12, 64, 64), NodeRef(2**40, 3, 1)]:
            key = cluster.node_cache_key("blob-0007", ref)
            assert node_weight(key, leaf) == (
                ENTRY_OVERHEAD + recursive_key_weight(key) + LEAF_NODE_WEIGHT
                + len(leaf.page_id) + len(leaf.provider_id)
            )
            assert node_weight(key, inner) == (
                ENTRY_OVERHEAD + recursive_key_weight(key) + INNER_NODE_WEIGHT
            )
        for key in ["k-000", (), ("only",)]:
            assert node_weight(key, inner) == (
                ENTRY_OVERHEAD + recursive_key_weight(key) + INNER_NODE_WEIGHT
            )
        for offset, length in [(0, 48), (16, 8), (0, PAGE)]:
            key = cluster.page_cache_key("page-00000042", offset, length)
            assert page_weight(key, payload) == (
                ENTRY_OVERHEAD + recursive_key_weight(key) + len(payload)
            )
