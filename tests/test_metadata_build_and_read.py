"""Unit and property tests for the sans-IO metadata algorithms.

These tests exercise BUILD_META (Algorithm 4), READ_META (Algorithm 3) and
border-node resolution without any storage substrate: nodes live in a plain
dictionary keyed by (version, offset, size), which doubles as a reference
model of the DHT.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConcurrencyError, InvalidRangeError
from repro.metadata.build import (
    BorderSpec,
    BorderWalker,
    border_targets,
    build_nodes,
)
from repro.metadata.geometry import span_for_pages
from repro.metadata.node import InnerNode, LeafNode, NodeRef, PageDescriptor
from repro.metadata.read_plan import drive_plan, read_plan, walk_plan


def make_descriptors(version: int, offset: int, count: int, length: int = 64):
    return [
        PageDescriptor(
            page_index=offset + index,
            page_id=f"v{version}-p{offset + index}",
            provider_id=f"data-{(offset + index) % 4:04d}",
            length=length,
        )
        for index in range(count)
    ]


class TreeModel:
    """A tiny in-memory 'DHT' plus helpers to apply updates like a writer."""

    def __init__(self):
        self.nodes: dict[tuple[int, int, int], object] = {}
        self.num_pages = 0
        self.version = 0

    def fetch(self, ref: NodeRef):
        return self.nodes[(ref.version, ref.offset, ref.size)]

    def apply_update(self, page_offset: int, page_count: int, inflight=()):
        """Run border resolution + build for the next version and store it."""
        self.version += 1
        version = self.version
        prev_pages = self.num_pages
        new_pages = max(prev_pages, page_offset + page_count)
        span = span_for_pages(new_pages)
        needed, dangling = border_targets(page_offset, page_count, span, prev_pages)
        walker = BorderWalker(
            needed,
            dangling,
            version - 1 if version > 1 else None,
            prev_pages,
            list(inflight),
        )
        spec = drive_plan(walk_plan(walker), self.fetch)
        build = build_nodes(
            version,
            page_offset,
            page_count,
            span,
            make_descriptors(version, page_offset, page_count),
            spec,
        )
        for ref, node in build.nodes:
            self.nodes[(ref.version, ref.offset, ref.size)] = node
        self.num_pages = new_pages
        return build

    def read(self, version: int, page_offset: int, page_count: int, num_pages=None):
        span = span_for_pages(self.num_pages if num_pages is None else num_pages)
        plan = read_plan(version, span, page_offset, page_count)
        return drive_plan(plan, self.fetch)


class TestBorderTargets:
    def test_first_write_has_only_dangling_borders(self):
        needed, dangling = border_targets(0, 3, 4, 0)
        assert needed == []
        assert dangling == [(3, 1)]

    def test_overwrite_inside_existing_blob(self):
        # Figure 1(b): overwrite pages 2-3 of a 4-page blob.
        needed, dangling = border_targets(2, 2, 4, 4)
        assert needed == [(0, 2)]
        assert dangling == []

    def test_append_expanding_the_tree(self):
        # Figure 1(c): append page 4 to a 4-page blob (span 4 -> 8).
        needed, dangling = border_targets(4, 1, 8, 4)
        assert (0, 4) in needed
        assert (5, 1) in dangling and (6, 2) in dangling
        assert set(needed) == {(0, 4)}

    def test_zero_size_update_rejected(self):
        with pytest.raises(InvalidRangeError):
            border_targets(0, 0, 4, 4)


class TestBuildNodes:
    def test_first_full_write_builds_complete_tree(self):
        spec = BorderSpec()
        build = build_nodes(1, 0, 4, 4, make_descriptors(1, 0, 4), spec)
        ranges = {(ref.offset, ref.size) for ref, _ in build.nodes}
        assert ranges == {(0, 1), (1, 1), (2, 1), (3, 1), (0, 2), (2, 2), (0, 4)}
        assert build.root_ref == NodeRef(1, 0, 4)
        root = dict(
            ((ref.offset, ref.size), node) for ref, node in build.nodes
        )[(0, 4)]
        assert isinstance(root, InnerNode)
        assert root.left_version == 1 and root.right_version == 1

    def test_partial_write_weaves_border_versions(self):
        spec = BorderSpec(versions={(0, 2): 1})
        build = build_nodes(2, 2, 2, 4, make_descriptors(2, 2, 2), spec)
        nodes = {(ref.offset, ref.size): node for ref, node in build.nodes}
        assert set(nodes) == {(2, 1), (3, 1), (2, 2), (0, 4)}
        assert nodes[(0, 4)].left_version == 1   # shared with snapshot 1
        assert nodes[(0, 4)].right_version == 2  # newly created subtree

    def test_incomplete_first_write_has_dangling_pointer(self):
        spec = BorderSpec(versions={(3, 1): None})
        build = build_nodes(1, 0, 3, 4, make_descriptors(1, 0, 3), spec)
        nodes = {(ref.offset, ref.size): node for ref, node in build.nodes}
        assert nodes[(2, 2)].right_version is None
        assert nodes[(2, 2)].left_version == 1

    def test_single_page_blob_root_is_leaf(self):
        build = build_nodes(1, 0, 1, 1, make_descriptors(1, 0, 1), BorderSpec())
        assert build.node_count == 1
        ref, node = build.nodes[0]
        assert ref == NodeRef(1, 0, 1)
        assert isinstance(node, LeafNode)

    def test_missing_border_version_raises(self):
        with pytest.raises(ConcurrencyError):
            build_nodes(2, 2, 2, 4, make_descriptors(2, 2, 2), BorderSpec())

    def test_descriptor_coverage_is_validated(self):
        with pytest.raises(InvalidRangeError):
            build_nodes(1, 0, 4, 4, make_descriptors(1, 0, 3), BorderSpec())
        with pytest.raises(InvalidRangeError):
            build_nodes(1, 0, 2, 4, make_descriptors(1, 0, 3), BorderSpec())

    def test_span_too_small_rejected(self):
        with pytest.raises(InvalidRangeError):
            build_nodes(1, 2, 4, 4, make_descriptors(1, 2, 4), BorderSpec())

    def test_nodes_are_emitted_bottom_up(self):
        spec = BorderSpec()
        build = build_nodes(1, 0, 8, 8, make_descriptors(1, 0, 8), spec)
        sizes = [ref.size for ref, _ in build.nodes]
        assert sizes == sorted(sizes)
        assert sizes[-1] == 8


class TestReadPlan:
    def test_read_covers_requested_pages_only(self):
        model = TreeModel()
        model.apply_update(0, 8)
        result = model.read(1, 2, 3)
        assert [d.page_index for d in result.sorted_descriptors()] == [2, 3, 4]
        assert all(d.page_id == f"v1-p{d.page_index}" for d in result.descriptors)

    def test_reading_older_and_newer_versions(self):
        model = TreeModel()
        model.apply_update(0, 4)     # v1: pages 0-3
        model.apply_update(2, 2)     # v2: overwrite pages 2-3
        old = model.read(1, 0, 4)
        new = model.read(2, 0, 4)
        assert [d.page_id for d in old.sorted_descriptors()] == [
            "v1-p0", "v1-p1", "v1-p2", "v1-p3"]
        assert [d.page_id for d in new.sorted_descriptors()] == [
            "v1-p0", "v1-p1", "v2-p2", "v2-p3"]

    def test_traversal_is_pruned_to_the_requested_range(self):
        model = TreeModel()
        model.apply_update(0, 64)
        result = model.read(1, 10, 1)
        # One path from the root to a single leaf: depth(64) = 7 nodes.
        assert result.nodes_fetched == 7
        assert result.leaves_visited == 1

    def test_empty_read_returns_no_descriptors(self):
        model = TreeModel()
        model.apply_update(0, 4)
        result = model.read(1, 0, 0)
        assert result.descriptors == []
        assert result.nodes_fetched == 0

    def test_out_of_span_read_rejected(self):
        model = TreeModel()
        model.apply_update(0, 4)
        with pytest.raises(InvalidRangeError):
            model.read(1, 2, 8)

    def test_read_from_empty_tree_rejected(self):
        with pytest.raises(InvalidRangeError):
            drive_plan(read_plan(1, 0, 0, 1), lambda ref: None)


class TestConcurrentBorderResolution:
    def test_inflight_updates_resolve_borders_without_fetching(self):
        """Two concurrent appenders: the second references the first through
        the in-flight hint, never fetching its (not yet written) nodes."""
        model = TreeModel()
        model.apply_update(0, 4)  # published snapshot 1
        # Writer A (version 2) appends pages 4-5 but has NOT written metadata.
        # Writer B (version 3) appends pages 6-7 concurrently.
        needed, dangling = border_targets(6, 2, 8, 6)
        walker = BorderWalker(needed, dangling, 1, 4, [(2, 4, 2)])
        spec = drive_plan(walk_plan(walker), model.fetch)
        assert spec.versions[(4, 2)] == 2      # resolved from the in-flight hint
        assert spec.versions[(0, 4)] == 1      # resolved from the published tree

    def test_unresolvable_border_raises(self):
        needed, dangling = border_targets(2, 2, 4, 2)
        with pytest.raises(ConcurrencyError):
            BorderWalker(needed, dangling, None, 0, [])

    def test_latest_intersecting_inflight_wins(self):
        needed = [(0, 2)]
        walker = BorderWalker(needed, [], None, 0, [(3, 0, 2), (5, 0, 1), (4, 2, 2)])
        spec = drive_plan(walk_plan(walker), lambda ref: None)
        assert spec.versions[(0, 2)] == 5

    def test_target_the_published_tree_does_not_reach_raises_after_the_walk(self):
        """A target under a dangling pointer of the published tree: the walk
        ends without it and reading the result raises."""
        model = TreeModel()
        model.apply_update(0, 3)  # v1: pages 0-2, the (3, 1) pointer dangles
        walker = BorderWalker([(2, 1), (3, 1)], [], 1, 3, [])
        with pytest.raises(ConcurrencyError, match=r"\(3, 1\)"):
            drive_plan(walk_plan(walker), model.fetch)


class TestVersionedHistoryProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),   # offset (pages)
                st.integers(min_value=1, max_value=24),   # count (pages)
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_every_version_reads_back_its_own_history(self, updates):
        """Property: after any sequence of valid updates, reading any version
        returns, for every page, the page written by the latest update <= that
        version touching it (the paper's snapshot semantics)."""
        model = TreeModel()
        expected: dict[int, dict[int, str]] = {0: {}}
        for offset, count in updates:
            # Clamp to the contiguity rule: a write must start within the blob.
            offset = min(offset, model.num_pages)
            model.apply_update(offset, count)
            previous = expected[model.version - 1]
            current = dict(previous)
            for page in range(offset, offset + count):
                current[page] = f"v{model.version}-p{page}"
            expected[model.version] = current

        for version in range(1, model.version + 1):
            num_pages = max(expected[version]) + 1
            result = model.read(version, 0, num_pages, num_pages=num_pages)
            got = {d.page_index: d.page_id for d in result.descriptors}
            assert got == expected[version]
