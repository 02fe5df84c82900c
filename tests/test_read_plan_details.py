"""Focused unit tests for the sans-IO read plan and its generic driver."""

import pytest

from repro.errors import InvalidRangeError, MetadataNotFoundError
from repro.metadata.node import Frontier, InnerNode, LeafNode, NodeRef
from repro.metadata.read_plan import drive_plan, read_plan


def full_tree(version: int, span: int, page_size: int = 64):
    """Build a complete in-memory tree of ``span`` leaves for one version."""
    nodes = {}
    for page in range(span):
        nodes[(page, 1)] = LeafNode(
            f"v{version}-p{page}", f"data-{page % 3}", page_size
        )
    size = 2
    while size <= span:
        for offset in range(0, span, size):
            nodes[(offset, size)] = InnerNode(version, version)
        size *= 2
    return nodes


class TestReadPlanTraversal:
    def test_single_leaf_tree(self):
        nodes = full_tree(1, 1)
        result = drive_plan(
            read_plan(1, 1, 0, 1), lambda ref: nodes[(ref.offset, ref.size)]
        )
        assert [d.page_id for d in result.descriptors] == ["v1-p0"]
        assert result.nodes_fetched == 1

    def test_full_range_visits_every_leaf_once(self):
        span = 16
        nodes = full_tree(1, span)
        result = drive_plan(read_plan(1, span, 0, span),
                            lambda ref: nodes[(ref.offset, ref.size)])
        assert result.leaves_visited == span
        assert result.inner_visited == span - 1
        assert sorted(d.page_index for d in result.descriptors) == list(range(span))

    def test_wrong_node_type_at_leaf_position_is_detected(self):
        nodes = full_tree(1, 2)
        nodes[(0, 1)] = InnerNode(1, 1)  # corrupt: inner node where a leaf belongs
        with pytest.raises(MetadataNotFoundError):
            drive_plan(read_plan(1, 2, 0, 2), lambda ref: nodes[(ref.offset, ref.size)])

    def test_wrong_node_type_at_inner_position_is_detected(self):
        nodes = full_tree(1, 4)
        nodes[(0, 2)] = LeafNode("bogus", "data-0", 64)
        with pytest.raises(MetadataNotFoundError):
            drive_plan(read_plan(1, 4, 0, 4), lambda ref: nodes[(ref.offset, ref.size)])

    def test_negative_or_overflowing_ranges_rejected(self):
        with pytest.raises(InvalidRangeError):
            drive_plan(read_plan(1, 4, -1, 2), lambda ref: None)
        with pytest.raises(InvalidRangeError):
            drive_plan(read_plan(1, 4, 3, 2), lambda ref: None)

    def test_descriptor_order_is_sorted_by_page(self):
        span = 8
        nodes = full_tree(3, span)
        result = drive_plan(read_plan(3, span, 1, 6),
                            lambda ref: nodes[(ref.offset, ref.size)])
        pages = [d.page_index for d in result.sorted_descriptors()]
        assert pages == sorted(pages) == list(range(1, 7))


class TestDrivePlan:
    def test_fetch_exceptions_propagate(self):
        def plan():
            yield Frontier((NodeRef(1, 0, 1),))
            return "unreachable"

        def failing_fetch(_ref):
            raise MetadataNotFoundError("boom")

        with pytest.raises(MetadataNotFoundError):
            drive_plan(plan(), failing_fetch)

    def test_plan_without_requests(self):
        def plan():
            return 42
            yield Frontier((NodeRef(1, 0, 1),))  # pragma: no cover - a generator

        assert drive_plan(plan(), lambda ref: ref) == 42
