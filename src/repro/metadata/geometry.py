"""Segment-tree geometry: spans, parents, children, node enumeration.

The tree covering a snapshot with ``p`` pages spans ``next_power_of_two(p)``
pages.  Node ranges are always aligned: a node covering ``(offset, size)``
satisfies ``offset % size == 0`` and ``size`` is a power of two.  Leaves have
``size == 1`` (one page).
"""

from __future__ import annotations

from ..errors import InvalidRangeError
from ..util.ranges import ceil_div, intersects, next_power_of_two


def pages_for_size(size_bytes: int, page_size: int) -> int:
    """Number of pages needed to hold ``size_bytes`` bytes."""
    if size_bytes < 0:
        raise InvalidRangeError(f"negative blob size: {size_bytes}")
    return ceil_div(size_bytes, page_size)


def span_for_pages(num_pages: int) -> int:
    """Span (in pages) of the tree covering a snapshot with ``num_pages`` pages.

    An empty snapshot has no tree; by convention its span is 0.
    """
    if num_pages <= 0:
        return 0
    return next_power_of_two(num_pages)


def validate_node_range(offset: int, size: int) -> None:
    """Raise :class:`InvalidRangeError` unless (offset, size) is a legal node range."""
    if size <= 0 or (size & (size - 1)) != 0:
        raise InvalidRangeError(f"node size must be a positive power of two: {size}")
    if offset < 0 or offset % size != 0:
        raise InvalidRangeError(
            "node offset must be a non-negative multiple of its size: "
            f"({offset}, {size})"
        )


def is_leaf_range(offset: int, size: int) -> bool:
    """A node is a leaf when it covers exactly one page."""
    return size == 1


def children_of(offset: int, size: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Return the ranges of the left and right children of an inner node."""
    validate_node_range(offset, size)
    if size == 1:
        raise InvalidRangeError("a leaf node has no children")
    left, right, half = split(offset, size)
    return (left, half), (right, half)


def split(offset: int, size: int) -> tuple[int, int, int]:
    """The binary split of an inner node's range, unchecked: ``(offset,
    right_offset, half)`` — the left child is ``(offset, half)``, the right
    ``(right_offset, half)``.  For a range already validated (a walk checks
    every ref once before it probes the cache); anything else goes through
    :func:`children_of`."""
    half = size >> 1
    return offset, offset + half, half


def parent_of(offset: int, size: int) -> tuple[int, int, str]:
    """Return the parent range of a node and whether the node is its LEFT or
    RIGHT child.

    Mirrors lines 13–19 of the paper's Algorithm 4: a node at ``offset`` with
    ``offset % (2 * size) == 0`` is the left child of ``(offset, 2 * size)``,
    otherwise the right child of ``(offset - size, 2 * size)``.
    """
    validate_node_range(offset, size)
    if offset % (2 * size) == 0:
        return offset, 2 * size, "LEFT"
    return offset - size, 2 * size, "RIGHT"


def node_ranges_covering(
    update_offset: int, update_size: int, span: int
) -> list[tuple[int, int]]:
    """Enumerate every node range of a tree of ``span`` pages that intersects
    the update page range ``(update_offset, update_size)``.

    These are exactly the nodes a WRITE/APPEND creates (its new, partially
    shared tree).  The list is ordered bottom-up (leaves first, root last),
    which is the order BUILD_META materializes them.
    """
    if span <= 0 or update_size <= 0:
        return []
    ranges: list[tuple[int, int]] = []
    size = 1
    while size <= span:
        first = (update_offset // size) * size
        last = ((update_offset + update_size - 1) // size) * size
        offset = first
        while offset <= last and offset < span:
            if intersects(offset, size, update_offset, update_size):
                ranges.append((offset, size))
            offset += size
        size *= 2
    return ranges


def tree_depth(span: int) -> int:
    """Number of levels of a tree spanning ``span`` pages (0 for an empty tree)."""
    if span <= 0:
        return 0
    return span.bit_length()  # span is a power of two: log2(span) + 1 levels
