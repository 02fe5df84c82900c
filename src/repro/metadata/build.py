"""Sans-IO implementation of BUILD_META and border-node discovery
(paper, Section 4.2, Algorithm 4).

An update that produces snapshot version ``vw`` creates the smallest
(possibly incomplete) tree whose leaves are exactly the pages it wrote.  The
new inner nodes may have children that fall outside the update range — the
*border nodes* — which must point at the most recent older version of the
corresponding subtree.  Concurrent updates are handled without waiting: the
version manager hands the writer the ranges of in-flight (assigned but
unpublished) updates, and the writer resolves the remaining border versions
by descending the most recently *published* tree (paper, "Why WRITEs and
APPENDs may proceed in parallel").

The three pieces are:

* :func:`border_targets` — which border child ranges need a version, and
  which are dangling (no older pages underneath);
* :class:`BorderWalker` — resolves the needed versions: in-flight ranges
  first, then a descent of the published tree.  It is a walker, like
  :class:`~repro.metadata.read_plan.FrontierWalker`: it decides which
  nodes to fetch and never fetches them, so the engine's one cache-first
  descent (``AsyncBlobStore._walk``) and the level-order generator
  :func:`repro.metadata.read_plan.walk_plan` both drive it;
* :func:`build_nodes` — a pure function materializing every new tree node
  bottom-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..errors import ConcurrencyError, InvalidRangeError, MetadataNotFoundError
from ..util.ranges import intersects
from .geometry import children_of, node_ranges_covering, span_for_pages
from .node import InnerNode, LeafNode, NodeRef, PageDescriptor, TreeNode


@dataclass
class BorderSpec:
    """Resolved border information for one update.

    ``versions`` maps a border child range ``(offset, size)`` to the snapshot
    version owning that subtree, or ``None`` when the subtree holds no pages
    of any earlier snapshot (a dangling pointer in the incomplete tree).
    """

    versions: dict[tuple[int, int], int | None] = field(default_factory=dict)
    nodes_fetched: int = 0
    round_trips: int = 0

    def version_for(self, offset: int, size: int) -> int | None:
        try:
            return self.versions[(offset, size)]
        except KeyError:
            raise ConcurrencyError(
                f"border version for subtree ({offset}, {size}) was never resolved"
            ) from None


@dataclass
class BuildResult:
    """All new tree nodes produced for one update, bottom-up (leaves first)."""

    version: int
    nodes: list[tuple[NodeRef, TreeNode]] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def root_ref(self) -> NodeRef:
        if not self.nodes:
            raise InvalidRangeError("empty build result has no root")
        return self.nodes[-1][0]


def border_targets(
    update_offset: int,
    update_size: int,
    span: int,
    prev_num_pages: int,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Return (needed, dangling) border child ranges for an update.

    ``needed`` ranges hold at least one page of the previous snapshot and
    must be resolved to an older version; ``dangling`` ranges hold none and
    become ``None`` child pointers.
    """
    if update_size <= 0:
        raise InvalidRangeError("update size must be >= 1 page")
    needed: list[tuple[int, int]] = []
    dangling: list[tuple[int, int]] = []
    for offset, size in node_ranges_covering(update_offset, update_size, span):
        if size == 1:
            continue
        for child_offset, child_size in children_of(offset, size):
            if intersects(child_offset, child_size, update_offset, update_size):
                continue  # covered by a node this update creates itself
            if child_offset < prev_num_pages:
                needed.append((child_offset, child_size))
            else:
                dangling.append((child_offset, child_size))
    return needed, dangling


class BorderWalker:
    """Resolve the versions of all border child ranges, as a walker over
    the most recently *published* tree — the same interface
    (``root_refs`` / ``expand`` / ``note_fetched`` / ``result``) as
    :class:`~repro.metadata.read_plan.FrontierWalker`, so one driver runs
    both descents.

    Parameters
    ----------
    targets, dangling:
        Output of :func:`border_targets`.
    published_version, published_num_pages:
        The most recently *published* snapshot at the time the update was
        assigned its version (``None`` / 0 when nothing is published yet).
    inflight:
        ``(version, page_offset, page_count)`` of every update that was
        assigned a lower version than ours but has not been published yet.
        These are the "problematic tree nodes" the version manager supplies
        (paper, Section 4.2): their metadata may not be readable yet, but
        their version numbers and ranges are known.

    Dangling and in-flight targets are resolved on construction.  The walk
    then descends the published tree only into nodes that *strictly*
    contain a remaining target; a target equal to a child range is resolved
    from the parent's pointer without fetching it.  The decision reads the
    static target set, and border targets are disjoint, so expansion does
    not depend on the order sibling nodes arrive in.
    """

    missing_ok = False

    def __init__(
        self,
        targets: Sequence[tuple[int, int]],
        dangling: Sequence[tuple[int, int]],
        published_version: int | None,
        published_num_pages: int,
        inflight: Sequence[tuple[int, int, int]],
    ):
        spec = BorderSpec()
        for child in dangling:
            spec.versions[child] = None
        unresolved: list[tuple[int, int]] = []
        for child in targets:
            child_offset, child_size = child
            candidates = [
                version
                for version, upd_offset, upd_count in inflight
                if intersects(upd_offset, upd_count, child_offset, child_size)
            ]
            if candidates:
                spec.versions[child] = max(candidates)
            else:
                unresolved.append(child)
        if unresolved and (published_version is None or published_num_pages <= 0):
            raise ConcurrencyError(
                "border subtrees need an older version but no snapshot is published "
                f"and no in-flight update covers them: {unresolved!r}"
            )
        self._spec = spec
        self._targets = frozenset(unresolved)
        self._root = NodeRef(
            published_version, 0, span_for_pages(published_num_pages)
        )

    def root_refs(self) -> list[NodeRef]:
        """The published root, if a remaining target lies strictly inside."""
        return self._follow(self._root) if self._targets else []

    def _follow(self, ref: NodeRef) -> list[NodeRef]:
        """Resolve ``ref`` if it IS a target; ``[ref]`` if it must be fetched
        because a target lies strictly inside it; else nothing."""
        current = (ref.offset, ref.size)
        if current in self._targets:
            self._spec.versions[current] = ref.version
            return []
        end = ref.offset + ref.size
        for offset, size in self._targets:
            if ref.offset <= offset and offset + size <= end:
                return [ref]
        return []

    def note_fetched(self, count: int) -> None:
        """Account *count* nodes that arrived from a resolved fetch."""
        self._spec.nodes_fetched += count

    def expand(self, ref: NodeRef, node: TreeNode) -> list[NodeRef]:
        """Consume one fetched inner node: resolve the targets its children
        are, return the children that still contain one."""
        if not isinstance(node, InnerNode):
            raise MetadataNotFoundError(
                f"expected an inner node at ({ref.offset}, {ref.size}) "
                "while resolving border nodes"
            )
        (left_offset, left_size), (right_offset, right_size) = children_of(
            ref.offset, ref.size
        )
        children: list[NodeRef] = []
        if node.left_version is not None:
            children += self._follow(NodeRef(node.left_version, left_offset, left_size))
        if node.right_version is not None:
            children += self._follow(
                NodeRef(node.right_version, right_offset, right_size)
            )
        return children

    @property
    def result(self) -> BorderSpec:
        """The resolved spec, once the walk is over: the one place a target
        the published tree did not reach raises :class:`ConcurrencyError`."""
        missing = self._targets - self._spec.versions.keys()
        if missing:
            raise ConcurrencyError(
                f"could not resolve border versions for subtrees: {sorted(missing)!r}"
            )
        return self._spec


def build_nodes(
    version: int,
    update_offset: int,
    update_size: int,
    span: int,
    descriptors: Sequence[PageDescriptor],
    borders: BorderSpec,
) -> BuildResult:
    """Materialize every tree node created by one update (Algorithm 4).

    Parameters
    ----------
    version:
        The snapshot version assigned to the update.
    update_offset, update_size:
        The updated page range.
    span:
        Span (in pages) of the *new* snapshot's tree — i.e.
        ``span_for_pages(new_num_pages)``.
    descriptors:
        One :class:`PageDescriptor` per written page; must cover the update
        range exactly.
    borders:
        Resolved border versions (see :class:`BorderWalker`).

    Returns the new nodes bottom-up; the last entry is always the new root.
    """
    if update_size <= 0:
        raise InvalidRangeError("update size must be >= 1 page")
    if span < span_for_pages(update_offset + update_size):
        raise InvalidRangeError(
            f"span {span} cannot contain the update range "
            f"({update_offset}, {update_size})"
        )
    expected_pages = set(range(update_offset, update_offset + update_size))
    provided_pages = {descriptor.page_index for descriptor in descriptors}
    if provided_pages != expected_pages:
        raise InvalidRangeError(
            "page descriptors do not cover the update range exactly: "
            f"missing={sorted(expected_pages - provided_pages)} "
            f"extra={sorted(provided_pages - expected_pages)}"
        )

    result = BuildResult(version=version)

    # Leaves, in page order.
    for descriptor in sorted(descriptors, key=lambda d: d.page_index):
        ref = NodeRef(version, descriptor.page_index, 1)
        leaf = LeafNode(
            page_id=descriptor.page_id,
            provider_id=descriptor.provider_id,
            length=descriptor.length,
            provider_ids=descriptor.provider_ids,
        )
        result.nodes.append((ref, leaf))

    # Inner levels, bottom-up until the root (size == span).
    size = 1
    current_offsets = sorted(provided_pages)
    while size < span:
        parent_size = size * 2
        parent_offsets = sorted(
            {(offset // parent_size) * parent_size for offset in current_offsets}
        )
        for parent_offset in parent_offsets:
            left = (parent_offset, size)
            right = (parent_offset + size, size)
            left_version = (
                version
                if intersects(left[0], left[1], update_offset, update_size)
                else borders.version_for(*left)
            )
            right_version = (
                version
                if intersects(right[0], right[1], update_offset, update_size)
                else borders.version_for(*right)
            )
            ref = NodeRef(version, parent_offset, parent_size)
            result.nodes.append((ref, InnerNode(left_version, right_version)))
        current_offsets = parent_offsets
        size = parent_size

    return result
