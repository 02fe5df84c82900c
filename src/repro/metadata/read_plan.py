"""Sans-IO implementation of READ_META (paper, Algorithm 3) using the
*frontier protocol*.

:func:`read_plan` descends the segment tree of a snapshot to find the page
descriptors covering a requested page range.  Instead of yielding one
:class:`~repro.metadata.node.NodeRef` fetch at a time, it traverses the tree
level by level and *yields* :class:`~repro.metadata.node.Frontier` batches —
all the independent node fetches of one tree level — and is *sent* the list
of corresponding :class:`TreeNode` values (aligned with ``Frontier.refs``).
It finally returns a :class:`ReadPlanResult`.

The frontier protocol is what makes metadata access scale the way the paper
argues it should: tree nodes live in a DHT precisely so that concurrent
fetches can proceed in parallel, so a traversal needs only one *batched*
round trip per tree level — O(log pages) trips — rather than one synchronous
round trip per node.  ``ReadPlanResult.round_trips`` counts the frontiers so
callers can report the metadata round-trip cost of a READ.

:func:`multi_range_read_plan` generalizes the traversal to several disjoint
page ranges in a *single* tree walk (used for the boundary pages of
unaligned writes, which need old bytes from the first and last page of the
update without traversing the metadata in between).

Drivers:

* the client engine expands a :class:`FrontierWalker` directly in its one
  cache-first descent (``AsyncBlobStore._resolve_ranges``: a level served
  by the caches is stepped over without an await), and awaits
  :func:`adrive_plan` only for the write side's border plan;
* tools and reference models call :func:`drive_plan` with a synchronous
  ``fetch_many`` — or a per-node ``fetch``, which also serves ad-hoc plans
  that yield bare :class:`NodeRef` requests;
* the discrete-event simulator advances the same generator, charging one
  (parallel) network round trip per frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Generator, Sequence

from ..errors import InvalidRangeError, MetadataNotFoundError
from ..util.ranges import intersects
from .geometry import children_of, is_leaf_range, validate_node_range
from .node import Frontier, InnerNode, LeafNode, NodeRef, PageDescriptor, TreeNode


@dataclass
class ReadPlanResult:
    """Outcome of a metadata read: the page descriptors plus traversal stats.

    ``nodes_fetched`` counts individual tree nodes (unchanged by batching);
    ``round_trips`` counts the frontiers the traversal yielded — the number
    of batched metadata round trips a driver needed.
    """

    descriptors: list[PageDescriptor] = field(default_factory=list)
    nodes_fetched: int = 0
    leaves_visited: int = 0
    inner_visited: int = 0
    round_trips: int = 0

    def sorted_descriptors(self) -> list[PageDescriptor]:
        return sorted(self.descriptors, key=lambda d: d.page_index)


def read_plan(
    root_version: int,
    span: int,
    page_offset: int,
    page_count: int,
) -> Generator[Frontier, Sequence[TreeNode], ReadPlanResult]:
    """Plan the metadata traversal for reading ``page_count`` pages starting
    at ``page_offset`` from the snapshot whose root node has version
    ``root_version`` and spans ``span`` pages.

    The traversal explores a node only when its range intersects the
    requested range (Algorithm 3, lines 8–13) and batches each tree level
    into one :class:`Frontier`.  Dangling child pointers (``None``) are never
    followed: a read bounded by the snapshot size never needs them.
    """
    return multi_range_read_plan(root_version, span, [(page_offset, page_count)])


def multi_range_read_plan(
    root_version: int,
    span: int,
    ranges: Sequence[tuple[int, int]],
) -> Generator[Frontier, Sequence[TreeNode], ReadPlanResult]:
    """Plan one combined, level-order traversal covering several disjoint
    page ranges.

    Equivalent to running :func:`read_plan` once per range, but nodes shared
    between the ranges' root-to-leaf paths are fetched once and every tree
    level is still resolved in a single frontier, keeping the round-trip
    count at O(tree depth) regardless of how many ranges are requested.
    """
    walker = plan_walker(root_version, span, ranges)
    frontier = walker.root_refs()
    while frontier:
        for ref in frontier:
            validate_node_range(ref.offset, ref.size)
        nodes = yield Frontier(tuple(frontier))
        walker.result.round_trips += 1
        walker.note_fetched(len(frontier))
        next_frontier: list[NodeRef] = []
        for ref, node in zip(frontier, nodes):
            next_frontier.extend(walker.expand(ref, node))
        frontier = next_frontier
    return walker.result


class FrontierWalker:
    """Incremental expansion core shared by the level-order generator and
    the client engine's descent.

    Holds the pure decision logic of Algorithm 3 — which children of a
    fetched node the requested ranges still want, leaf-descriptor
    collection, traversal accounting — WITHOUT any notion of when fetches
    happen.  The generator (:func:`multi_range_read_plan`) expands one whole
    level at a time; the driver in
    :class:`~repro.core.async_store.AsyncBlobStore` expands cache hits on
    the spot and, on a pipelined runtime, each bucket-group of nodes the
    moment its fetch lands, while sibling groups of the same level are
    still in flight.  Both observe the same node set,
    because expansion depends only on the node's own content, never on the
    order siblings resolve in.
    """

    def __init__(
        self, root_version: int, span: int, ranges: Sequence[tuple[int, int]]
    ):
        self.result = ReadPlanResult()
        self._root_version = root_version
        self._span = span
        self._ranges = list(ranges)

    def root_refs(self) -> list[NodeRef]:
        """The traversal's first frontier: the root, or nothing to do."""
        if not self._ranges:
            return []
        return [NodeRef(self._root_version, 0, self._span)]

    def _wanted(self, offset: int, size: int) -> bool:
        for page_offset, page_count in self._ranges:
            if intersects(offset, size, page_offset, page_count):
                return True
        return False

    def note_fetched(self, count: int) -> None:
        """Account *count* nodes that arrived from a resolved fetch."""
        self.result.nodes_fetched += count

    def expand(self, ref: NodeRef, node: TreeNode) -> list[NodeRef]:
        """Consume one fetched node: collect its descriptor (leaf) or
        return the wanted, validated child refs (inner node)."""
        result = self.result
        if is_leaf_range(ref.offset, ref.size):
            if not isinstance(node, LeafNode):
                raise MetadataNotFoundError(
                    f"expected a leaf at ({ref.offset}, {ref.size}), "
                    f"got {node!r}"
                )
            result.leaves_visited += 1
            result.descriptors.append(
                PageDescriptor(
                    page_index=ref.offset,
                    page_id=node.page_id,
                    provider_id=node.provider_id,
                    length=node.length,
                    provider_ids=node.provider_ids,
                )
            )
            return []
        if not isinstance(node, InnerNode):
            raise MetadataNotFoundError(
                f"expected an inner node at ({ref.offset}, {ref.size}), "
                f"got {node!r}"
            )
        result.inner_visited += 1
        (left_offset, left_size), (right_offset, right_size) = children_of(
            ref.offset, ref.size
        )
        children: list[NodeRef] = []
        if node.left_version is not None and self._wanted(left_offset, left_size):
            children.append(NodeRef(node.left_version, left_offset, left_size))
        if node.right_version is not None and self._wanted(
            right_offset, right_size
        ):
            children.append(NodeRef(node.right_version, right_offset, right_size))
        return children

    def predicted_children(self, ref: NodeRef) -> list[NodeRef]:
        """Guess the child refs of an *unresolved* inner ref (speculation).

        The speculative-prefetch path (DESIGN.md §9) wants to fetch level
        N+1 before level N has resolved, so it cannot consult the parent's
        child-version pointers.  The geometry of the child spans is fully
        determined by ``ref`` alone, and inside the subtree of a single
        update every node carries the update's version — so predicting
        ``child.version == ref.version`` is exact whenever the requested
        window does not cross an update boundary at this level.  Wrong
        guesses surface as DHT misses and are simply discarded; the
        authoritative :meth:`expand` of the fetched parent always decides
        the real frontier.
        """
        if is_leaf_range(ref.offset, ref.size):
            return []
        (left_offset, left_size), (right_offset, right_size) = children_of(
            ref.offset, ref.size
        )
        children: list[NodeRef] = []
        if self._wanted(left_offset, left_size):
            children.append(NodeRef(ref.version, left_offset, left_size))
        if self._wanted(right_offset, right_size):
            children.append(NodeRef(ref.version, right_offset, right_size))
        return children


def plan_walker(
    root_version: int, span: int, ranges: Sequence[tuple[int, int]]
) -> FrontierWalker:
    """A validated :class:`FrontierWalker` for *ranges* — the one range check
    behind :func:`read_plan`, :func:`multi_range_read_plan` and the
    engine's descent: every non-empty range must lie inside the tree's
    span."""
    active = [(offset, count) for offset, count in ranges if count > 0]
    if active and span <= 0:
        raise InvalidRangeError("cannot read from an empty snapshot")
    for page_offset, page_count in active:
        if page_offset < 0 or page_offset + page_count > span:
            raise InvalidRangeError(
                f"page range ({page_offset}, {page_count}) outside tree span {span}"
            )
    return FrontierWalker(root_version, span, active)


def drive_plan(
    plan: Generator,
    fetch: Callable[[NodeRef], TreeNode] | None = None,
    fetch_many: Callable[[list[NodeRef]], Sequence[TreeNode]] | None = None,
):
    """Run a sans-IO plan to completion with a synchronous fetch function.

    Works for any generator following the "yield a request, receive a value,
    return a result" protocol (both :func:`read_plan` and
    :func:`repro.metadata.build.border_plan`).  Requests may be single
    :class:`NodeRef` objects or :class:`Frontier` batches:

    * a :class:`Frontier` is resolved with ``fetch_many(refs)`` when given —
      one batched round trip per tree level — or by mapping ``fetch`` over
      its refs otherwise;
    * a bare :class:`NodeRef` is resolved with ``fetch`` (or a one-element
      ``fetch_many`` call).
    """
    if fetch is None and fetch_many is None:
        raise TypeError("drive_plan needs a fetch or fetch_many function")
    try:
        request = next(plan)
        while True:
            if isinstance(request, Frontier):
                refs = list(request.refs)
                if fetch_many is not None:
                    value = list(fetch_many(refs))
                else:
                    value = [fetch(ref) for ref in refs]
                if len(value) != len(refs):
                    raise MetadataNotFoundError(
                        f"frontier fetch returned {len(value)} nodes "
                        f"for {len(refs)} refs"
                    )
            elif fetch is not None:
                value = fetch(request)
            else:
                value = fetch_many([request])[0]
            request = plan.send(value)
    except StopIteration as stop:
        return stop.value


async def adrive_plan(plan: Generator, fetch_many):
    """Awaitable :func:`drive_plan` over a batched async ``fetch_many``, for
    plans that yield :class:`Frontier` batches (every in-tree plan does).

    Resolves the plan strictly level by level (one awaited fetch per
    frontier) — the traversal order, node set and round-trip accounting are
    identical to the sync driver's.  The engine drives the write side's
    border plan with it; its READ descent lives in the client (it needs the
    caches and placement grouping), not here.
    """
    try:
        frontier = next(plan)
        while True:
            refs = list(frontier.refs)
            nodes = list(await fetch_many(refs))
            if len(nodes) != len(refs):
                raise MetadataNotFoundError(
                    f"frontier fetch returned {len(nodes)} nodes "
                    f"for {len(refs)} refs"
                )
            frontier = plan.send(nodes)
    except StopIteration as stop:
        return stop.value
