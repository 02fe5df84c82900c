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

The decisions live in *walkers* that never fetch anything: a
:class:`FrontierWalker` covers several disjoint page ranges in a *single*
tree walk (the boundary pages of an unaligned write need old bytes from its
first and last page without traversing the metadata in between),
:class:`~repro.metadata.build.BorderWalker` resolves an update's border
nodes and :class:`ReachWalker` reaches whole trees for the tools.
:func:`walk_plan` is the level-order generator over a read or border walker.

Drivers:

* the client engine steps a walker directly in its one cache-first descent
  (``AsyncBlobStore._walk``: a level served by the caches is stepped over
  without an await) — READ on every clock, the boundary reads of unaligned
  updates, border resolution, and the tools' walks (GC's mark, repair's
  scan, ``tools/diff.py``'s manifest and diff) on an uncached store alike;
* reference models call :func:`drive_plan` on a generator with a
  synchronous ``fetch_many``, or a per-node ``fetch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Generator, Sequence
from typing import TYPE_CHECKING

from ..errors import InvalidRangeError, MetadataNotFoundError
from .geometry import is_leaf_range, span_for_pages, split, validate_node_range
from .node import (
    Frontier,
    InnerNode,
    LeafNode,
    NodeKey,
    NodeRef,
    PageDescriptor,
    TreeNode,
)

if TYPE_CHECKING:
    from .build import BorderSpec, BorderWalker


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


# ``read_plan`` and ``drive_plan`` have no caller under ``src/``: the engine
# steps walkers itself.  They stay for the frozen wall benchmark's
# ``metadata.read_plan_us`` micro-drive (``benchmarks/wall/wallbench/
# runner.py``), ``benchmarks/test_core_operations.py`` and the planner tests.
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
    return walk_plan(plan_walker(root_version, span, [(page_offset, page_count)]))


def walk_plan(
    walker: FrontierWalker | BorderWalker,
) -> Generator[Frontier, Sequence[TreeNode], ReadPlanResult | BorderSpec]:
    """Step ``walker`` level by level: yield each tree level as one
    :class:`Frontier`, be sent its nodes, and return ``walker.result`` with
    ``round_trips`` = the number of frontiers — O(tree depth) whatever the
    number of ranges or targets."""
    frontier = walker.root_refs()
    round_trips = 0
    while frontier:
        for ref in frontier:
            validate_node_range(ref.offset, ref.size)
        nodes = yield Frontier(tuple(frontier))
        round_trips += 1
        walker.note_fetched(len(frontier))
        next_frontier: list[NodeRef] = []
        for ref, node in zip(frontier, nodes):
            next_frontier.extend(walker.expand(ref, node))
        frontier = next_frontier
    result = walker.result
    result.round_trips = round_trips
    return result


class FrontierWalker:
    """Incremental expansion core shared by the level-order generator and
    the client engine's descent.

    Holds the pure decision logic of Algorithm 3 — which children of a
    fetched node the requested ranges still want, leaf-descriptor
    collection, traversal accounting — WITHOUT any notion of when fetches
    happen.  The generator (:func:`walk_plan`) expands one whole
    level at a time; the driver in
    :class:`~repro.core.async_store.AsyncBlobStore` expands cache hits on
    the spot and, on a pipelined runtime, each bucket-group of nodes the
    moment its fetch lands, while sibling groups of the same level are
    still in flight.  Both observe the same node set,
    because expansion depends only on the node's own content, never on the
    order siblings resolve in.
    """

    missing_ok = False

    def __init__(
        self, root_version: int, span: int, ranges: Sequence[tuple[int, int]]
    ):
        self.result = ReadPlanResult()
        self._root_version = root_version
        self._span = span
        #: The requested ranges as half-open ``[start, end)`` page bounds.
        self._bounds = [
            (page_offset, page_offset + page_count)
            for page_offset, page_count in ranges
            if page_count > 0
        ]

    def root_refs(self) -> list[NodeRef]:
        """The traversal's first frontier: the root, or nothing to do."""
        if not self._bounds:
            return []
        return [NodeRef(self._root_version, 0, self._span)]

    def _wanted_halves(self, left: int, right: int, half: int) -> tuple[bool, bool]:
        """Whether a requested range intersects the left child ``[left,
        right)`` and the right child ``[right, right + half)`` of a split."""
        end = right + half
        want_left = want_right = False
        for start, stop in self._bounds:
            if start < right and left < stop:
                want_left = True
            if start < end and right < stop:
                want_right = True
        return want_left, want_right

    def note_fetched(self, count: int) -> None:
        """Account *count* nodes that arrived from a resolved fetch."""
        self.result.nodes_fetched += count

    def expand(self, ref: NodeRef, node: TreeNode) -> list[NodeRef]:
        """Consume one fetched node: collect its descriptor (leaf) or
        return the wanted child refs (inner node).  ``ref`` was validated
        before its fetch, so the split needs no second check."""
        _version, offset, size = ref
        result = self.result
        if is_leaf_range(offset, size):
            if not isinstance(node, LeafNode):
                raise MetadataNotFoundError(
                    f"expected a leaf at ({offset}, {size}), got {node!r}"
                )
            result.leaves_visited += 1
            result.descriptors.append(
                PageDescriptor(
                    page_index=offset,
                    page_id=node.page_id,
                    provider_id=node.provider_id,
                    length=node.length,
                    provider_ids=node.provider_ids,
                )
            )
            return []
        if not isinstance(node, InnerNode):
            raise MetadataNotFoundError(
                f"expected an inner node at ({offset}, {size}), got {node!r}"
            )
        result.inner_visited += 1
        left, right, half = split(offset, size)
        want_left, want_right = self._wanted_halves(left, right, half)
        children: list[NodeRef] = []
        if want_left and node.left_version is not None:
            children.append(NodeRef(node.left_version, left, half))
        if want_right and node.right_version is not None:
            children.append(NodeRef(node.right_version, right, half))
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
        version, offset, size = ref
        if is_leaf_range(offset, size):
            return []
        left, right, half = split(offset, size)
        want_left, want_right = self._wanted_halves(left, right, half)
        children: list[NodeRef] = []
        if want_left:
            children.append(NodeRef(version, left, half))
        if want_right:
            children.append(NodeRef(version, right, half))
        return children


def plan_walker(
    root_version: int, span: int, ranges: Sequence[tuple[int, int]]
) -> FrontierWalker:
    """A validated :class:`FrontierWalker` for *ranges* — the one range check
    behind :func:`read_plan` and the engine's descent: every non-empty range
    must lie inside the tree's span."""
    active = [(offset, count) for offset, count in ranges if count > 0]
    if active and span <= 0:
        raise InvalidRangeError("cannot read from an empty snapshot")
    for page_offset, page_count in active:
        if page_offset < 0 or page_offset + page_count > span:
            raise InvalidRangeError(
                f"page range ({page_offset}, {page_count}) outside tree span {span}"
            )
    return FrontierWalker(root_version, span, active)


@dataclass
class Reachable:
    """A :class:`ReachWalker`'s result: each leaf it reached, with its key."""

    leaves: list[tuple[NodeKey, LeafNode]] = field(default_factory=list)
    nodes_fetched: int = 0
    round_trips: int = 0


class ReachWalker:
    """Every node reachable from snapshots of one blob (GC's mark, repair's
    scan, diff's changed subtrees), behind the :class:`FrontierWalker`
    interface.  ``roots`` are ``(version, num_pages)``; ``owner`` maps a
    node version to the blob its key is under (a branch's inherited nodes
    live under its ancestor).  A node whose key string is in ``seen`` (kept
    across versions and blobs), or that ``wanted`` rejects, is skipped with
    its subtree; every node reached joins ``seen``.  With ``missing_ok`` the
    driver skips a node GC collected; an unavailable replica still fails.
    """

    def __init__(
        self,
        owner: Callable[[int], str],
        roots: Sequence[tuple[int, int]],
        seen: set[str],
        missing_ok: bool = False,
        wanted: Callable[[NodeRef], bool] | None = None,
    ):
        self.result = Reachable()
        self.missing_ok = missing_ok
        self._owner = owner
        self._seen = seen
        self._wanted = wanted
        self._roots = [
            NodeRef(version, 0, span_for_pages(pages))
            for version, pages in roots
            if pages
        ]

    def _key(self, ref: NodeRef) -> NodeKey:
        return NodeKey(self._owner(ref.version), *ref)

    def _unseen(self, refs: list[NodeRef]) -> list[NodeRef]:
        fresh: list[NodeRef] = []
        for ref in refs:
            if self._wanted is not None and not self._wanted(ref):
                continue
            key = self._key(ref).to_string()
            if key not in self._seen:
                self._seen.add(key)
                fresh.append(ref)
        return fresh

    def root_refs(self) -> list[NodeRef]:
        return self._unseen(self._roots)

    def note_fetched(self, count: int) -> None:
        self.result.nodes_fetched += count

    def expand(self, ref: NodeRef, node: TreeNode) -> list[NodeRef]:
        if isinstance(node, LeafNode):
            self.result.leaves.append((self._key(ref), node))
            return []
        left, right, half = split(ref.offset, ref.size)
        children: list[NodeRef] = []
        if node.left_version is not None:
            children.append(NodeRef(node.left_version, left, half))
        if node.right_version is not None:
            children.append(NodeRef(node.right_version, right, half))
        return self._unseen(children)


def drive_plan(
    plan: Generator,
    fetch: Callable[[NodeRef], TreeNode] | None = None,
    fetch_many: Callable[[list[NodeRef]], Sequence[TreeNode]] | None = None,
):
    """Run a sans-IO plan to completion with a synchronous fetch function.

    Works for any generator that yields :class:`Frontier` batches, is sent
    the nodes aligned with each batch's refs, and returns a result
    (:func:`read_plan`, :func:`walk_plan` over either walker).  A frontier
    is resolved with ``fetch_many(refs)`` when given — one batched round
    trip per tree level — or by mapping the per-node ``fetch`` over its
    refs otherwise.
    """
    if fetch is None and fetch_many is None:
        raise TypeError("drive_plan needs a fetch or fetch_many function")
    try:
        frontier = next(plan)
        while True:
            refs = list(frontier.refs)
            if fetch_many is not None:
                nodes = list(fetch_many(refs))
            else:
                nodes = [fetch(ref) for ref in refs]
            if len(nodes) != len(refs):
                raise MetadataNotFoundError(
                    f"frontier fetch returned {len(nodes)} nodes "
                    f"for {len(refs)} refs"
                )
            frontier = plan.send(nodes)
    except StopIteration as stop:
        return stop.value
