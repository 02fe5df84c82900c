"""Snapshot comparison by walking the shared segment trees.

Because unmodified subtrees are physically shared between snapshot versions
(same node identity: version, offset, size), two snapshots can be compared
without touching the shared parts at all: the walk only descends where the
two trees reference *different* node versions.  This gives a page-granular
diff in time proportional to the amount of change plus the tree depth — the
same property that makes BlobSeer's versioning cheap makes diffing cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..aio import SYNC_RUNTIME, run_sync
from ..core.async_store import AsyncBlobStore
from ..core.cluster import Cluster
from ..errors import VersionNotPublishedError
from ..metadata.geometry import pages_for_size, span_for_pages
from ..metadata.node import InnerNode, LeafNode, NodeKey, PageDescriptor
from ..version.records import resolve_owner


@dataclass(frozen=True)
class ChangedRange:
    """A maximal run of consecutive pages that differ between two snapshots.

    ``kind`` is ``"modified"`` when both snapshots have the pages but with
    different contents (different page ids), ``"added"`` when only the newer
    snapshot has them, and ``"removed"`` when only the older one does.
    """

    page_offset: int
    page_count: int
    kind: str

    def byte_range(self, page_size: int) -> tuple[int, int]:
        return self.page_offset * page_size, self.page_count * page_size


def version_manifest(
    cluster: Cluster, blob_id: str, version: int
) -> list[PageDescriptor]:
    """Return the page descriptors of every page of one published snapshot.

    This is the flat "page table" view of a snapshot, obtained by the
    engine's own metadata descent over every page, uncached so the tool
    neither reads nor fills a client's caches; it is what the garbage
    collector and the diff tool build on.
    """
    vm = cluster.version_manager
    if not vm.is_published(blob_id, version):
        raise VersionNotPublishedError(blob_id, version)
    record = vm.get_record(blob_id)
    size = vm.get_size(blob_id, version)
    num_pages = pages_for_size(size, record.page_size)
    if num_pages == 0:
        return []
    store = AsyncBlobStore(
        cluster,
        cache_metadata=False,
        cache_pages=False,
        lease_versions=False,
        runtime=SYNC_RUNTIME,
    )
    result = run_sync(
        store._resolve_ranges(
            record, version, span_for_pages(num_pages), [(0, num_pages)]
        )
    )
    return result.sorted_descriptors()


def diff_versions(
    cluster: Cluster, blob_id: str, old_version: int, new_version: int
) -> list[ChangedRange]:
    """Compare two published snapshots of a blob at page granularity.

    Physically shared subtrees (identical node identity in both trees) are
    skipped without being read.  Returns maximal changed runs ordered by
    page offset.
    """
    vm = cluster.version_manager
    record = vm.get_record(blob_id)
    page_size = record.page_size
    for version in (old_version, new_version):
        if not vm.is_published(blob_id, version):
            raise VersionNotPublishedError(blob_id, version)

    old_pages = pages_for_size(vm.get_size(blob_id, old_version), page_size)
    new_pages = pages_for_size(vm.get_size(blob_id, new_version), page_size)

    changed_pages: set[int] = set()

    def fetch(version: int, offset: int, size: int):
        owner = resolve_owner(record, version)
        return cluster.metadata_provider.get_node(
            NodeKey(owner, version, offset, size)
        )

    def walk(old_ref, new_ref, offset: int, size: int) -> None:
        """Descend both trees in lock step under the node range (offset, size).

        ``old_ref`` / ``new_ref`` are (version) ids of the node covering the
        range in each snapshot, or None when that snapshot has no node there.
        """
        if old_ref == new_ref:
            return  # physically shared subtree: nothing can differ
        old_in_range = old_ref is not None and offset < old_pages
        new_in_range = new_ref is not None and offset < new_pages
        if not old_in_range and not new_in_range:
            return
        if size == 1:
            if not old_in_range or not new_in_range:
                changed_pages.add(offset)
            else:
                old_leaf = fetch(old_ref, offset, size)
                new_leaf = fetch(new_ref, offset, size)
                if (
                    not isinstance(old_leaf, LeafNode)
                    or not isinstance(new_leaf, LeafNode)
                    or old_leaf.page_id != new_leaf.page_id
                ):
                    changed_pages.add(offset)
            return
        half = size // 2
        old_node = fetch(old_ref, offset, size) if old_in_range else None
        new_node = fetch(new_ref, offset, size) if new_in_range else None
        old_left = old_node.left_version if isinstance(old_node, InnerNode) else None
        old_right = old_node.right_version if isinstance(old_node, InnerNode) else None
        new_left = new_node.left_version if isinstance(new_node, InnerNode) else None
        new_right = new_node.right_version if isinstance(new_node, InnerNode) else None
        walk(old_left, new_left, offset, half)
        walk(old_right, new_right, offset + half, half)

    def covering_node_version(version: int, version_pages: int, size: int):
        """Version id of the node covering (0, size) inside a snapshot's tree.

        The snapshot's own span is at least ``size``; the covering node is
        reached by descending the left spine from the snapshot's root.
        """
        current_version = version
        current_size = span_for_pages(version_pages)
        while current_size > size:
            node = fetch(current_version, 0, current_size)
            if not isinstance(node, InnerNode) or node.left_version is None:
                return None
            current_version = node.left_version
            current_size //= 2
        return current_version

    # Only the pages present in *both* snapshots can be "modified"; everything
    # beyond the smaller snapshot is an addition (or removal) by definition.
    common_pages = min(old_pages, new_pages)
    if common_pages > 0:
        compare_span = span_for_pages(common_pages)
        old_root = covering_node_version(old_version, old_pages, compare_span)
        new_root = covering_node_version(new_version, new_pages, compare_span)
        walk(old_root, new_root, 0, compare_span)

    low, high = sorted((old_pages, new_pages))
    changed_pages.update(range(low, high))

    return _runs(changed_pages, old_pages, new_pages)


def _runs(pages: set[int], old_pages: int, new_pages: int) -> list[ChangedRange]:
    """Coalesce a set of changed page indices into maximal same-kind runs."""

    def kind_of(page: int) -> str:
        if page >= old_pages:
            return "added"
        if page >= new_pages:
            return "removed"
        return "modified"

    runs: list[ChangedRange] = []
    start = None
    previous = None
    for page in sorted(pages):
        if start is None:
            start, previous = page, page
            continue
        if page == previous + 1 and kind_of(page) == kind_of(start):
            previous = page
            continue
        runs.append(ChangedRange(start, previous - start + 1, kind_of(start)))
        start, previous = page, page
    if start is not None:
        runs.append(ChangedRange(start, previous - start + 1, kind_of(start)))
    return runs
