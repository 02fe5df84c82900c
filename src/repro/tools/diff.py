"""Snapshot comparison by walking the shared segment trees.

Because unmodified subtrees are physically shared between snapshot versions
(same node identity: version, offset, size), two snapshots can be compared
without touching the shared parts at all: the walk descends the newer tree
only into nodes the older one does not share.  This gives a page-granular
diff in time proportional to the amount of change plus the tree depth — the
same property that makes BlobSeer's versioning cheap makes diffing cheap.
Both the manifest and the diff are the engine's one tree descent
(``AsyncBlobStore._walk``) on an uncached store, one DHT batch per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import groupby

from ..core.async_store import walk_uncached
from ..core.cluster import Cluster
from ..errors import VersionNotPublishedError
from ..metadata.geometry import pages_for_size, span_for_pages
from ..metadata.node import PageDescriptor
from ..metadata.read_plan import ReachWalker, plan_walker
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
    neither reads nor fills a client's caches.
    """
    vm = cluster.version_manager
    if not vm.is_published(blob_id, version):
        raise VersionNotPublishedError(blob_id, version)
    record = vm.get_record(blob_id)
    size = vm.get_size(blob_id, version)
    num_pages = pages_for_size(size, record.page_size)
    if num_pages == 0:
        return []
    walker = plan_walker(version, span_for_pages(num_pages), [(0, num_pages)])
    result = walk_uncached(cluster, record, walker)
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
    low, high = sorted((old_pages, new_pages))
    # Everything beyond the smaller snapshot is an addition (or removal).
    changed_pages = set(range(low, high))
    # The older tree shares a node of the newer one exactly when its version
    # is at most the older snapshot's: an update creates a node for every
    # range it touches, and a snapshot holds, per range, the newest such
    # node up to its version.  So every leaf the walk reaches has changed.
    older, newer = sorted((old_version, new_version))
    walker = ReachWalker(
        partial(resolve_owner, record),
        [(newer, pages_for_size(vm.get_size(blob_id, newer), page_size))],
        set(),
        wanted=lambda ref: ref.version > older and ref.offset < low,
    )
    leaves = walk_uncached(cluster, record, walker).leaves
    changed_pages.update(key.offset for key, _leaf in leaves)
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
    # Consecutive pages keep ``page - position`` constant across their run.
    for (_shift, kind), group in groupby(
        enumerate(sorted(pages)), key=lambda item: (item[1] - item[0], kind_of(item[1]))
    ):
        members = [page for _position, page in group]
        runs.append(ChangedRange(members[0], len(members), kind))
    return runs
