"""Record types handed out by the version manager."""

from __future__ import annotations

from dataclasses import dataclass

from ..metadata.geometry import pages_for_size, span_for_pages
from ..util.ranges import covering_page_range


@dataclass(frozen=True)
class BlobRecord:
    """Static description of a blob known to the version manager.

    ``lineage`` is empty for a blob created with CREATE.  For a blob created
    with BRANCH it lists ``(ancestor_blob_id, branch_version)`` pairs from the
    immediate parent to the oldest ancestor: snapshot versions at or below a
    branch version are physically owned by that ancestor (or one above it).
    """

    blob_id: str
    page_size: int
    lineage: tuple[tuple[str, int], ...] = ()

    @property
    def is_branch(self) -> bool:
        return bool(self.lineage)


def resolve_owner(record: BlobRecord, version: int) -> str:
    """Return the blob id that physically owns metadata of ``version``.

    Metadata nodes created before a branch point are shared with the
    ancestor blob and were written under the ancestor's id; nodes created by
    the branch itself are written under the branch's id.
    """
    owner = record.blob_id
    for ancestor_id, branch_version in record.lineage:
        if version <= branch_version:
            owner = ancestor_id
        else:
            break
    return owner


@dataclass(frozen=True)
class RegisterRequest:
    """One WRITE/APPEND registration travelling in a ``multi_register`` batch.

    The wire form of the version-manager request of Section 4.2.  In-process
    each ``register_update`` is a batch of one; the simulated VM node
    (:class:`repro.sim.deployment.SimVersionOffice`) batches the requests
    that arrive during a round.  The version manager answers each with an
    :class:`UpdateTicket` (or a per-request error).
    """

    blob_id: str
    size: int
    offset: int | None = None
    is_append: bool = False


@dataclass(frozen=True)
class CompletionNotice:
    """One completion/abort notification in a ``multi_complete`` batch.

    ``kind`` is ``"complete"`` (Algorithm 2, line 12 — the writer succeeded)
    or ``"abort"`` (the extension over the paper: the writer gave up and the
    version becomes a hole).  Notices of one batch are applied strictly in
    list order, so an abort filed between two completions behaves exactly as
    three sequential RPCs would.
    """

    blob_id: str
    version: int
    kind: str = "complete"
    reason: str = ""


@dataclass(frozen=True)
class RecencyLease:
    """A snapshot of a blob's publication state, used for client leases.

    ``epoch`` is the blob's published watermark at the time of the snapshot;
    it increases monotonically with every publication, so a client holding a
    lease can tell whether a cached ``(version, size)`` pair predates a
    publish notification (see :class:`repro.vm.lease.LeaseCache`).
    """

    blob_id: str
    version: int
    size: int
    epoch: int


@dataclass(frozen=True)
class InFlightUpdate:
    """An update that has been assigned a version but is not yet published."""

    version: int
    page_offset: int
    page_count: int

    def as_tuple(self) -> tuple[int, int, int]:
        return self.version, self.page_offset, self.page_count


@dataclass(frozen=True)
class UpdateTicket:
    """Everything a writer learns when the version manager assigns it a version.

    This corresponds to the version-manager response described in Section 4.2:
    the assigned snapshot version, the byte offset the update applies at (for
    APPEND this is the size of the previous snapshot), the most recently
    published snapshot to descend for border nodes, and the ranges of
    concurrent in-flight updates with lower versions.
    """

    blob_id: str
    version: int
    byte_offset: int
    byte_size: int
    prev_size: int
    new_size: int
    page_size: int
    published_version: int | None
    published_size: int
    inflight: tuple[InFlightUpdate, ...] = ()

    # -- derived geometry ---------------------------------------------------
    @property
    def page_offset(self) -> int:
        """First page index touched by the update."""
        first, _count = covering_page_range(
            self.byte_offset, self.byte_size, self.page_size
        )
        return first

    @property
    def page_count(self) -> int:
        """Number of pages touched by the update (boundary pages included)."""
        _first, count = covering_page_range(
            self.byte_offset, self.byte_size, self.page_size
        )
        return count

    @property
    def prev_num_pages(self) -> int:
        """Number of pages of the previous snapshot (version - 1)."""
        return pages_for_size(self.prev_size, self.page_size)

    @property
    def new_num_pages(self) -> int:
        """Number of pages of the snapshot this update generates."""
        return pages_for_size(self.new_size, self.page_size)

    @property
    def span(self) -> int:
        """Tree span (in pages) of the snapshot this update generates."""
        return span_for_pages(self.new_num_pages)

    @property
    def published_num_pages(self) -> int:
        """Number of pages of the published reference snapshot."""
        return pages_for_size(self.published_size, self.page_size)

    def inflight_tuples(self) -> list[tuple[int, int, int]]:
        """In-flight updates as plain tuples for
        :class:`~repro.metadata.build.BorderWalker`."""
        return [update.as_tuple() for update in self.inflight]
