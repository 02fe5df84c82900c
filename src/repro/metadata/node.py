"""Metadata tree node types.

A tree node is identified uniquely by its *version* and the page range
``(offset, size)`` it covers (paper, Section 4.1).  Inner nodes hold the
versions of their left and right children; leaves hold the page id and the
provider that stores the page.

All offsets and sizes in this module are expressed in **pages**, not bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True, order=True)
class NodeKey:
    """Globally unique identity of a tree node in the metadata DHT.

    ``blob_id`` is the blob that *created* the node (for branched blobs this
    is resolved through the lineage), ``version`` the snapshot version whose
    update created it, and ``(offset, size)`` the page range it covers.
    """

    blob_id: str
    version: int
    offset: int
    size: int

    def to_string(self) -> str:
        """Serialize to the flat string used as the DHT key."""
        return f"{self.blob_id}/{self.version}/{self.offset}/{self.size}"

    @classmethod
    def from_string(cls, raw: str) -> "NodeKey":
        blob_id, version, offset, size = raw.rsplit("/", 3)
        return cls(blob_id, int(version), int(offset), int(size))


class NodeRef(NamedTuple):
    """A (version, offset, size) reference to a node, without the blob id.

    The sans-IO plans yield ``NodeRef`` requests; the driver resolves the
    owning blob id (branch lineage) and turns them into :class:`NodeKey`.
    Immutable, and a tuple so that a walk builds one per visited node
    cheaply.
    """

    version: int
    offset: int
    size: int


@dataclass(frozen=True)
class Frontier:
    """A batch of independent node fetches, one tree level of a traversal.

    The level-order generator :func:`repro.metadata.read_plan.read_plan`
    yields one ``Frontier`` per tree level instead of one :class:`NodeRef`
    per node: every ref in a frontier can be resolved concurrently, so a
    driver needs only one (batched) round trip per frontier — O(tree
    depth) trips instead of O(nodes).

    The plan must be sent back a list of :class:`TreeNode` values aligned
    with :attr:`refs`.
    """

    refs: tuple[NodeRef, ...]

    def __len__(self) -> int:
        return len(self.refs)

    def __iter__(self):
        return iter(self.refs)


@dataclass(frozen=True)
class LeafNode:
    """A leaf covers exactly one page and records where it is stored.

    ``length`` is the number of valid bytes in the page — equal to the page
    size except possibly for the last page of a snapshot.

    ``provider_ids`` is the full replica set of the page, primary first:
    ``provider_ids[0] == provider_id`` always holds, and a single-replica
    leaf (``page_replication=1``, the paper's layout) has exactly
    ``(provider_id,)`` so its wire encoding stays bit-identical to the
    pre-replication format.  Constructing with ``provider_ids=()`` (the
    default) normalizes to the single-replica tuple.
    """

    page_id: str
    provider_id: str
    length: int
    provider_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        replicas = tuple(self.provider_ids)
        if not replicas:
            replicas = (self.provider_id,)
        if replicas[0] != self.provider_id:
            raise ValueError(
                f"provider_ids must list the primary first: "
                f"{replicas[0]!r} != {self.provider_id!r}"
            )
        if len(set(replicas)) != len(replicas):
            raise ValueError(f"duplicate replica in provider_ids: {replicas}")
        object.__setattr__(self, "provider_ids", replicas)

    @property
    def is_leaf(self) -> bool:
        return True


@dataclass(frozen=True)
class InnerNode:
    """An inner node holds the versions of its left and right children.

    A child version of ``None`` means the child subtree contains no pages of
    any snapshot up to the node's version (the "incomplete binary tree" of
    the paper's BUILD_META): readers never descend into it because their
    range is bounded by the snapshot size.
    """

    left_version: int | None
    right_version: int | None

    @property
    def is_leaf(self) -> bool:
        return False


TreeNode = LeafNode | InnerNode


@dataclass(frozen=True)
class PageDescriptor:
    """Information needed to fetch one page during a READ (paper's ``PD`` set).

    ``page_index`` is the absolute page index within the blob; ``page_id``
    and ``provider_id`` locate the stored page; ``length`` is the number of
    valid bytes in it.  ``provider_ids`` carries the page's full replica
    set (primary first, mirroring :class:`LeafNode`) so the read path can
    fail over to the next live replica when the primary is dead.
    """

    page_index: int
    page_id: str
    provider_id: str
    length: int
    provider_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        replicas = tuple(self.provider_ids)
        if not replicas:
            replicas = (self.provider_id,)
        if replicas[0] != self.provider_id:
            raise ValueError(
                f"provider_ids must list the primary first: "
                f"{replicas[0]!r} != {self.provider_id!r}"
            )
        object.__setattr__(self, "provider_ids", replicas)
