"""Distributed segment-tree metadata (Section 4 of the paper).

Metadata is organized as a segment tree per snapshot version; nodes are
shared between versions ("weaving") and stored in a DHT.  The algorithms are
implemented *sans-IO*: tree traversal and border-node discovery are
walkers that decide which nodes to fetch and never fetch them, stepped by
the client's cache-first descent (:mod:`repro.core`); the level-order
generator :func:`read_plan` yields a READ's batched node-fetch requests
(:class:`Frontier` — one batch per tree level); tree construction is a pure
function.
"""

from .node import (
    Frontier,
    InnerNode,
    LeafNode,
    NodeKey,
    NodeRef,
    PageDescriptor,
    TreeNode,
)
from .geometry import (
    children_of,
    is_leaf_range,
    node_ranges_covering,
    pages_for_size,
    parent_of,
    span_for_pages,
    validate_node_range,
)
from .read_plan import (
    ReadPlanResult,
    drive_plan,
    read_plan,
)
from .build import (
    BorderSpec,
    BorderWalker,
    BuildResult,
    border_targets,
    build_nodes,
)
from .metadata_provider import MetadataProvider

__all__ = [
    "Frontier",
    "InnerNode",
    "LeafNode",
    "NodeKey",
    "NodeRef",
    "PageDescriptor",
    "TreeNode",
    "children_of",
    "is_leaf_range",
    "node_ranges_covering",
    "pages_for_size",
    "parent_of",
    "span_for_pages",
    "validate_node_range",
    "ReadPlanResult",
    "drive_plan",
    "read_plan",
    "BorderSpec",
    "BorderWalker",
    "BuildResult",
    "border_targets",
    "build_nodes",
    "MetadataProvider",
]
