"""The metadata provider: tree nodes stored in the DHT.

The metadata provider "physically stores the metadata allowing clients to
find the pages corresponding to the blob snapshot version" (Section 3.1) and
is "implemented in a distributed way" over the custom DHT (Section 5).  This
class is a thin, typed façade over :class:`repro.dht.DHT`: it serializes
:class:`NodeKey` objects to DHT keys and validates node types.
"""

from __future__ import annotations

from ..aio import SYNC_RUNTIME, IORuntime, run_sync
from ..dht.dht import DHT
from ..errors import MetadataNotFoundError
from .node import InnerNode, LeafNode, NodeKey, TreeNode
from .serialization import decode_node, encode_node


class MetadataProvider:
    """Stores and retrieves metadata tree nodes keyed by :class:`NodeKey`.

    With ``encode_values=True`` nodes are serialized to their wire format
    (see :mod:`repro.metadata.serialization`) before being handed to the
    DHT, exactly as a networked deployment would ship them.
    """

    def __init__(self, dht: DHT, encode_values: bool = False):
        self._dht = dht
        self._encode = encode_values

    @property
    def dht(self) -> DHT:
        return self._dht

    def put_node(self, key: NodeKey, node: TreeNode) -> None:
        """Store one tree node.  Nodes are immutable; re-puts are idempotent."""
        run_sync(self.put_nodes_async([(key, node)], SYNC_RUNTIME))

    async def put_nodes_async(
        self, items: list[tuple[NodeKey, TreeNode]], runtime: IORuntime
    ) -> None:
        """Store a batch of tree nodes in one DHT multi-put.

        The paper writes all new nodes "in parallel" (Algorithm 4, line 34):
        the batch is grouped by bucket and each bucket lock is taken once,
        so an update publishes its whole tree in one round of bucket visits
        instead of one put per node.  The per-bucket sub-batches execute on
        *runtime* — the write path's event-loop mode starts this publish
        while the page stores are still in flight.
        """
        await self._dht.multi_put_async(self._encode_items(items), runtime)

    def _encode_items(
        self, items: list[tuple[NodeKey, TreeNode]]
    ) -> list[tuple[str, object]]:
        encoded: list[tuple[str, object]] = []
        for key, node in items:
            if not isinstance(node, (InnerNode, LeafNode)):
                raise TypeError(f"not a tree node: {node!r}")
            value = encode_node(node) if self._encode else node
            encoded.append((key.to_string(), value))
        return encoded

    async def get_nodes_async(
        self, keys: list[NodeKey], runtime: IORuntime, missing_ok: bool = False
    ) -> list[TreeNode | None]:
        """Fetch a batch of tree nodes in one DHT multi-get.

        The values are returned aligned with ``keys``; a missing node raises
        :class:`MetadataNotFoundError` (with ``missing_ok`` it is ``None``),
        one with an unavailable replica raises ``ProviderUnavailableError``.
        This is the provider-side half of the frontier protocol: one call
        resolves a whole tree level, its per-bucket sub-batches executing
        on *runtime*.
        """
        values = await self._dht.multi_get_async(
            [key.to_string() for key in keys], runtime, missing_ok
        )
        return [self._as_node(key, value) for key, value in zip(keys, values)]

    async def try_get_nodes_async(
        self, keys: list[NodeKey], runtime: IORuntime
    ) -> list[TreeNode | None]:
        """Miss-tolerant :meth:`get_nodes_async`: absent nodes yield ``None``.

        The speculative-prefetch path (DESIGN.md §9) looks up *predicted*
        node keys that may not exist; a misprediction must surface as a
        ``None`` slot, never as an exception.  Unavailable replicas count
        as missing too — speculation never fails a read.
        """
        values = await self._dht.try_multi_get_async(
            [key.to_string() for key in keys], runtime
        )
        nodes: list[TreeNode | None] = []
        for key, value in zip(keys, values):
            try:
                nodes.append(self._as_node(key, value))
            except MetadataNotFoundError:
                nodes.append(None)
        return nodes

    def bucket_groups(self, keys: list[NodeKey]) -> list[list[int]]:
        """Key positions grouped by primary DHT bucket (placement stays in
        the provider); the pipelined traversal fetches each group as its own
        task so one slow bucket never gates the others' subtree descent."""
        return self._dht.primary_groups([key.to_string() for key in keys])

    def _as_node(self, key: NodeKey, value: object) -> TreeNode | None:
        """The node a DHT value encodes; ``None`` (an absent key) stays."""
        if isinstance(value, bytes):
            return decode_node(value)
        if value is not None and not isinstance(value, (InnerNode, LeafNode)):
            raise MetadataNotFoundError(key)
        return value

    def has_node(self, key: NodeKey) -> bool:
        return self._dht.contains(key.to_string())

    def delete_node(self, key: NodeKey) -> bool:
        """Remove a node (used when garbage-collecting aborted updates)."""
        return self._dht.delete(key.to_string())

    def node_count(self) -> int:
        """Total number of stored tree nodes across all DHT buckets."""
        return self._dht.stats().keys
