"""A sharded, thread-safe, LRU-bounded cache for immutable metadata nodes.

The paper's total-order versioning makes every published tree node
*immutable*: a ``(blob, version, offset, size)`` key is written exactly once
and never changes afterwards (Section 4.1).  That is what makes aggressive
client-side caching safe — a cached node can never be stale — and what this
module turns into an architectural layer instead of the ad-hoc per-client
``dict`` it used to be:

* **Sharded.**  Keys are striped over ``shards`` independent segments, each
  with its own lock, ordered map and counters, so concurrent readers on
  different shards never contend — the same striping idea the DHT uses for
  its buckets.  The batched :meth:`NodeCache.get_many` /
  :meth:`NodeCache.put_many` take each touched shard's lock once per batch,
  mirroring the DHT multi-op discipline.
* **LRU-bounded.**  Every shard enforces its slice of the global entry and
  byte budgets; inserting past a budget evicts the shard's least recently
  used entries.  Budgets are split evenly, so the cache as a whole never
  exceeds ``max_entries`` entries or ``max_bytes`` estimated bytes.
* **Shared.**  :func:`shared_node_cache` returns the process-wide default
  instance that every :class:`~repro.core.cluster.Cluster` (with default
  cache configuration) hands to its clients, so all ``BlobStore`` instances
  of a process warm one another.  Keys are namespaced per cluster (see
  :attr:`repro.core.cluster.Cluster.cache_namespace`) so two in-process
  deployments can never serve each other's nodes.

The sharding/budget/stats skeleton is the shared
:class:`~repro.cache.sharded_lru.ShardedLRUCache` core (the page cache of
:mod:`repro.cache.page_cache` is the other instantiation); this module adds
only the node weight function and the process-wide default instance.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Hashable

from ..config import (
    DEFAULT_METADATA_CACHE_BYTES,
    DEFAULT_METADATA_CACHE_ENTRIES,
    DEFAULT_METADATA_CACHE_SHARDS,
)
from ..metadata.node import LeafNode
from .sharded_lru import (
    ENTRY_OVERHEAD,
    MIN_SHARD_BYTES,
    CacheStats,
    CacheTally,
    ShardedLRUCache,
    key_weight,
)

__all__ = [
    "ENTRY_OVERHEAD",
    "MIN_SHARD_BYTES",
    "CacheStats",
    "CacheTally",
    "NodeCache",
    "next_cache_namespace",
    "node_weight",
    "reset_shared_node_cache",
    "set_shared_node_cache",
    "shared_node_cache",
]

#: Estimated footprint of an inner node (two optional child versions).
INNER_NODE_WEIGHT = 48
#: Estimated fixed footprint of a leaf node, excluding its id strings.
LEAF_NODE_WEIGHT = 72


def node_weight(key: Hashable, node: object) -> int:
    """Deterministic byte-footprint estimate of one cache entry (the key is
    the flat tuple of :meth:`repro.core.cluster.Cluster.node_cache_key`:
    its strings plus 8 bytes per integer)."""
    weight = ENTRY_OVERHEAD + key_weight(key)
    if isinstance(node, LeafNode):
        weight += LEAF_NODE_WEIGHT + len(node.page_id) + len(node.provider_id)
    else:
        weight += INNER_NODE_WEIGHT
    return weight


class NodeCache(ShardedLRUCache):
    """Process-wide sharded LRU cache for immutable metadata tree nodes.

    Parameters
    ----------
    max_entries:
        Maximum number of cached nodes across all shards.
    max_bytes:
        Maximum estimated footprint in bytes across all shards (see
        :func:`node_weight`).
    shards:
        Number of lock-striped segments.  Budgets are split evenly across
        shards, so each shard holds at most ``max_entries // shards``
        entries — the cache as a whole never exceeds the global budgets.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_METADATA_CACHE_ENTRIES,
        max_bytes: int = DEFAULT_METADATA_CACHE_BYTES,
        shards: int = DEFAULT_METADATA_CACHE_SHARDS,
    ):
        super().__init__(
            max_entries=max_entries,
            max_bytes=max_bytes,
            shards=shards,
            weight_of=node_weight,
        )


# -- the process-wide default instance ---------------------------------------
_shared_lock = threading.Lock()
_shared_cache: NodeCache | None = None

#: Monotonic source of cache namespaces (one per Cluster) so deployments
#: sharing the process-wide caches can never collide on blob or page ids.
_namespace_counter = itertools.count(1)


def next_cache_namespace(prefix: str = "ns") -> str:
    """Return a process-unique namespace token for cache keys."""
    return f"{prefix}-{next(_namespace_counter):06d}"


def shared_node_cache() -> NodeCache:
    """The process-wide default :class:`NodeCache`, created on first use."""
    global _shared_cache
    if _shared_cache is None:
        with _shared_lock:
            if _shared_cache is None:
                _shared_cache = NodeCache()
    return _shared_cache


def set_shared_node_cache(cache: NodeCache | None) -> NodeCache | None:
    """Replace the process-wide default cache.

    Returns the previous instance — None when none had been created yet, so
    ``set_shared_node_cache(set_shared_node_cache(mine))`` always restores
    the prior state (passing None restores create-on-first-use).
    """
    global _shared_cache
    with _shared_lock:
        previous = _shared_cache
        _shared_cache = cache
    return previous


def reset_shared_node_cache() -> None:
    """Forget the process-wide default cache (tests use this for isolation)."""
    global _shared_cache
    with _shared_lock:
        _shared_cache = None
