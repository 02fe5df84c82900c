"""Client-side caching of immutable data.

Two thin instantiations of one shared sharded-LRU core
(:mod:`repro.cache.sharded_lru`):

* :class:`NodeCache` — immutable metadata tree nodes, consulted by every
  frontier resolution (see :mod:`repro.cache.node_cache`);
* :class:`PageCache` — immutable page payload ranges, consulted before any
  provider fetch (see :mod:`repro.cache.page_cache`).
"""

from .node_cache import (
    CacheStats,
    CacheTally,
    NodeCache,
    complete_frontier,
    next_cache_namespace,
    node_weight,
    reset_shared_node_cache,
    set_shared_node_cache,
    shared_node_cache,
    split_frontier,
)
from .page_cache import (
    PageCache,
    VirtualPagePayload,
    page_weight,
    reset_shared_page_cache,
    set_shared_page_cache,
    shared_page_cache,
)
from .sharded_lru import ShardedLRUCache

__all__ = [
    "CacheStats",
    "CacheTally",
    "NodeCache",
    "PageCache",
    "ShardedLRUCache",
    "VirtualPagePayload",
    "complete_frontier",
    "next_cache_namespace",
    "node_weight",
    "page_weight",
    "reset_shared_node_cache",
    "reset_shared_page_cache",
    "set_shared_node_cache",
    "set_shared_page_cache",
    "shared_node_cache",
    "shared_page_cache",
    "split_frontier",
]
