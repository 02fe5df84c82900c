"""A sharded, thread-safe, byte-budgeted LRU cache for immutable page data.

The same total-order-versioning argument that justifies the metadata
:class:`~repro.cache.NodeCache` applies verbatim to page payloads: BlobSeer
never overwrites a stored page — an update always writes *new* pages and
weaves a new tree over them — so the bytes behind a page id are immutable
from the moment they are published, and a cached copy can never be stale.
With metadata and version-manager round trips already at zero for warm
repeated reads (PR 3 / PR 4), provider page fetches are 100 % of such a
read's cost; this cache takes them off the wire too.

Key protocol
------------
Entries are keyed ``(namespace, page_id, offset, length)`` — one entry per
*fetched sub-range*, not per page.  A READ only ever requests the byte
window of a page that intersects its range, and caching exactly what was
fetched keeps the cold path bit-identical (a miss never triggers a larger
"fetch the whole page" request) while any repeated read of the same range
is a pure hit.  Sub-ranges of one page are immutable like the page itself.

All sub-ranges of one page form a *group* (``(namespace, page_id)``): the
shared :class:`~repro.cache.sharded_lru.ShardedLRUCache` core places a
whole group on one shard, so :meth:`PageCache.discard_page` — called by GC
for each page it deletes from the providers — drops every cached sub-range
of that page under a single lock acquisition.

Like the node cache, the process-wide default instance
(:func:`shared_page_cache`) is shared by every cluster that keeps the
default ``page_cache_*`` budgets, namespaced per cluster so two in-process
deployments can never serve each other's pages.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable

from ..config import (
    DEFAULT_PAGE_CACHE_BYTES,
    DEFAULT_PAGE_CACHE_ENTRIES,
    DEFAULT_PAGE_CACHE_SHARDS,
)
from .sharded_lru import ENTRY_OVERHEAD, ShardedLRUCache, key_weight

__all__ = [
    "PageCache",
    "page_weight",
    "reset_shared_page_cache",
    "set_shared_page_cache",
    "shared_page_cache",
]


def page_weight(key: Hashable, payload: object) -> int:
    """Deterministic byte-footprint estimate of one cached page range:
    the payload bytes dominate; key strings and the fixed per-entry
    overhead are added so even empty payloads cost something."""
    return ENTRY_OVERHEAD + key_weight(key) + len(payload)


def _page_group(key: Hashable) -> Hashable:
    """The stored page behind a sub-range key: ``(namespace, page_id)``."""
    return key[:-2] if isinstance(key, tuple) and len(key) > 2 else key


class PageCache(ShardedLRUCache):
    """Process-wide sharded LRU cache for immutable page payload ranges.

    Parameters
    ----------
    max_entries:
        Maximum number of cached page ranges across all shards.
    max_bytes:
        Maximum estimated footprint in bytes across all shards (see
        :func:`page_weight` — payload bytes dominate, so this is the knob
        that bounds client memory).
    shards:
        Number of lock-striped segments.  Placement hashes the page group,
        so all sub-ranges of one page share a shard (see
        :meth:`discard_page`).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_PAGE_CACHE_ENTRIES,
        max_bytes: int = DEFAULT_PAGE_CACHE_BYTES,
        shards: int = DEFAULT_PAGE_CACHE_SHARDS,
    ):
        super().__init__(
            max_entries=max_entries,
            max_bytes=max_bytes,
            shards=shards,
            weight_of=page_weight,
            group_of=_page_group,
        )

    def discard_page(self, namespace: str, page_id: str) -> int:
        """Drop every cached sub-range of one stored page (ONE lock
        acquisition — the group index keeps them together).  Called by GC
        for each page it deletes; returns the number of entries dropped."""
        return self.discard_group((namespace, page_id))


# -- the process-wide default instance ---------------------------------------
_shared_lock = threading.Lock()
_shared_cache: PageCache | None = None


def shared_page_cache() -> PageCache:
    """The process-wide default :class:`PageCache`, created on first use."""
    global _shared_cache
    if _shared_cache is None:
        with _shared_lock:
            if _shared_cache is None:
                _shared_cache = PageCache()
    return _shared_cache


def set_shared_page_cache(cache: PageCache | None) -> PageCache | None:
    """Replace the process-wide default page cache (returns the previous
    instance; passing None restores create-on-first-use)."""
    global _shared_cache
    with _shared_lock:
        previous = _shared_cache
        _shared_cache = cache
    return previous


def reset_shared_page_cache() -> None:
    """Forget the process-wide default page cache (test isolation)."""
    global _shared_cache
    with _shared_lock:
        _shared_cache = None
