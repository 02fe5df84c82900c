"""The shared sharded/striped LRU core behind the client-side caches.

Two caches ride on this machinery: :class:`~repro.cache.NodeCache` (immutable
metadata tree nodes, PR 3) and :class:`~repro.cache.PageCache` (immutable
page payloads, PR 5).  Both need exactly the same skeleton — keys striped
over independently locked segments, per-shard LRU order, entry and byte
budgets split evenly across shards, lifetime hit/miss/eviction counters,
batched lookups and inserts that take each touched shard's lock once — so
the skeleton lives here and the caches are thin instantiations that differ
only in their *weight function* (how many bytes one entry is estimated to
occupy) and, for the page cache, a *group function* (which entries belong to
the same stored page, so GC can discard them together).

Grouping: when ``group_of`` is given, shard placement hashes the group
instead of the full key, so every entry of one group lands in the same
shard and :meth:`ShardedLRUCache.discard_group` drops all of them under ONE
lock acquisition — the page cache keys sub-ranges of a page separately
(``(namespace, page_id, offset, length)``) yet GC must discard *pages*.

Byte accounting uses a deterministic *estimate* of an entry's footprint
(key strings + a fixed per-entry overhead + the payload weight), not
``sys.getsizeof`` traversal — cheap, stable across interpreter versions,
and close enough to steer eviction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass

from ..errors import ConfigurationError

#: Estimated fixed footprint of one cache entry (map slot, key tuple,
#: bookkeeping) in bytes, on top of the key strings and the value itself.
ENTRY_OVERHEAD = 96
#: Smallest byte budget a single shard is allowed to manage — below roughly
#: one entry's worth of bytes a shard would evict everything it inserts.
MIN_SHARD_BYTES = 512


def key_weight(key: Hashable) -> int:
    """Deterministic byte-footprint estimate of one cache key: a string's
    length, or for a flat tuple (the caches' keys, see
    :meth:`~repro.core.cluster.Cluster.node_cache_key`) the sum of its
    strings' lengths plus 8 bytes per other part; 8 for anything else."""
    if isinstance(key, str):
        return len(key)
    if not isinstance(key, tuple):
        return 8
    weight = 8 * len(key)
    for part in key:
        if isinstance(part, str):
            weight += len(part) - 8
    return weight


@dataclass(frozen=True)
class CacheStats:
    """Structured cache counters.

    ``hits``/``misses``/``evictions`` are lifetime counters of the cache the
    stats were read from; ``entries``/``bytes`` are its current occupancy.
    A cache-wide pull (``cache_stats()``, the cluster's metrics sources):
    one operation's hits and misses are counters on its own result struct.
    """

    #: Lookups served from the cache.
    hits: int = 0
    #: Lookups that fell through to the backend.
    misses: int = 0
    #: Entries currently resident (snapshot, cache-wide).
    entries: int = 0
    #: Weighted bytes currently resident (snapshot, cache-wide).
    bytes: int = 0
    #: Entries evicted to enforce the entry/byte budgets (lifetime).
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 when nothing was looked up."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        """Counter-wise sum — aggregating stats over many caches is
        ``sum(stats_list, CacheStats())``."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            entries=self.entries + other.entries,
            bytes=self.bytes + other.bytes,
            evictions=self.evictions + other.evictions,
        )


@dataclass
class CacheTally:
    """Per-operation accumulator threaded through cache-aware fetch paths.

    The threaded client and the simulator both use it to report, per READ or
    WRITE: how many lookups the cache served (``hits``), how many items
    actually travelled over the network (``fetched`` — the misses, or
    everything when caching is off), and how many batched round trips the
    misses cost (``trips`` — an all-hit batch is free).
    """

    hits: int = 0
    fetched: int = 0
    trips: int = 0

    @property
    def nodes_resolved(self) -> int:
        return self.hits + self.fetched

    @property
    def hit_rate(self) -> float:
        total = self.nodes_resolved
        return self.hits / total if total else 0.0


class _Shard:
    """One lock-striped segment of a sharded LRU cache."""

    __slots__ = (
        "lock", "entries", "bytes", "max_entries", "max_bytes",
        "hits", "misses", "evictions", "groups",
    )

    def __init__(self, max_entries: int, max_bytes: int, track_groups: bool):
        self.lock = threading.Lock()
        #: key -> (value, weight, group); insertion/refresh order is LRU order.
        self.entries: OrderedDict[
            Hashable, tuple[object, int, Hashable | None]
        ] = OrderedDict()
        self.bytes = 0
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: group -> set of keys, maintained only when the cache groups keys.
        self.groups: dict[Hashable, set[Hashable]] | None = (
            {} if track_groups else None
        )

    def probe(self, key: Hashable) -> object | None:
        """The value of ``key`` (refreshing its recency) or None, counted
        as a hit or a miss.  The caller holds :attr:`lock`."""
        entry = self.entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def lookup(self, keys: Sequence[Hashable], out: list, indices: Sequence[int]) -> None:
        """Resolve ``keys`` into ``out`` at ``indices`` under one lock."""
        probe = self.probe
        with self.lock:
            for key, index in zip(keys, indices):
                out[index] = probe(key)

    def insert(
        self, items: Iterable[tuple[Hashable, object, int, Hashable | None]]
    ) -> None:
        """Insert ``(key, value, weight, group)`` items under one lock,
        evicting LRU entries past the budgets.  An entry heavier than the
        whole shard budget is not admitted: making room for it would evict
        every resident entry and then the entry itself."""
        with self.lock:
            for key, value, weight, group in items:
                if weight > self.max_bytes:
                    continue
                existing = self.entries.get(key)
                if existing is not None:
                    # Values are immutable: same key means same value, so a
                    # re-insert is just a recency refresh.
                    self.entries.move_to_end(key)
                    continue
                self.entries[key] = (value, weight, group)
                self.bytes += weight
                if self.groups is not None and group is not None:
                    self.groups.setdefault(group, set()).add(key)
                while self.entries and (
                    len(self.entries) > self.max_entries
                    or self.bytes > self.max_bytes
                ):
                    evicted_key, (_value, evicted_weight, evicted_group) = (
                        self.entries.popitem(last=False)
                    )
                    self.bytes -= evicted_weight
                    self.evictions += 1
                    self._forget_group(evicted_key, evicted_group)

    def _forget_group(self, key: Hashable, group: Hashable | None) -> None:
        if self.groups is None or group is None:
            return
        members = self.groups.get(group)
        if members is not None:
            members.discard(key)
            if not members:
                del self.groups[group]

    def discard(self, key: Hashable) -> bool:
        with self.lock:
            entry = self.entries.pop(key, None)
            if entry is None:
                return False
            self.bytes -= entry[1]
            self._forget_group(key, entry[2])
            return True

    def discard_group(self, group: Hashable) -> int:
        """Drop every entry of ``group`` under one lock; return the count."""
        if self.groups is None:
            return 0
        with self.lock:
            members = self.groups.pop(group, None)
            if not members:
                return 0
            for key in members:
                entry = self.entries.pop(key, None)
                if entry is not None:
                    self.bytes -= entry[1]
            return len(members)

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.bytes = 0
            if self.groups is not None:
                self.groups.clear()


class ShardedLRUCache:
    """Sharded, thread-safe, LRU-bounded cache for immutable values.

    Parameters
    ----------
    max_entries:
        Maximum number of cached entries across all shards.
    max_bytes:
        Maximum estimated footprint in bytes across all shards.
    shards:
        Number of lock-striped segments.  Budgets are split evenly across
        shards, so each shard holds at most its slice — the cache as a
        whole never exceeds the global budgets.
    weight_of:
        ``weight_of(key, value) -> int`` — the deterministic byte estimate
        of one entry, charged against ``max_bytes``.
    group_of:
        Optional ``group_of(key) -> Hashable`` — when given, shard placement
        hashes the group (so one group never spans shards) and
        :meth:`discard_group` can drop a whole group under one lock.
    """

    def __init__(
        self,
        max_entries: int,
        max_bytes: int,
        shards: int,
        weight_of: Callable[[Hashable, object], int],
        group_of: Callable[[Hashable], Hashable] | None = None,
    ):
        if max_entries < 1:
            raise ConfigurationError("max_entries must be >= 1")
        if max_bytes < MIN_SHARD_BYTES:
            # A budget that cannot hold even one entry would evict every
            # insert immediately — caching silently off while looking on.
            # Surface the misconfiguration instead.
            raise ConfigurationError(
                f"max_bytes must be >= {MIN_SHARD_BYTES} "
                "(smaller budgets cannot hold a single entry)"
            )
        if shards < 1:
            raise ConfigurationError("shards must be >= 1")
        # Budgets are split evenly, so cap the stripe count at what the
        # budgets can feed: every shard must be able to hold at least one
        # typical entry.
        shards = min(shards, max_entries, max(1, max_bytes // MIN_SHARD_BYTES))
        self._max_entries = max_entries
        self._max_bytes = max_bytes
        self._weight_of = weight_of
        self._group_of = group_of
        self._shards = [
            _Shard(
                max(1, max_entries // shards),
                max(MIN_SHARD_BYTES, max_bytes // shards),
                track_groups=group_of is not None,
            )
            for _ in range(shards)
        ]

    # -- placement -----------------------------------------------------------
    def _slot(self, key: Hashable) -> int:
        place = self._group_of(key) if self._group_of is not None else key
        return hash(place) % len(self._shards)

    # -- single-key operations ----------------------------------------------
    def get(self, key: Hashable) -> object | None:
        """Return the cached value for ``key`` (refreshing recency) or None."""
        shard = self._shards[self._slot(key)]
        with shard.lock:
            return shard.probe(key)

    def put(self, key: Hashable, value: object) -> None:
        """Insert one value, evicting LRU entries past the shard budget."""
        group = self._group_of(key) if self._group_of is not None else None
        self._shards[self._slot(key)].insert(
            [(key, value, self._weight_of(key, value), group)]
        )

    def discard(self, key: Hashable) -> bool:
        """Drop one entry (used by GC after it deletes the backing item)."""
        return self._shards[self._slot(key)].discard(key)

    def discard_group(self, group: Hashable) -> int:
        """Drop every entry of ``group`` (one lock acquisition); return how
        many entries were dropped.  Only meaningful with ``group_of``."""
        if self._group_of is None:
            return 0
        return self._shards[hash(group) % len(self._shards)].discard_group(group)

    # -- batched operations --------------------------------------------------
    def get_many(self, keys: Sequence[Hashable]) -> list[object | None]:
        """Resolve a batch of keys, one lock acquisition per touched shard.

        Returns values aligned with ``keys`` (None for misses) — the
        cache-side half of the batched fetch protocol: the caller sends only
        the None slots over the network.
        """
        if len(keys) == 1:
            # One key touches one shard: probe it directly.
            shard = self._shards[self._slot(keys[0])]
            with shard.lock:
                return [shard.probe(keys[0])]
        out: list[object | None] = [None] * len(keys)
        by_shard: dict[int, tuple[list[Hashable], list[int]]] = {}
        for index, key in enumerate(keys):
            slot = self._slot(key)
            shard_keys, shard_indices = by_shard.setdefault(slot, ([], []))
            shard_keys.append(key)
            shard_indices.append(index)
        for slot, (shard_keys, shard_indices) in by_shard.items():
            self._shards[slot].lookup(shard_keys, out, shard_indices)
        return out

    def put_many(self, items: Sequence[tuple[Hashable, object]]) -> None:
        """Insert a batch, one lock acquisition per touched shard."""
        by_shard: dict[int, list[tuple[Hashable, object, int, Hashable | None]]] = {}
        for key, value in items:
            group = self._group_of(key) if self._group_of is not None else None
            by_shard.setdefault(self._slot(key), []).append(
                (key, value, self._weight_of(key, value), group)
            )
        for slot, shard_items in by_shard.items():
            self._shards[slot].insert(shard_items)

    # -- maintenance / introspection -----------------------------------------
    def clear(self) -> None:
        """Drop every entry (counters are kept; they are lifetime totals)."""
        for shard in self._shards:
            shard.clear()

    def stats(self) -> CacheStats:
        """Aggregate counters and occupancy across all shards."""
        hits = misses = entries = total_bytes = evictions = 0
        for shard in self._shards:
            with shard.lock:
                hits += shard.hits
                misses += shard.misses
                entries += len(shard.entries)
                total_bytes += shard.bytes
                evictions += shard.evictions
        return CacheStats(
            hits=hits,
            misses=misses,
            entries=entries,
            bytes=total_bytes,
            evictions=evictions,
        )

    def __len__(self) -> int:
        return sum(len(shard.entries) for shard in self._shards)

    def bytes_used(self) -> int:
        return sum(shard.bytes for shard in self._shards)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def max_bytes(self) -> int:
        return self._max_bytes

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(entries={len(self)}/{self._max_entries}, "
            f"bytes={self.bytes_used()}/{self._max_bytes}, "
            f"shards={len(self._shards)})"
        )
