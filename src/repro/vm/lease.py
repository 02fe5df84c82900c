"""Client-side version leases: serve GET_RECENT and READ preconditions
without a version-manager round trip.

After the PR 3 node cache, a warm repeated READ fetched zero metadata nodes
from the DHT but still paid one version-manager RPC (publication check +
size).  This module removes that last fixed cost the same way the node
cache removed the DHT traffic, split into two regimes by mutability:

* **Immutable facts.**  A published snapshot's size never changes and a
  blob's :class:`~repro.version.records.BlobRecord` is frozen at creation
  (total-order versioning again), so ``(blob, version) -> size`` and
  ``blob -> record`` are cached forever, LRU-bounded, with no invalidation
  protocol at all — exactly like metadata tree nodes.
* **Recency leases.**  ``GET_RECENT`` is the one mutable answer.  A
  :class:`VersionLease` caches ``(version, size)`` together with the blob's
  publication *epoch* and is kept coherent two ways: the version manager
  pushes a fresh lease to every subscribed cache on publication
  (:meth:`~repro.version.version_manager.VersionManager.subscribe_publications`),
  and a TTL (``BlobSeerConfig.vm_lease_ttl``) bounds staleness for
  deployments where the push notification can be lost.  Epochs make
  fill/notify races safe: a cache only ever replaces a lease with one of a
  strictly newer epoch, so a slow fill can never overwrite a pushed update.
  (Fragmented ARES serves reads from cached configuration state the same
  way — see PAPERS.md.)

The cache is shared per cluster (mirroring the PR 3 node cache: co-located
clients warm one another) and budgeted by ``BlobSeerConfig.vm_lease_entries``.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

from ..aio import IORuntime
from ..version.records import BlobRecord, RecencyLease


@dataclass(frozen=True)
class VersionLease:
    """One blob's leased GET_RECENT answer.

    ``epoch`` is the blob's published watermark when the lease was taken;
    ``acquired_at`` is the cache clock's timestamp, compared against the
    TTL on every hit.
    """

    blob_id: str
    version: int
    size: int
    epoch: int
    acquired_at: float

    def fresh(self, now: float, ttl: float) -> bool:
        """True while the lease is within its TTL.

        A clock that moved backwards (the simulator's virtual clock resets
        between measurement passes) never expires a lease — only forward
        age does.
        """
        return now - self.acquired_at <= ttl


@dataclass(frozen=True)
class LeaseStats:
    """Lifetime counters of one :class:`LeaseCache`."""

    #: GET_RECENT answers served from a live lease (no VM round trip).
    hits: int = 0
    #: Lease lookups that had to pay a version-manager round trip.
    misses: int = 0
    #: Publish notifications applied (each renews or installs a lease).
    renewals: int = 0
    #: Entries dropped to stay within the ``max_entries`` budget.
    evictions: int = 0
    #: Current number of recency leases held.
    leases: int = 0
    #: Current number of immutable facts held (records + published sizes).
    facts: int = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class LeaseCache:
    """Shared, LRU-bounded cache of version leases and immutable VM facts.

    Parameters
    ----------
    service:
        The version manager to fall back to on a miss and to subscribe to
        for publish notifications: ``cluster.version_manager``, or anything
        exposing ``recent_lease``, ``check_read``, ``get_record`` and
        ``subscribe_publications`` (the wall benchmark's timing proxy).
    ttl:
        Maximum age of a recency lease before a hit must revalidate.  The
        push notifications keep leases current in-process; the TTL is the
        bound on staleness when a notification is lost.
    max_entries:
        Budget for the recency-lease map and for the fact map (each).
    clock:
        Time source (``time.monotonic`` by default; the simulator injects
        its virtual clock).

    Every public lookup is a coroutine taking the caller's
    :class:`~repro.aio.IORuntime` and returns ``(value, round_trips)``:
    ``round_trips`` is 0 on a lease/fact hit, which completes without
    suspending, and 1 when the version manager had to be asked — through
    ``runtime.vm_call``, so a simulated client pays the RPC on its clock.
    That is the unit the ``vm_round_trips`` stats are counted in.
    """

    def __init__(
        self,
        service,
        ttl: float = 5.0,
        max_entries: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._service = service
        self._ttl = ttl
        self._max_entries = max(1, int(max_entries))
        self._clock = clock
        self._lock = threading.Lock()
        self._leases: OrderedDict[str, VersionLease] = OrderedDict()
        self._facts: OrderedDict[tuple, object] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._renewals = 0
        self._evictions = 0
        # Subscribed weakly: a dropped cache is collected and unsubscribed.
        on_publish = weakref.WeakMethod(self._on_publish)

        def listener(snapshot: RecencyLease) -> None:
            cache_method = on_publish()
            if cache_method is not None:
                cache_method(snapshot)

        service.subscribe_publications(listener)
        weakref.finalize(self, service.unsubscribe_publications, listener)

    # ----------------------------------------------------------- recency lease
    async def recent(self, blob_id: str, runtime: IORuntime) -> tuple[int, int]:
        """Leased GET_RECENT: ``(version, vm_round_trips)``."""
        lease, trips = await self.recent_lease(blob_id, runtime)
        return lease.version, trips

    async def recent_lease(
        self, blob_id: str, runtime: IORuntime
    ) -> tuple[VersionLease, int]:
        """The blob's current lease, revalidating on miss/expiry."""
        now = self._clock()
        with self._lock:
            lease = self._leases.get(blob_id)
            if lease is not None and lease.fresh(now, self._ttl):
                self._leases.move_to_end(blob_id)
                self._hits += 1
                return lease, 0
            self._misses += 1
        snapshot = await runtime.vm_call(self._service, "recent_lease", blob_id)
        lease = self._install(snapshot)
        return lease, 1

    def _install(self, snapshot: RecencyLease) -> VersionLease:
        """Store a VM answer unless a strictly newer epoch already landed."""
        lease = VersionLease(
            blob_id=snapshot.blob_id,
            version=snapshot.version,
            size=snapshot.size,
            epoch=snapshot.epoch,
            acquired_at=self._clock(),
        )
        with self._lock:
            existing = self._leases.get(snapshot.blob_id)
            if existing is not None and existing.epoch > snapshot.epoch:
                # A publish notification (or a concurrent fill) beat us to
                # it; its answer is newer than ours.
                return existing
            self._leases[snapshot.blob_id] = lease
            self._leases.move_to_end(snapshot.blob_id)
            self._evict_locked(self._leases)
            # A recency answer is also an immutable fact about that version.
            self._store_fact_locked(
                ("size", snapshot.blob_id, snapshot.version), snapshot.size
            )
        return lease

    def _on_publish(self, snapshot: RecencyLease) -> None:
        """Publish notification: renew (or install) the blob's lease."""
        with self._lock:
            existing = self._leases.get(snapshot.blob_id)
            if existing is not None and existing.epoch >= snapshot.epoch:
                return  # stale or duplicate delivery: nothing applied
            self._renewals += 1
            self._leases[snapshot.blob_id] = VersionLease(
                blob_id=snapshot.blob_id,
                version=snapshot.version,
                size=snapshot.size,
                epoch=snapshot.epoch,
                acquired_at=self._clock(),
            )
            self._leases.move_to_end(snapshot.blob_id)
            self._evict_locked(self._leases)
            self._store_fact_locked(
                ("size", snapshot.blob_id, snapshot.version), snapshot.size
            )

    # -------------------------------------------------------- immutable facts
    async def published_size(
        self, blob_id: str, version: int, runtime: IORuntime
    ) -> tuple[int, int]:
        """Size of a published snapshot: ``(size, vm_round_trips)``.

        Raises :class:`~repro.errors.VersionNotPublishedError` (from the
        version manager) when the version is not published; the *negative*
        answer is never cached — the version may be published later.
        """
        key = ("size", blob_id, version)
        hit = self._fact(key)
        if hit is not None:
            return hit, 0
        size = await runtime.vm_call(self._service, "check_read", blob_id, version)
        with self._lock:
            self._store_fact_locked(key, size)
        return size, 1

    async def record(
        self, blob_id: str, runtime: IORuntime
    ) -> tuple[BlobRecord, int]:
        """The blob's immutable record: ``(record, vm_round_trips)``."""
        key = ("record", blob_id)
        hit = self._fact(key)
        if hit is not None:
            return hit, 0
        record = await runtime.vm_call(self._service, "get_record", blob_id)
        with self._lock:
            self._store_fact_locked(key, record)
        return record, 1

    def _fact(self, key: tuple) -> object | None:
        with self._lock:
            value = self._facts.get(key)
            if value is None:
                self._misses += 1
                return None
            self._facts.move_to_end(key)
            self._hits += 1
            return value

    def _store_fact_locked(self, key: tuple, value: object) -> None:
        if key not in self._facts:
            self._facts[key] = value
        self._facts.move_to_end(key)
        self._evict_locked(self._facts)

    def _evict_locked(self, mapping: OrderedDict) -> None:
        while len(mapping) > self._max_entries:
            mapping.popitem(last=False)
            self._evictions += 1

    # ---------------------------------------------------------- introspection
    def clear(self) -> None:
        """Drop every lease and fact (cold-start measurements)."""
        with self._lock:
            self._leases.clear()
            self._facts.clear()

    def stats(self) -> LeaseStats:
        with self._lock:
            return LeaseStats(
                hits=self._hits,
                misses=self._misses,
                renewals=self._renewals,
                evictions=self._evictions,
                leases=len(self._leases),
                facts=len(self._facts),
            )

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def ttl(self) -> float:
        return self._ttl

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"LeaseCache(leases={stats.leases}, facts={stats.facts}, "
            f"hit_rate={stats.hit_rate:.2f}, ttl={self._ttl})"
        )
