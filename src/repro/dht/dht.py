"""Client-facing DHT combining placement, replication and bucket stores.

The DHT stores metadata tree nodes for the metadata provider (Section 4.1 of
the paper: "Tree nodes are stored on the metadata provider in a distributed
way, using a simple DHT").  Values are written to ``replication`` buckets and
read from the first replica that holds them — a live replica missing a key
falls through to the next one, because a write only guarantees ONE replica
accepted it.  This is the minimal fault-tolerance hook the paper defers to
future work.

Besides the per-key ``get``/``put``, the DHT exposes true multi-ops
(:meth:`DHT.multi_get_async` / :meth:`DHT.multi_put_async`): keys are
grouped by bucket and each :class:`~repro.dht.storage.BucketStore` lock is
taken once per batch instead of once per key, which is what lets the client
resolve a whole metadata-tree frontier in one round trip.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..aio import SYNC_RUNTIME, IORuntime, dispatch_jobs, run_sync
from ..errors import MetadataNotFoundError, ProviderUnavailableError
from ..fault.routing import rank_replicas
from ..obs.trace import span
from .hashing import HashPlacement, make_placement
from .storage import BucketStore


@dataclass
class DHTStats:
    """Aggregate access statistics across all buckets.

    ``batch_gets`` / ``batch_puts`` count bucket-lock acquisitions made by
    the batched multi-key operations (see :class:`~repro.dht.storage.BucketStats`).
    """

    #: Individual keys written, summed over all buckets.
    puts: int = 0
    #: Individual keys looked up, summed over all buckets.
    gets: int = 0
    #: Lookups that found their key.
    hits: int = 0
    #: Lookups that missed.
    misses: int = 0
    #: Keys currently stored across the DHT (replicas counted per bucket).
    keys: int = 0
    #: Number of bucket stores in the ring.
    buckets: int = 0
    #: Bucket-lock acquisitions made by batched multi-key gets.
    batch_gets: int = 0
    #: Bucket-lock acquisitions made by batched multi-key puts.
    batch_puts: int = 0
    #: Largest per-bucket key count — the load-balance figure of merit.
    max_keys_per_bucket: int = 0


class DHT:
    """A replicated key/value store spread over :class:`BucketStore` nodes."""

    def __init__(
        self,
        num_buckets: int,
        strategy: str = "static",
        replication: int = 1,
        bucket_id_prefix: str = "meta",
        retry_policy=None,
        routing: bool = False,
    ):
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        bucket_ids = [f"{bucket_id_prefix}-{index:04d}" for index in range(num_buckets)]
        self._buckets: dict[str, BucketStore] = {
            bucket_id: BucketStore(bucket_id) for bucket_id in bucket_ids
        }
        self._placement: HashPlacement = make_placement(strategy, bucket_ids)
        self._replication = min(replication, num_buckets)
        # Optional :class:`repro.fault.RetryPolicy` wrapped around every
        # bucket call (transient errors only); None / a no-op policy keeps
        # the pre-fault-tolerance behaviour and timing.
        self._retry = retry_policy
        # Replica routing (DESIGN.md §9): when enabled, lookups rank each
        # key's replica buckets with buckets recently observed unavailable
        # last, instead of always starting at replica 0.  Suspicion is
        # learned from the lookups themselves (an unavailable outcome marks
        # the bucket, a served batch clears it), so no external health
        # registry is needed.  With no suspects the ranking is a stable
        # no-op and the wave order is bit-identical to routing off.
        self._routing = routing
        self._suspect_buckets: set[str] = set()

    def _bucket_call(self, fn):
        if self._retry is not None and not self._retry.is_noop:
            return self._retry.run(fn)
        return fn()

    # -- topology ----------------------------------------------------------
    @property
    def replication(self) -> int:
        return self._replication

    def bucket_ids(self) -> list[str]:
        return list(self._buckets)

    def bucket(self, bucket_id: str) -> BucketStore:
        return self._buckets[bucket_id]

    def buckets_for(self, key: str) -> list[str]:
        """Return the replica bucket ids responsible for *key*."""
        return self._placement.buckets_for(key, self._replication)

    def kill_bucket(self, bucket_id: str) -> None:
        self._buckets[bucket_id].kill()

    def revive_bucket(self, bucket_id: str) -> None:
        self._buckets[bucket_id].revive()

    # -- key/value API -----------------------------------------------------
    def put(self, key: str, value: object) -> None:
        """Store *value* on every live replica bucket of *key*.

        The write succeeds when at least one replica accepted it; it raises
        :class:`ProviderUnavailableError` only if every replica is down.
        """
        stored = 0
        last_error: ProviderUnavailableError | None = None
        for bucket_id in self.buckets_for(key):
            bucket = self._buckets[bucket_id]
            try:
                self._bucket_call(lambda: bucket.put(key, value))
                stored += 1
            except ProviderUnavailableError as error:
                last_error = error
        if stored == 0 and last_error is not None:
            raise last_error

    def get(self, key: str) -> object:
        """Return the value stored under *key* from the first replica that
        holds it.

        A replica that is live but *misses* the key is not authoritative:
        a write succeeds as soon as one replica stores the value, so a
        replica that was down during the put legitimately lacks the key
        after rejoining.  The lookup therefore falls through remaining
        replicas on a missing key, and raises
        :class:`MetadataNotFoundError` only when every replica was probed
        live and none held it.  If ANY replica was unavailable, the result
        is :class:`ProviderUnavailableError` — the value may well exist on
        the dead replica, so "not found" would wrongly report durable loss.
        """
        unavailable: ProviderUnavailableError | None = None
        for bucket_id in self._ranked_buckets_for(key):
            bucket = self._buckets[bucket_id]
            try:
                value = self._bucket_call(lambda: bucket.get(key))
            except ProviderUnavailableError as error:
                unavailable = error
                self._note_bucket_unavailable(bucket_id)
                continue
            except MetadataNotFoundError:
                self._note_bucket_served(bucket_id)
                continue
            self._note_bucket_served(bucket_id)
            return value
        if unavailable is not None:
            raise unavailable
        raise MetadataNotFoundError(key)

    def _ranked_buckets_for(self, key: str) -> tuple[str, ...]:
        """Replica buckets of *key* in routing order (suspects last)."""
        replicas = self.buckets_for(key)
        if not self._routing or not self._suspect_buckets:
            return tuple(replicas)
        return rank_replicas(replicas, suspects=frozenset(self._suspect_buckets))

    def _note_bucket_unavailable(self, bucket_id: str) -> None:
        if self._routing:
            self._suspect_buckets.add(bucket_id)

    def _note_bucket_served(self, bucket_id: str) -> None:
        if self._routing:
            self._suspect_buckets.discard(bucket_id)

    async def multi_put_async(
        self, items: list[tuple[str, object]], runtime: IORuntime
    ) -> None:
        """Store a batch of key/value pairs, grouping keys by replica bucket.

        Each live bucket receives all of its keys in one
        :meth:`~repro.dht.storage.BucketStore.multi_put` call — one lock
        acquisition per bucket per batch instead of one per key.  Like
        :meth:`put`, every key must reach at least one live replica; the
        batch raises :class:`ProviderUnavailableError` when some key could
        not be stored anywhere.

        The per-bucket jobs (one per touched bucket) execute on *runtime* —
        inline under :class:`~repro.aio.SyncRuntime`, interleaved on the
        event loop under :class:`~repro.aio.AsyncRuntime`.  Grouping stays
        in the DHT either way, so callers never re-derive placement.
        """
        if not items:
            return
        by_bucket: dict[str, list[int]] = {}
        for index, (key, _value) in enumerate(items):
            for bucket_id in self.buckets_for(key):
                by_bucket.setdefault(bucket_id, []).append(index)

        def make_attempt(bucket_id: str, indices: list[int]):
            bucket = self._buckets[bucket_id]
            return lambda: bucket.multi_put([items[index] for index in indices])

        groups = list(by_bucket.items())
        outcomes = await dispatch_jobs(
            runtime,
            "meta_put",
            groups,
            make_attempt,
            retry=self._retry,
            capture=(ProviderUnavailableError,),
        )
        replicas_stored = [0] * len(items)
        last_error: ProviderUnavailableError | None = None
        for (_bucket_id, indices), outcome in zip(groups, outcomes):
            if isinstance(outcome, ProviderUnavailableError):
                last_error = outcome
                continue
            for index in indices:
                replicas_stored[index] += 1
        if last_error is not None and any(
            stored == 0 for stored in replicas_stored
        ):
            raise last_error

    def multi_get(self, keys: list[str]) -> list[object]:
        """Synchronous :meth:`multi_get_async` (inline, no event loop)."""
        return run_sync(self.multi_get_async(keys, SYNC_RUNTIME))

    async def multi_get_async(
        self, keys: list[str], runtime: IORuntime, missing_ok: bool = False
    ) -> list[object | None]:
        """Fetch a batch of keys; returns values aligned with ``keys``.

        Keys are grouped by bucket and resolved replica wave by replica
        wave: every key is first looked up on its primary replica (one
        :meth:`~repro.dht.storage.BucketStore.multi_get` per bucket — one
        lock acquisition per bucket per batch), and only keys whose replica
        was dead or missing move on to the next replica.  Like :meth:`get`,
        a key raises :class:`ProviderUnavailableError` when ANY of its
        replicas was dead and no live replica served it (the dead replica
        may hold the value), and :class:`MetadataNotFoundError` only when
        every replica was probed live and lacked it — or, with
        ``missing_ok``, yields ``None`` for it (a node GC collected).

        The per-bucket lookup jobs of one replica wave execute on *runtime*
        (see :meth:`multi_put_async`).
        """
        values, unavailable = await self._resolve_replica_waves(keys, runtime)
        for key in keys:
            if key not in values:
                if key in unavailable:
                    raise unavailable[key]
                if not missing_ok:
                    raise MetadataNotFoundError(key)
        return [values.get(key) for key in keys]

    async def try_multi_get_async(
        self, keys: list[str], runtime: IORuntime
    ) -> list[object | None]:
        """Miss-tolerant :meth:`multi_get_async`: absent keys yield ``None``.

        Used by speculative prefetch (DESIGN.md §9), where most looked-up
        keys may legitimately not exist: a missing key — including one
        whose replicas were all unavailable — produces a ``None`` slot
        instead of an exception, so a misprediction costs nothing but the
        wasted lookup.  Never raises for per-key outcomes.
        """
        values, _unavailable = await self._resolve_replica_waves(keys, runtime)
        return [values.get(key) for key in keys]

    async def _resolve_replica_waves(
        self, keys: list[str], runtime: IORuntime
    ) -> tuple[dict[str, object], dict[str, ProviderUnavailableError]]:
        """Resolve *keys* replica wave by replica wave.

        Returns ``(values, unavailable)``: the served values and, for keys
        no live replica served, the sticky unavailability observed on the
        way (see :meth:`multi_get_async` for why a live miss does not erase
        it).
        With replica routing enabled each key walks its replicas in ranked
        order (suspect buckets last) instead of placement order.
        """
        values: dict[str, object] = {}
        unavailable: dict[str, ProviderUnavailableError] = {}
        pending = list(dict.fromkeys(keys))
        ranked = {key: self._ranked_buckets_for(key) for key in pending}
        for attempt in range(self._replication):
            if not pending:
                break
            by_bucket: dict[str, list[str]] = {}
            for key in pending:
                replicas = ranked[key]
                if attempt < len(replicas):
                    by_bucket.setdefault(replicas[attempt], []).append(key)

            def make_attempt(bucket_id: str, bucket_keys: list[str]):
                bucket = self._buckets[bucket_id]
                return lambda: bucket.multi_get(bucket_keys)

            groups = list(by_bucket.items())
            with span("dht.wave", attempt=attempt, buckets=len(groups)):
                outcomes = await dispatch_jobs(
                    runtime,
                    "meta_get",
                    groups,
                    make_attempt,
                    retry=self._retry,
                    capture=(ProviderUnavailableError,),
                )
            retry: list[str] = []
            for (bucket_id, bucket_keys), outcome in zip(groups, outcomes):
                if isinstance(outcome, ProviderUnavailableError):
                    self._note_bucket_unavailable(bucket_id)
                    for key in bucket_keys:
                        unavailable[key] = outcome
                    retry.extend(bucket_keys)
                    continue
                self._note_bucket_served(bucket_id)
                found, missing = outcome
                values.update(found)
                for key in found:
                    unavailable.pop(key, None)
                # A live replica missing the key is NOT authoritative (the
                # key may live only on a replica that was down during the
                # put), so an earlier replica's recorded unavailability must
                # survive the miss: if no replica ends up serving the key,
                # the caller gets ProviderUnavailableError, not a wrong
                # "not found".
                retry.extend(missing)
            pending = retry
        return values, unavailable

    def primary_groups(self, keys: list[str]) -> list[list[int]]:
        """Group key positions by primary replica bucket, preserving order.

        The pipelined metadata traversal uses this to fan one frontier out
        as one independent fetch task per bucket, so a slow bucket no
        longer gates the expansion of every other bucket's children.
        """
        by_bucket: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            by_bucket.setdefault(self.buckets_for(key)[0], []).append(index)
        return list(by_bucket.values())

    def contains(self, key: str) -> bool:
        for bucket_id in self.buckets_for(key):
            try:
                if self._buckets[bucket_id].contains(key):
                    return True
            except ProviderUnavailableError:
                continue
        return False

    def delete(self, key: str) -> bool:
        deleted = False
        for bucket_id in self.buckets_for(key):
            try:
                deleted = self._buckets[bucket_id].delete(key) or deleted
            except ProviderUnavailableError:
                continue
        return deleted

    # -- introspection -----------------------------------------------------
    def stats(self) -> DHTStats:
        """Aggregate statistics across buckets (used by benchmarks/tests)."""
        total = DHTStats(buckets=len(self._buckets))
        for store in self._buckets.values():
            snap = store.stats
            total.puts += snap.puts
            total.gets += snap.gets
            total.hits += snap.hits
            total.misses += snap.misses
            total.keys += snap.keys
            total.batch_gets += snap.batch_gets
            total.batch_puts += snap.batch_puts
            total.max_keys_per_bucket = max(total.max_keys_per_bucket, snap.keys)
        return total

    def load_distribution(self) -> dict[str, int]:
        """Return the number of keys stored per bucket."""
        return {bucket_id: len(store) for bucket_id, store in self._buckets.items()}
