"""Per-node bucket store backing the metadata DHT.

A :class:`BucketStore` is the state held by one metadata provider process in
the paper: a key/value map guarded by a lock.  It tracks access statistics
(used by the benchmarks to show how load spreads over metadata providers) and
supports failure injection (``kill`` / ``revive``) for the fault-tolerance
tests.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..errors import MetadataNotFoundError, ProviderUnavailableError


@dataclass
class BucketStats:
    """Access counters of a single bucket store.

    ``batch_gets`` / ``batch_puts`` count *lock acquisitions* made by the
    batched multi-key operations: one per :meth:`BucketStore.multi_get` /
    :meth:`BucketStore.multi_put` call, however many keys the batch holds.
    ``gets`` / ``puts`` keep counting individual keys, so the per-key
    counters are unchanged by batching.
    """

    #: Individual keys written into this bucket.
    puts: int = 0
    #: Individual keys looked up in this bucket.
    gets: int = 0
    #: Lookups that found their key.
    hits: int = 0
    #: Lookups that missed.
    misses: int = 0
    #: Keys currently stored in this bucket.
    keys: int = 0
    #: Lock acquisitions made by batched multi-key gets.
    batch_gets: int = 0
    #: Lock acquisitions made by batched multi-key puts.
    batch_puts: int = 0

    def snapshot(self) -> "BucketStats":
        return BucketStats(
            self.puts,
            self.gets,
            self.hits,
            self.misses,
            self.keys,
            self.batch_gets,
            self.batch_puts,
        )


class BucketStore:
    """Thread-safe key/value store held by one metadata provider node."""

    def __init__(self, bucket_id: str):
        self.bucket_id = bucket_id
        self._items: dict[str, object] = {}
        self._lock = threading.Lock()
        self._alive = True
        self._stats = BucketStats()

    # -- failure injection -------------------------------------------------
    def kill(self) -> None:
        """Simulate a crash: further accesses raise ProviderUnavailableError."""
        with self._lock:
            self._alive = False

    def revive(self) -> None:
        """Bring a killed bucket back (its contents survive, as a restart)."""
        with self._lock:
            self._alive = True

    @property
    def alive(self) -> bool:
        return self._alive

    def _check_alive(self) -> None:
        if not self._alive:
            raise ProviderUnavailableError(self.bucket_id)

    # -- key/value API -----------------------------------------------------
    def put(self, key: str, value: object, overwrite: bool = True) -> None:
        """Store *value* under *key*.

        Metadata tree nodes are immutable once written, so callers normally
        leave ``overwrite`` True only because re-publishing the identical
        node is harmless (idempotent re-puts).
        """
        with self._lock:
            self._check_alive()
            if not overwrite and key in self._items:
                return
            self._items[key] = value
            self._stats.puts += 1
            self._stats.keys = len(self._items)

    def get(self, key: str) -> object:
        """Return the value stored under *key*.

        Raises :class:`MetadataNotFoundError` when the key is absent.
        """
        with self._lock:
            self._check_alive()
            self._stats.gets += 1
            if key not in self._items:
                self._stats.misses += 1
                raise MetadataNotFoundError(key)
            self._stats.hits += 1
            return self._items[key]

    def multi_put(self, items: list[tuple[str, object]]) -> None:
        """Store a batch of key/value pairs under one lock acquisition.

        The batch is all-or-nothing with respect to liveness: a killed
        bucket rejects the whole batch with
        :class:`ProviderUnavailableError` before storing anything.
        """
        with self._lock:
            self._check_alive()
            for key, value in items:
                self._items[key] = value
                self._stats.puts += 1
            self._stats.batch_puts += 1
            self._stats.keys = len(self._items)

    def multi_get(
        self, keys: list[str]
    ) -> tuple[dict[str, object], list[str]]:
        """Look up a batch of keys under one lock acquisition.

        Returns ``(found, missing)``: the values of the keys present in this
        bucket, and the keys that are not — absence is *reported*, not
        raised, so a replicated caller can move only the missing keys on to the
        next replica.  A killed bucket raises
        :class:`ProviderUnavailableError` for the whole batch.
        """
        with self._lock:
            self._check_alive()
            found: dict[str, object] = {}
            missing: list[str] = []
            for key in keys:
                self._stats.gets += 1
                if key in self._items:
                    self._stats.hits += 1
                    found[key] = self._items[key]
                else:
                    self._stats.misses += 1
                    missing.append(key)
            self._stats.batch_gets += 1
            return found, missing

    def contains(self, key: str) -> bool:
        with self._lock:
            self._check_alive()
            return key in self._items

    def delete(self, key: str) -> bool:
        """Remove *key*; return True when it existed."""
        with self._lock:
            self._check_alive()
            existed = self._items.pop(key, None) is not None
            self._stats.keys = len(self._items)
            return existed

    def keys(self) -> list[str]:
        with self._lock:
            self._check_alive()
            return list(self._items)

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def stats(self) -> BucketStats:
        with self._lock:
            return self._stats.snapshot()
