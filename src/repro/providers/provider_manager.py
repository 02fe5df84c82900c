"""The provider manager: tracks data providers and allocates pages to them."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from collections.abc import Sequence

from ..aio import IORuntime, dispatch_jobs
from ..errors import NoProvidersError, ShortReadError
from ..fault.routing import rank_replicas
from ..obs.trace import span
from .allocation import AllocationStrategy, RoundRobinAllocation
from .data_provider import DataProvider


@dataclass
class FaultTally:
    """Mutable per-call recorder of the read path's fault-tolerance events.

    ``failovers`` counts re-route events (a request's batch failed and the
    request moved to its next replica); ``degraded`` counts requests that
    were ultimately served by a non-primary replica.  A fully healthy read
    leaves both at zero.
    """

    failovers: int = 0
    degraded: int = 0


class ProviderManager:
    """Keeps information about available storage space (Section 3.1).

    Joining data providers register here; the manager answers client requests
    for "a list of n page providers capable of storing the pages" (WRITE,
    Algorithm 2, line 2).  The manager also supports deregistration and
    skips providers known to be dead, which is the hook used by the
    fault-injection tests.

    Fault-tolerance wiring (both optional, see :mod:`repro.fault` and
    DESIGN.md): ``retry_policy`` re-issues failed per-provider batch calls
    for transient errors, and ``health`` records every batch outcome so
    allocation can steer around providers that keep failing.
    """

    def __init__(
        self,
        strategy: AllocationStrategy | None = None,
        retry_policy=None,
        health=None,
        routing: bool = False,
    ):
        self._strategy = strategy if strategy is not None else RoundRobinAllocation()
        self._providers: dict[str, DataProvider] = {}
        self._allocatable: set[str] = set()
        self._lock = threading.Lock()
        self._retry = retry_policy
        self._health = health
        # Replica routing (DESIGN.md §9): with ``routing=True`` replicated
        # fetches walk each page's replica set in ranked order — health
        # suspects last — instead of recorded order, and failover requeues
        # re-rank the untried tail against the CURRENT suspect set.  With
        # no suspects the ranking is a stable no-op.
        self._routing = routing

    @property
    def health(self):
        """The :class:`repro.fault.ProviderHealth` registry, if wired."""
        return self._health

    def _note_success(self, provider_id: str) -> None:
        if self._health is not None:
            self._health.record_success(provider_id)

    def _note_failure(self, provider_id: str) -> None:
        if self._health is not None:
            self._health.record_failure(provider_id)

    # -- membership ----------------------------------------------------------
    def register(self, provider: DataProvider) -> None:
        """Register a data provider (idempotent)."""
        with self._lock:
            self._providers[provider.provider_id] = provider
            self._allocatable.add(provider.provider_id)

    def deregister(self, provider_id: str) -> None:
        """Stop allocating new pages to a provider.

        The provider stays in the directory so pages already stored on it
        remain readable.
        """
        with self._lock:
            self._allocatable.discard(provider_id)

    def provider(self, provider_id: str) -> DataProvider:
        with self._lock:
            return self._providers[provider_id]

    def provider_ids(self) -> list[str]:
        with self._lock:
            return list(self._providers)

    def allocatable_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._allocatable)

    def providers(self) -> list[DataProvider]:
        with self._lock:
            return list(self._providers.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._providers)

    # -- allocation ------------------------------------------------------------
    def _live_allocatable(self) -> tuple[list[str], dict[str, DataProvider]]:
        with self._lock:
            live = [
                pid
                for pid, p in self._providers.items()
                if p.alive and pid in self._allocatable
            ]
            providers = dict(self._providers)
        if not live:
            raise NoProvidersError("no live data providers registered")
        return live, providers

    def allocate(self, count: int) -> list[str]:
        """Return *count* provider ids that should store the next pages.

        Only live, allocatable providers are considered; health suspects
        are steered around unless they are all that is left.  Raises
        :class:`NoProvidersError` when none are available.
        """
        if count <= 0:
            return []
        live, providers = self._live_allocatable()
        candidates = (
            self._health.prefer_healthy(live) if self._health is not None else live
        )

        def load_of(provider_id: str) -> int:
            return providers[provider_id].bytes_used()

        return self._strategy.select(candidates, count, load_of)

    def allocate_replicas(self, count: int, replicas: int = 1) -> list[tuple[str, ...]]:
        """Return *count* replica sets, each of up to *replicas* DISTINCT
        live providers (primary first).

        The primary of each set comes from the configured allocation
        strategy exactly as :meth:`allocate` would pick it; the extra
        replicas walk the candidate ring from the primary's position, which
        spreads replica load evenly without a second strategy.  When fewer
        than *replicas* live providers exist the sets degrade to what is
        available (a degraded WRITE beats an unavailable one; the
        :class:`repro.fault.RepairService` tops replication back up once
        providers rejoin).  Health suspects are steered around unless
        excluding them would leave the ring short.
        """
        if count <= 0:
            return []
        live, providers = self._live_allocatable()
        k = min(replicas, len(live))
        candidates = (
            self._health.prefer_healthy(live) if self._health is not None else live
        )

        def load_of(provider_id: str) -> int:
            return providers[provider_id].bytes_used()

        primaries = self._strategy.select(candidates, count, load_of)
        if k <= 1:
            return [(primary,) for primary in primaries]
        ring = candidates if len(candidates) >= k else live
        sets: list[tuple[str, ...]] = []
        for primary in primaries:
            start = ring.index(primary)
            chosen = [primary]
            step = 1
            while len(chosen) < k:
                candidate = ring[(start + step) % len(ring)]
                step += 1
                if candidate not in chosen:
                    chosen.append(candidate)
            sets.append(tuple(chosen))
        return sets

    def allocate_providers(self, count: int) -> list[DataProvider]:
        """Like :meth:`allocate` but resolves ids to provider objects."""
        ids = self.allocate(count)
        with self._lock:
            return [self._providers[pid] for pid in ids]

    # -- batched data I/O ------------------------------------------------------
    async def _dispatch_batches_async(
        self, leg: str, groups: list[tuple[str, list]], call, runtime: IORuntime
    ) -> list:
        """Run ``call(provider, batch)`` once per ``(provider_id, batch)``
        group of protocol leg ``leg`` on *runtime*; outcomes align with
        ``groups``.

        A job's exception is captured and returned in its slot instead of
        aborting the dispatch, so every live provider's batch completes
        before the caller decides how to surface failures.

        When a :class:`repro.fault.RetryPolicy` is wired, each job retries
        its provider call on transient errors before giving up; every job
        outcome (including each failed retry attempt) is recorded with the
        health registry.
        """
        def make_attempt(provider_id: str, batch: list):
            provider = self.provider(provider_id)
            return lambda: call(provider, batch)

        return await dispatch_jobs(
            runtime,
            leg,
            groups,
            make_attempt,
            retry=self._retry,
            capture=(Exception,),
            note_success=self._note_success,
            note_failure=self._note_failure,
        )

    def _ranked(self, replicas: tuple[str, ...]) -> tuple[str, ...]:
        """Replica tuple of one page in routing order (suspects last).

        A no-op — returning the recorded order unchanged — when routing is
        off, the page has a single home, no health registry is wired, or
        nothing is suspect, so the default deployment's wave order (and the
        perf-gate's pinned counters) cannot drift.
        """
        if not self._routing or len(replicas) <= 1 or self._health is None:
            return replicas
        suspects = self._health.suspects()
        if not suspects:
            return replicas
        return rank_replicas(replicas, suspects=suspects)

    def _rerank_requeued(self, entry: list) -> None:
        """Re-rank a failed-over entry's UNTRIED replica tail.

        The wave that just failed may have pushed the next-in-line replica
        over the suspicion threshold; blindly walking the original order
        would then hop straight onto a provider known to be failing.  Only
        the untried tail is reordered — replicas already charged as tried
        keep their positions so failover accounting stays stable.
        """
        if not self._routing or self._health is None:
            return
        untried = entry[3][entry[4] :]
        if len(untried) <= 1:
            return
        suspects = self._health.suspects()
        if not suspects:
            return
        entry[3] = entry[3][: entry[4]] + rank_replicas(
            untried, suspects=suspects
        )

    async def multi_fetch_into_async(
        self,
        requests: Sequence[tuple[str, str, int, int]],
        runtime: IORuntime,
        cache=None,
        cache_key=None,
        tally=None,
        failover: Sequence[tuple[str, ...]] | None = None,
        fault_tally: FaultTally | None = None,
    ) -> tuple[list[bytes], int]:
        """Batched fetch of ``(provider_id, page_id, offset, length)``
        requests: returns ``(payloads, batches)``, the payloads aligned with
        ``requests`` plus the number of per-provider batches issued.

        Payloads are immutable objects handed back as they are: a
        provider's :meth:`DataProvider.multi_fetch` result or a cached
        entry — never a copy.  The caller assembles its result from them
        once.  (The name predates this shape, when callers
        passed destination views to fill; it is kept because the wall-clock
        benchmark proxies this method by name and times its span as
        ``providers.fetch_us_per_page``.)

        Requests are grouped into ONE batch per provider — the data-path
        analogue of a metadata frontier — and the per-provider jobs execute
        on *runtime*; grouping stays in the manager (the single owner of
        the provider directory).

        With ``cache`` (a :class:`~repro.cache.PageCache`) and ``cache_key``
        (``cache_key(page_id, offset, length) -> key``, usually
        :meth:`repro.core.cluster.Cluster.page_cache_key`), cached requests
        are served from the cache and never enter a provider batch —
        published pages are immutable, so a cached range can never be
        stale — and misses are write-through-cached after the fetch (the
        fetched objects themselves).  An all-hit call costs ZERO provider
        round trips; the hits' bytes are handed to ``runtime.local_copy``
        once, before any miss is dispatched.  The optional ``tally`` (a
        :class:`~repro.cache.CacheTally`) collects the call's hit/fetch/trip
        counts.

        Every provider batch is reconciled against its requested lengths —
        a short read surfaces as :class:`~repro.errors.ShortReadError`
        rather than a short result, even for provider implementations that
        do not self-check.

        ``failover`` (aligned with ``requests``) carries each page's full
        replica tuple, primary first.  When a provider's batch fails — it
        is dead, a page is missing, a read came back short — every request
        of that batch *fails over* to its next untried replica in the
        following wave, exactly like the replicated DHT's
        :meth:`repro.dht.DHT.multi_get_async`; the error surfaces only when
        a request exhausts its replicas.  The optional ``fault_tally``
        (a :class:`FaultTally`) reports how many requests re-routed and how
        many were ultimately served degraded (by a non-primary replica).
        Without ``failover`` — or with single-replica tuples — one failed
        batch fails the call (after the other providers' batches
        completed), exactly the pre-replication behaviour.
        """
        if not requests:
            return [], 0
        payloads: list = [None] * len(requests)
        # Indices of the requests no cache served.
        misses: list[int] = list(range(len(requests)))
        keys: list | None = None
        if cache is not None and cache_key is not None:
            keys = [
                cache_key(page_id, offset, length)
                for _provider_id, page_id, offset, length in requests
            ]
            payloads = cache.get_many(keys)
            misses = [index for index, value in enumerate(payloads) if value is None]
            if tally is not None:
                tally.hits += len(requests) - len(misses)
            hit_bytes = sum(len(value) for value in payloads if value is not None)
            if hit_bytes:
                # Hits still cross the client's memory bus: free on a real
                # runtime, ``nbytes / memory_bandwidth`` on the virtual clock.
                await runtime.local_copy(hit_bytes)
            if not misses:
                return payloads, 0
        # One entry per outstanding miss: [page_id, offset, length, replicas,
        # next-replica index, recorded primary, request index].  Requests
        # whose batch fails re-enter the next wave pointed at their next
        # replica.  The replica order is ranked (suspects last) when routing
        # is enabled; the recorded primary is kept so ``degraded`` still
        # means "served by a non-primary replica" whatever order the
        # replicas were tried in.
        outstanding: list[list] = []
        for index in misses:
            provider_id, page_id, offset, length = requests[index]
            replicas: tuple[str, ...] = (provider_id,)
            if failover is not None and failover[index]:
                replicas = tuple(failover[index])
            outstanding.append(
                [
                    page_id, offset, length, self._ranked(replicas), 0,
                    replicas[0], index,
                ]
            )
        total_trips = 0
        wave = 0
        first_error: Exception | None = None
        while outstanding:
            by_provider: dict[str, list[list]] = {}
            for entry in outstanding:
                by_provider.setdefault(entry[3][entry[4]], []).append(entry)
            groups = list(by_provider.items())
            with span(
                "data.wave",
                wave=wave,
                providers=len(groups),
                requests=len(outstanding),
            ) as wave_span:
                outcomes = await self._dispatch_batches_async(
                    "page_fetch",
                    groups,
                    lambda provider, batch: provider.multi_fetch(
                        [(entry[0], entry[1], entry[2]) for entry in batch]
                    ),
                    runtime,
                )
            wave += 1
            total_trips += len(groups)
            requeued: list[list] = []
            for (provider_id, batch), outcome in zip(groups, outcomes):
                error: Exception | None = None
                if isinstance(outcome, Exception):
                    error = outcome
                elif len(outcome) != len(batch) or any(
                    len(payload) != entry[2] for payload, entry in zip(outcome, batch)
                ):
                    error = ShortReadError(
                        f"batched fetch from provider {provider_id!r}",
                        expected=sum(entry[2] for entry in batch),
                        actual=sum(len(payload) for payload in outcome),
                    )
                if error is None:
                    for entry, payload in zip(batch, outcome):
                        payloads[entry[6]] = payload
                    if fault_tally is not None:
                        fault_tally.degraded += sum(
                            1 for entry in batch if provider_id != entry[5]
                        )
                    continue
                for entry in batch:
                    entry[4] += 1
                    if entry[4] < len(entry[3]):
                        if fault_tally is not None:
                            fault_tally.failovers += 1
                        self._rerank_requeued(entry)
                        requeued.append(entry)
                    elif first_error is None:
                        first_error = error
            if wave_span is not None:
                wave_span.set(requeued=len(requeued))
            if first_error is not None:
                raise first_error
            outstanding = requeued
        if keys is not None:
            # Write-through AFTER every batch landed, so a failed call
            # caches nothing.  The fetched objects are cached as they are.
            cache.put_many([(keys[index], payloads[index]) for index in misses])
        if tally is not None:
            tally.fetched += len(misses)
            tally.trips += total_trips
        return payloads, total_trips

    async def multi_store_replicated_async(
        self,
        items: Sequence[tuple[tuple[str, ...], str, bytes]],
        runtime: IORuntime,
    ) -> tuple[list[tuple[str, ...]], int]:
        """Store each ``(provider_ids, page_id, payload)`` item on EVERY
        listed replica, one :meth:`DataProvider.multi_store` batch per
        touched provider, executed on *runtime*.

        Returns ``(landed, round_trips)``: ``landed`` aligns with ``items``
        and holds the replicas that actually stored each page, preserving
        the requested order (primary first).  Mirroring the DHT's
        ``multi_put``, the call succeeds as long as every page landed on at
        least one replica — a dead replica merely degrades that page's
        redundancy (the leaf records only the replicas that hold it, and
        the :class:`repro.fault.RepairService` tops it back up later).  A
        page that landed nowhere raises, after all batches completed —
        leaving the caller to garbage-collect the pages that did land.
        With single-replica tuples any dead provider therefore fails the
        whole call, the single-home behaviour.
        """
        if not items:
            return [], 0
        by_provider: dict[str, list[tuple[int, str, bytes]]] = {}
        for index, (provider_ids, page_id, payload) in enumerate(items):
            for provider_id in provider_ids:
                by_provider.setdefault(provider_id, []).append(
                    (index, page_id, payload)
                )
        groups = list(by_provider.items())
        outcomes = await self._dispatch_batches_async(
            "page_store",
            groups,
            lambda provider, batch: provider.multi_store(
                [(page_id, payload) for _index, page_id, payload in batch]
            ),
            runtime,
        )
        landed_on: list[set[str]] = [set() for _ in items]
        item_error: list[Exception | None] = [None] * len(items)
        for (provider_id, batch), outcome in zip(groups, outcomes):
            if isinstance(outcome, Exception):
                for index, _page_id, _payload in batch:
                    if item_error[index] is None:
                        item_error[index] = outcome
                continue
            for index, _page_id, _payload in batch:
                landed_on[index].add(provider_id)
        landed: list[tuple[str, ...]] = []
        for (provider_ids, page_id, _payload), stored, error in zip(
            items, landed_on, item_error
        ):
            if not stored:
                if error is not None:
                    raise error
                raise NoProvidersError(
                    f"page {page_id!r} has an empty replica set"
                )
            landed.append(
                tuple(pid for pid in provider_ids if pid in stored)
            )
        return landed, len(groups)

    # -- introspection -----------------------------------------------------------
    def total_bytes_used(self) -> int:
        return sum(p.bytes_used() for p in self.providers())

    def total_pages(self) -> int:
        return sum(p.page_count() for p in self.providers())

    def load_distribution(self) -> dict[str, int]:
        """Bytes stored per provider — used to validate even distribution."""
        return {p.provider_id: p.bytes_used() for p in self.providers()}

    def imbalance(self) -> float:
        """Return max/mean byte load across providers (1.0 = perfectly even).

        Returns 0.0 when nothing is stored yet.
        """
        loads = list(self.load_distribution().values())
        if not loads or sum(loads) == 0:
            return 0.0
        mean = sum(loads) / len(loads)
        return max(loads) / mean
