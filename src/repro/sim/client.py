"""Simulated BlobSeer clients.

A :class:`SimClient` executes the client-side algorithms of the paper as
discrete-event processes: every page transfer, metadata round trip and
version-manager call is charged to the simulated network, while the state
changes (placement, version assignment, metadata weaving) run through the
same real components used by the threaded client.  APPEND (Algorithm 2) is
the shipped engine itself, run on a :class:`~repro.sim.runtime.SimRuntime`;
READ (Algorithms 1 and 3) is still modelled by hand here.
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from collections.abc import Generator

from ..cache import CacheTally, VirtualPagePayload, complete_frontier, split_frontier
from ..core.async_store import AsyncBlobStore, WriteResult
from ..errors import InvalidRangeError
from ..metadata.geometry import pages_for_size, span_for_pages
from ..metadata.node import NodeKey
from ..metadata.read_plan import plan_walker, read_plan
from ..util.ranges import covering_page_range
from ..version.records import resolve_owner
from .deployment import SimDeployment
from .engine import Event
from .runtime import SimRuntime


@dataclass(frozen=True)
class AppendOutcome:
    """Result of one simulated APPEND: the engine's own result plus the
    virtual time the append took."""

    result: WriteResult
    elapsed: float

    @property
    def bandwidth(self) -> float:
        """Achieved bandwidth in bytes/second."""
        return self.result.bytes_written / self.elapsed if self.elapsed > 0 else 0.0


@dataclass(frozen=True)
class ReadOutcome:
    """Result of one simulated READ."""

    version: int
    bytes_read: int
    elapsed: float
    pages_fetched: int
    #: Tree nodes that actually travelled from the DHT; cache hits are
    #: counted in ``metadata_cache_hits`` and skip the NIC pipes, so a warm
    #: repeated read reports ~0 here.
    metadata_nodes_fetched: int
    #: Batched metadata round trips of the traversal: one per frontier with
    #: at least one cache miss (zero for a fully cached traversal).
    metadata_round_trips: int = 0
    #: Batched data round trips: one multi-page fetch per provider touched.
    data_round_trips: int = 0
    #: Tree-node lookups served by the client machine's metadata cache.
    metadata_cache_hits: int = 0
    #: Page ranges served by the client machine's page cache — those pages
    #: skip the provider NIC pipes entirely, so a fully cached read reports
    #: ``data_round_trips == 0``.
    page_cache_hits: int = 0
    #: Tree nodes whose DHT fetch was issued SPECULATIVELY — predicted from
    #: the requested range's geometry one level before the authoritative
    #: parent resolved (DESIGN.md §9) — and then consumed by the traversal.
    #: These nodes still count in ``metadata_nodes_fetched`` and their
    #: frontiers in ``metadata_round_trips``; speculation changes when the
    #: fetch *starts*, never what is fetched.  Always 0 with
    #: ``speculative_prefetch`` off.
    speculative_hits: int = 0
    #: Speculative fetches the traversal never consumed (the guessed child
    #: span or version was wrong, or the node was cached after all).  Pure
    #: over-fetch: the wasted nodes burn NIC time but are NOT counted in
    #: ``metadata_nodes_fetched`` and never enter the metadata cache.
    speculative_wasted: int = 0
    #: Page ranges served by a co-located PEER machine's page cache
    #: (cooperative peer caching, DESIGN.md §9) — one cheap peer hop
    #: instead of a provider round.  Disjoint from ``page_cache_hits``
    #: (own machine) and not counted in ``data_round_trips``.
    peer_cache_hits: int = 0
    #: Simulated seconds the read spent in its metadata descent — the
    #: cold-path latency that speculative prefetch attacks; ~0 on a warm
    #: (fully cached) traversal.
    meta_latency: float = 0.0
    #: Version-manager round trips: 1 when the publication check travelled
    #: to the VM node, 0 when the machine's version lease served it — the
    #: warm repeated-read regime skips the VM entirely.  Note the sim has
    #: always modelled the blob *record* as client-stub state (never a
    #: charged RPC), so this counts only the publication check; the
    #: threaded ``ReadStats.vm_round_trips`` also counts the record lookup
    #: and reports up to 2 cold.
    vm_round_trips: int = 0

    @property
    def bandwidth(self) -> float:
        """Achieved bandwidth in bytes/second."""
        return self.bytes_read / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits over all node lookups of this read's traversal."""
        total = self.metadata_cache_hits + self.metadata_nodes_fetched
        return self.metadata_cache_hits / total if total else 0.0

    @property
    def page_cache_hit_rate(self) -> float:
        """Page-cache hits over all page ranges this read needed."""
        return (
            self.page_cache_hits / self.pages_fetched
            if self.pages_fetched
            else 0.0
        )

    @property
    def speculative_hit_rate(self) -> float:
        """Consumed speculative fetches over all speculative fetches."""
        predicted = self.speculative_hits + self.speculative_wasted
        return self.speculative_hits / predicted if predicted else 0.0

    @property
    def peer_cache_hit_rate(self) -> float:
        """Peer-served page ranges over all page ranges this read needed."""
        return (
            self.peer_cache_hits / self.pages_fetched
            if self.pages_fetched
            else 0.0
        )


class SimClient:
    """One simulated client process slot."""

    def __init__(self, deployment: SimDeployment, index: int = 0):
        self._dep = deployment
        self.index = index
        self.node = deployment.client_node(index)
        # The machine-wide metadata cache: co-located clients share it, and
        # it survives reset_timing (it is client state, not NIC state).
        self._node_cache = deployment.node_cache_for(self.node)
        # The machine-wide page cache (None when disabled): same sharing
        # and lifetime as the node cache; cached ranges skip the NIC pipes.
        self._page_cache = deployment.page_cache_for(self.node)
        # The machine-wide version-lease cache (None when leasing is
        # disabled): same sharing and lifetime as the node cache.
        self._version_lease = deployment.version_lease_for(self.node)
        # The shipped engine over this machine's caches, on virtual time.
        self._store = AsyncBlobStore(
            deployment.cluster,
            node_cache=self._node_cache,
            cache_pages=self._page_cache is not None,
            page_cache=self._page_cache,
            lease_versions=self._version_lease is not None,
            version_leases=self._version_lease,
            runtime=SimRuntime(deployment, self.node),
        )

    # ------------------------------------------------------------------ APPEND
    @types.coroutine
    def append_process(
        self, blob_id: str, nbytes: int
    ) -> Generator[Event, object, AppendOutcome]:
        """Simulate one page-aligned APPEND of ``nbytes`` (Algorithm 2): the
        engine's ``append_ex`` on this client's virtual-time store."""
        payload = self._dep.append_payload(blob_id, nbytes)
        start = self._dep.simulator.now
        result = yield from self._store.append_ex(blob_id, payload)
        return AppendOutcome(result, self._dep.simulator.now - start)

    # -------------------------------------------------------------------- READ
    def read_process(
        self, blob_id: str, version: int, offset: int, size: int
    ) -> Generator[Event, object, ReadOutcome]:
        """Simulate one READ (Algorithms 1 and 3).

        The version manager is consulted for publication and size, the
        segment tree is traversed node by node through the metadata DHT, then
        the pages are fetched from their providers in parallel.
        """
        dep = self._dep
        sim = dep.simulator
        net = dep.network
        cfg = dep.sim_config
        vm = dep.version_manager
        record = vm.get_record(blob_id)
        page_size = record.page_size
        start = sim.now

        # Publication check: one combined check_read RPC — skipped entirely
        # when this machine's version lease already holds the published
        # size as an immutable fact (the warm repeated-read regime pays
        # ZERO version-manager round trips).
        if self._version_lease is not None:
            snapshot_size, vm_trips = self._version_lease.published_size(
                blob_id, version
            )
        else:
            snapshot_size, vm_trips = vm.check_read(blob_id, version), 1
        if vm_trips:
            yield from net.small_rpc(
                self.node, dep.vm_node, cfg.version_manager_service_time
            )
        vm_end = sim.now
        if offset + size > snapshot_size:
            raise InvalidRangeError(
                f"read range ({offset}, {size}) exceeds snapshot size {snapshot_size}"
            )

        page_offset, page_count = covering_page_range(offset, size, page_size)
        span = span_for_pages(pages_for_size(snapshot_size, page_size))
        meta_start = sim.now
        plan_result, tally, spec_hits, spec_wasted = (
            yield from self._timed_read_descent(
                record, version, span, page_offset, page_count
            )
        )
        meta_latency = sim.now - meta_start

        # Consult the machine's page cache BEFORE building provider
        # batches: a cached range is served locally in zero simulated time
        # (pages are immutable, so the copy can never be stale) and never
        # enters a batch.  Own-cache misses then probe co-located PEER
        # machines' page caches (one cheap hop, DESIGN.md §9) before the
        # remainder travels with ONE batched multi-page request per chosen
        # replica provider, all providers in parallel — the data-path
        # counterpart of the batched metadata frontiers above — and is
        # write-through-cached on the way back, so the repeated-read
        # regime skips the providers entirely.
        data_start = sim.now
        requests = [
            (
                descriptor,
                dep.cluster.page_cache_key(
                    descriptor.page_id, 0, min(descriptor.length, page_size)
                ),
            )
            for descriptor in plan_result.descriptors
        ]
        if self._page_cache is not None:
            cached = self._page_cache.get_many([key for _desc, key in requests])
        else:
            cached = [None] * len(requests)
        page_cache_hits = sum(1 for value in cached if value is not None)
        hit_bytes = sum(
            len(value) for value in cached if value is not None
        )
        if hit_bytes:
            # Serving cached ranges is not free: the bytes still cross the
            # machine's memory bus.  Fully warm reads are therefore bounded
            # by memory_bandwidth instead of the NIC — orders of magnitude
            # faster, not infinitely fast.
            yield sim.timeout(hit_bytes / cfg.memory_bandwidth)
        peer_cache_hits = 0
        by_peer: dict = {}  # serving peer SimNode -> [lengths]
        local_lengths: list[int] = []  # replica on this machine: no NIC
        by_provider: dict[str, list[int]] = {}
        route = dep.config.feature_enabled("replica_routing")
        probe_peers = dep.has_peer_caches(self.node)
        for (descriptor, key), value in zip(requests, cached):
            if value is not None:
                continue
            length = min(descriptor.length, page_size)
            if probe_peers:
                peer = dep.peer_page_source(key, self.node)
                if peer is not None:
                    by_peer.setdefault(peer, []).append(length)
                    peer_cache_hits += 1
                    continue
            replicas = descriptor.provider_ids
            if route and len(replicas) > 1:
                # Cache-aware replica routing (DESIGN.md §9): a replica on
                # this very machine is served over the memory bus instead
                # of the NIC; otherwise readers deterministically spread
                # across the replica set instead of hammering replica 0.
                nodes = [dep.node_for_provider(pid) for pid in replicas]
                if self.node in nodes:
                    local_lengths.append(length)
                    continue
                chosen = replicas[self.index % len(replicas)]
            else:
                chosen = descriptor.provider_id
            by_provider.setdefault(chosen, []).append(length)
        fetches = [
            sim.process(
                net.multi_fetch(
                    self.node,
                    dep.node_for_provider(provider_id),
                    sum(lengths),
                    count=len(lengths),
                    item_service_time=cfg.page_service_time,
                )
            )
            for provider_id, lengths in by_provider.items()
        ]
        fetches.extend(
            sim.process(
                net.peer_fetch(self.node, peer, sum(lengths), len(lengths))
            )
            for peer, lengths in by_peer.items()
        )
        if local_lengths:
            fetches.append(
                sim.process(
                    net.local_fetch(
                        sum(local_lengths),
                        len(local_lengths),
                        item_service_time=cfg.page_service_time,
                    )
                )
            )
        yield sim.all_of([process.event for process in fetches])
        if self._page_cache is not None:
            self._page_cache.put_many(
                [
                    (key, VirtualPagePayload(key[-1]))
                    for (_desc, key), value in zip(requests, cached)
                    if value is None
                ]
            )

        # Generator processes interleave outside any contextvars context,
        # so the legs are recorded retroactively from the virtual-clock
        # timestamps captured above (see SimDeployment.tracer).
        tracer = dep.tracer
        if tracer is not None:
            root = tracer.record(
                "sim.read",
                start,
                sim.now,
                blob_id=blob_id,
                version=version,
                offset=offset,
                size=size,
                client=self.index,
            )
            if vm_trips:
                tracer.record(
                    "sim.read.vm", start, vm_end, parent=root, trips=vm_trips
                )
            tracer.record(
                "sim.read.meta",
                meta_start,
                meta_start + meta_latency,
                parent=root,
                nodes=tally.fetched,
                trips=tally.trips,
                cache_hits=tally.hits,
            )
            tracer.record(
                "sim.read.data",
                data_start,
                sim.now,
                parent=root,
                pages=len(plan_result.descriptors),
                providers=len(by_provider),
                page_cache_hits=page_cache_hits,
                peer_cache_hits=peer_cache_hits,
            )

        return ReadOutcome(
            version=version,
            bytes_read=size,
            elapsed=sim.now - start,
            pages_fetched=len(plan_result.descriptors),
            metadata_nodes_fetched=tally.fetched,
            metadata_round_trips=tally.trips,
            data_round_trips=len(by_provider),
            metadata_cache_hits=tally.hits,
            page_cache_hits=page_cache_hits,
            vm_round_trips=vm_trips,
            speculative_hits=spec_hits,
            speculative_wasted=spec_wasted,
            peer_cache_hits=peer_cache_hits,
            meta_latency=meta_latency,
        )

    # --------------------------------------------------------------- internals
    def _meta_server_for_key(self, key: NodeKey):
        """The machine a READ fetches ``key`` from, with cache-aware
        replica routing (DESIGN.md §9).

        With ``replica_routing`` on and a replicated metadata DHT, a bucket
        replica hosted on THIS machine wins (the node is served over the
        memory bus); otherwise clients deterministically spread across the
        replica set by their index instead of all hammering the primary.
        Unreplicated deployments (and routing off) keep the primary —
        bit-identical to the pre-routing model.
        """
        dep = self._dep
        if not (
            dep.config.feature_enabled("replica_routing")
            and dep.config.metadata_replication > 1
        ):
            return dep.metadata_node_for_key(key)
        buckets = dep.cluster.dht.buckets_for(key.to_string())
        nodes = [dep.node_for_bucket(bucket) for bucket in buckets]
        for node in nodes:
            if node is self.node:
                return node
        return nodes[self.index % len(nodes)]

    def _spawn_meta_fetches(self, keys):
        """Spawn one timed batched node fetch per chosen serving machine.

        Returns ``[(process, keys_of_batch), ...]``; when cache-aware
        replica routing is active (replicated DHT, ``replica_routing`` on),
        a batch served by THIS machine's co-located metadata provider
        travels over the memory bus
        (:meth:`~repro.sim.network.Network.local_fetch`) instead of the
        NIC.  Unreplicated deployments always pay the NIC — bit-identical
        to the pre-routing model even when a bucket's primary happens to
        live on the client's machine.
        """
        dep = self._dep
        sim = dep.simulator
        net = dep.network
        cfg = dep.sim_config
        routed = (
            dep.config.feature_enabled("replica_routing")
            and dep.config.metadata_replication > 1
        )
        by_node: dict = {}
        for key in keys:
            by_node.setdefault(self._meta_server_for_key(key), []).append(key)
        spawned = []
        for server, group in by_node.items():
            count = len(group)
            if routed and server is self.node:
                exchange = net.local_fetch(
                    cfg.metadata_node_size * count,
                    count,
                    item_service_time=cfg.metadata_service_time,
                )
            else:
                exchange = net.fetch(
                    self.node,
                    server,
                    cfg.metadata_node_size * count,
                    service_time=cfg.metadata_service_time * count,
                )
            spawned.append((sim.process(exchange), group))
        return spawned

    def _timed_read_descent(self, record, version, span, page_offset, page_count):
        """The READ traversal of Algorithm 3 with the cold-path treatment
        of DESIGN.md §9: cache-aware replica routing for every node fetch
        and (when ``speculative_prefetch`` is on) speculative frontier
        prefetch.

        Speculation predicts the wanted children of every missed frontier
        ref from the requested range's geometry
        (:meth:`~repro.metadata.read_plan.FrontierWalker.predicted_children`)
        and spawns their fetches BEFORE waiting on the parents' frontier.
        When the next frontier arrives, misses whose fetch is already in
        flight just join the running process — typically finished, because
        it departed one round trip earlier — so the descent covers two
        tree levels per round-trip latency instead of one.  Wrong guesses
        keep burning their NIC time in the background but are never waited
        on, never cached and never counted in the traversal tally: the
        authoritative plan decides what is fetched, speculation only moves
        the start time.  Returns ``(plan_result, tally, hits, wasted)``.
        """
        dep = self._dep
        sim = dep.simulator
        meta = dep.metadata_provider
        cache = self._node_cache
        cluster = dep.cluster
        tally = CacheTally()
        predictor = (
            plan_walker(version, span, [(page_offset, page_count)])
            if dep.config.feature_enabled("speculative_prefetch") and page_count > 0
            else None
        )
        inflight: dict = {}  # NodeKey -> running speculative fetch process
        seen: set = set()  # every key ever predicted (dedupe)
        spec_hits = 0
        spec_predicted = 0
        plan = read_plan(version, span, page_offset, page_count)
        try:
            frontier = next(plan)
            while True:
                refs = list(frontier.refs)
                keys = [
                    NodeKey(
                        resolve_owner(record, ref.version),
                        ref.version,
                        ref.offset,
                        ref.size,
                    )
                    for ref in refs
                ]
                cache_keys = [cluster.node_cache_key(key.blob_id, key) for key in keys]
                nodes, miss_indices = split_frontier(cache, cache_keys, tally)
                if miss_indices:
                    miss_keys = [keys[index] for index in miss_indices]
                    if predictor is not None:
                        # Predict the misses' children NOW, before this
                        # frontier's own fetch departs — that head start is
                        # the entire win.
                        predictions = []
                        for index in miss_indices:
                            for child in predictor.predicted_children(
                                refs[index]
                            ):
                                child_key = NodeKey(
                                    resolve_owner(record, child.version),
                                    child.version,
                                    child.offset,
                                    child.size,
                                )
                                if child_key in seen:
                                    continue
                                seen.add(child_key)
                                predictions.append(child_key)
                        spec_predicted += len(predictions)
                        for process, group in self._spawn_meta_fetches(
                            predictions
                        ):
                            for child_key in group:
                                inflight[child_key] = process
                    waits = []
                    normal_keys = []
                    for key in miss_keys:
                        process = inflight.pop(key, None)
                        if process is None:
                            normal_keys.append(key)
                        else:
                            spec_hits += 1
                            if process not in waits:
                                waits.append(process)
                    waits.extend(
                        process
                        for process, _group in self._spawn_meta_fetches(
                            normal_keys
                        )
                    )
                    yield sim.all_of([process.event for process in waits])
                    fetched = meta.get_nodes(miss_keys)
                    complete_frontier(
                        cache, cache_keys, miss_indices, fetched, nodes, tally
                    )
                frontier = plan.send(nodes)
        except StopIteration as stop:
            # Wasted speculative fetches (wrong version guess, or the node
            # was cached after all) keep running in the background — their
            # NIC cost is honest over-fetch — but nobody waits on them.
            return stop.value, tally, spec_hits, spec_predicted - spec_hits
