"""Simulated deployment: real BlobSeer components plus simulated nodes.

A :class:`SimDeployment` owns

* a real :class:`~repro.core.cluster.Cluster` whose data providers use
  :class:`~repro.providers.page_store.NullPageStore` (placement, versioning
  and metadata are exact; payload bytes are virtual), and
* a :class:`~repro.sim.engine.Simulator` with one :class:`SimNode` per
  physical machine of the modelled testbed, following the paper's layout:
  one dedicated node for the version manager, one for the provider manager,
  and ``num_provider_nodes`` nodes each co-hosting a data provider and a
  metadata provider (Section 5).

Clients are placed on their own nodes by default; the read-concurrency
experiment can co-locate them with provider nodes like the paper does
("readers are deployed on nodes that already run a data and metadata
provider").
"""

from __future__ import annotations

from collections.abc import Generator

from ..cache import CacheStats, NodeCache, PageCache
from ..config import BlobSeerConfig, SimConfig
from ..core.blob_store import BlobStore
from ..core.cluster import Cluster
from ..errors import BlobSeerError, InvalidRangeError
from ..providers.page_store import NullPageStore, _zero_view
from ..vm import LeaseCache
from .engine import Event, Simulator
from .network import Network, SimNode


class SimVersionOffice:
    """Group-commit queue at the simulated version-manager node.

    Requests that arrive while a batch is being served pile up and are
    drained together: the VM endpoint's ``version_manager_service_time`` is
    charged ONCE per batch (plus a tiny per-request serialization share),
    and the whole batch goes through the version manager's
    ``multi_register`` / ``multi_complete``, which count it in
    :class:`~repro.version.version_manager.VMStats`.  This is the only
    place requests are batched: an in-process VM round costs microseconds,
    so in-process callers call the version manager directly.

    ``submit`` is the awaited path (ticket requests need their answer);
    ``post`` is the fire-and-forget path (completion notices — pipelined
    publication: the writer streams the notice and moves on).
    """

    def __init__(self, deployment: SimDeployment, execute):
        self._dep = deployment
        self._execute = execute
        self._pending: list[tuple[object, Event | None]] = []
        self._busy = False
        #: One-way notices that failed with a benign protocol error (e.g.
        #: the reaper aborted the version before the notice arrived) — a
        #: real VM logs and moves on, so the office counts and moves on.
        self.dropped = 0

    def submit(self, request: object) -> Event:
        """Enqueue ``request``; the returned event fires with its
        per-request result once its batch is served (or fails with it, when
        the result is an exception)."""
        done = self._dep.simulator.event()
        self._enqueue(request, done)
        return done

    def post(self, request: object) -> None:
        """Enqueue ``request`` without waiting (one-way notification)."""
        self._enqueue(request, None)

    def post_delayed(self, request: object, delay: float) -> None:
        """Enqueue ``request`` after ``delay`` (the one-way network transit
        of a fire-and-forget notice), without the sender waiting."""

        def arrive() -> Generator[Event, object, None]:
            yield self._dep.simulator.timeout(delay)
            self._enqueue(request, None)

        self._dep.simulator.process(arrive())

    def _enqueue(self, request: object, done: Event | None) -> None:
        self._pending.append((request, done))
        if not self._busy:
            self._busy = True
            self._dep.simulator.process(self._drain())

    def _drain(self) -> Generator[Event, object, None]:
        dep = self._dep
        cfg = dep.sim_config
        per_request = 64 / cfg.nic_bandwidth
        try:
            while self._pending:
                batch = self._pending
                self._pending = []
                # The serialized VM cost is paid once per BATCH: this is the
                # whole point of group commit — N piled-up requests cost one
                # service round, not N.
                yield dep.vm_node.tx.use(
                    cfg.version_manager_service_time + per_request * len(batch)
                )
                results = self._execute([request for request, _done in batch])
                for (request, done), result in zip(batch, results):
                    if done is not None:
                        if isinstance(result, BaseException):
                            done.fail(result)
                        else:
                            done.succeed(result)
                    elif isinstance(result, BlobSeerError):
                        # A fire-and-forget notice lost a benign race (the
                        # reaper aborted its version first, a duplicate
                        # notice, ...): drop it, keep the office alive.
                        self.dropped += 1
                    elif isinstance(result, BaseException):
                        raise result
        finally:
            # Even if a result was a genuine bug (raised above), the office
            # must stay drainable for the rest of the run.
            self._busy = False


class SimDeployment:
    """Wires the real storage components onto a simulated testbed."""

    def __init__(
        self,
        num_provider_nodes: int = 173,
        page_size: int = 64 * 1024,
        sim_config: SimConfig | None = None,
        co_deploy_metadata: bool = True,
        num_metadata_providers: int | None = None,
        allocation_strategy: str = "round_robin",
        co_locate_clients: bool = False,
        page_replication: int = 1,
        metadata_replication: int = 1,
        speculative_prefetch: bool = False,
        replica_routing: bool = True,
    ):
        self.sim_config = sim_config if sim_config is not None else SimConfig()
        self.co_deploy_metadata = co_deploy_metadata
        self.co_locate_clients = co_locate_clients
        if num_metadata_providers is None:
            num_metadata_providers = (
                num_provider_nodes if co_deploy_metadata else 1
            )
        self.config = BlobSeerConfig(
            page_size=page_size,
            num_data_providers=num_provider_nodes,
            num_metadata_providers=num_metadata_providers,
            allocation_strategy=allocation_strategy,
            page_replication=page_replication,
            metadata_replication=metadata_replication,
            speculative_prefetch=speculative_prefetch,
            replica_routing=replica_routing,
        )
        self.cluster = Cluster(
            self.config, page_store_factory=lambda _pid: NullPageStore()
        )
        self.simulator: Simulator
        self.network: Network
        self.vm_node: SimNode
        self.pmgr_node: SimNode
        self._provider_nodes: list[SimNode] = []
        self._metadata_nodes: list[SimNode] = []
        self._client_nodes: dict[int, SimNode] = {}
        #: One shared metadata node cache per *machine*, keyed by node name:
        #: clients co-located on the same node share it (the sim analogue of
        #: the process-wide cache), clients on different machines do not.
        #: Caches survive :meth:`reset_timing` — they are client state, not
        #: NIC state — which is what gives repeated runs a warm regime;
        #: :meth:`clear_node_caches` restores a cold start.
        self._node_caches: dict[str, NodeCache] = {}
        #: One page payload cache per *machine* (same keying): cached page
        #: ranges are served locally during a simulated READ and skip the
        #: provider NIC pipes entirely, so warm repeated reads report zero
        #: data round trips.  Payloads are the null page stores' zero views,
        #: weighted by length.  None per machine when the config disables
        #: page caching.
        self._page_caches: dict[str, PageCache] = {}
        #: One version-lease cache per *machine* (same keying): leased
        #: GET_RECENT answers and immutable VM facts let warm repeated
        #: reads skip the version-manager RPC entirely.  None per machine
        #: when the config disables leasing.
        self._version_leases: dict[str, LeaseCache] = {}
        # Untimed appends bypass every client cache, like a bulk loader
        # that is not one of the measured machines.
        self._untimed_store = BlobStore(
            self.cluster,
            cache_metadata=False,
            cache_pages=False,
            lease_versions=False,
        )
        self.reset_timing()

    # -- timing / topology -----------------------------------------------------
    def reset_timing(self) -> None:
        """Recreate the simulator and every node with idle NICs.

        The storage state (pages, metadata, versions) is kept, so one blob can
        be populated once and then measured under several client loads.
        """
        self.simulator = Simulator()
        self.network = Network(self.simulator, self.sim_config)
        self.vm_node = SimNode(self.simulator, "version-manager")
        self.pmgr_node = SimNode(self.simulator, "provider-manager")
        self._provider_nodes = [
            SimNode(self.simulator, f"provider-node-{index:04d}")
            for index in range(self.config.num_data_providers)
        ]
        if self.co_deploy_metadata:
            self._metadata_nodes = list(self._provider_nodes)
        else:
            self._metadata_nodes = [
                SimNode(self.simulator, f"metadata-node-{index:04d}")
                for index in range(self.config.num_metadata_providers)
            ]
        self._client_nodes = {}
        # The VM-side group-commit offices are bound to the simulator, so
        # they are rebuilt with it; their batches go to the version
        # manager's multi-ops, so VMStats accumulate across timing resets.
        vm = self.version_manager
        self.ticket_office = SimVersionOffice(self, vm.multi_register)
        self.publish_office = SimVersionOffice(self, vm.multi_complete)

    def client_node(self, index: int) -> SimNode:
        """Node hosting client ``index`` (created on demand)."""
        node = self._client_nodes.get(index)
        if node is None:
            if self.co_locate_clients and self._provider_nodes:
                node = self._provider_nodes[index % len(self._provider_nodes)]
            else:
                node = SimNode(self.simulator, f"client-{index:04d}")
            self._client_nodes[index] = node
        return node

    def node_cache_for(self, node: SimNode) -> NodeCache:
        """The metadata node cache of the machine hosting ``node``.

        Budgets come from the deployment's :class:`BlobSeerConfig`
        ``metadata_cache_*`` knobs.  Cache hits are served locally during a
        simulated traversal and skip the NIC pipes entirely.
        """
        cache = self._node_caches.get(node.name)
        if cache is None:
            cache = NodeCache(
                max_entries=self.config.metadata_cache_entries,
                max_bytes=self.config.metadata_cache_bytes,
                shards=self.config.metadata_cache_shards,
            )
            self._node_caches[node.name] = cache
            # Register with the cluster so GC invalidation reaches the
            # simulated machines' caches too (clients key them through
            # cluster.node_cache_key, exactly like the threaded path).
            self.cluster.register_node_cache(cache)
        return cache

    def page_cache_for(self, node: SimNode) -> PageCache | None:
        """The page payload cache of the machine hosting ``node``.

        None when the deployment config disables page caching
        (``page_cache_entries=None``).  Budgets come from the config's
        ``page_cache_*`` knobs; like the node caches, page caches are
        machine state — co-located clients share one, they survive
        :meth:`reset_timing`, and :meth:`clear_node_caches` restores a
        cold start.
        """
        if self.config.page_cache_entries is None:
            return None
        cache = self._page_caches.get(node.name)
        if cache is None:
            cache = PageCache(
                max_entries=self.config.page_cache_entries,
                max_bytes=self.config.page_cache_bytes,
                shards=self.config.page_cache_shards,
            )
            self._page_caches[node.name] = cache
            # Register with the cluster so GC's page discards reach the
            # simulated machines' caches too.
            self.cluster.register_page_cache(cache)
        return cache

    def version_lease_for(self, node: SimNode) -> LeaseCache | None:
        """The version-lease cache of the machine hosting ``node``.

        None when the deployment config disables leasing
        (``vm_lease_ttl=None``).  Like the node caches, lease caches are
        machine state: co-located clients share one, they survive
        :meth:`reset_timing`, and the TTL runs on the simulator's virtual
        clock.  Publish notifications from the (shared) version manager
        renew them, modelling the notification fan-out of the service.
        """
        if self.config.vm_lease_ttl is None:
            return None
        cache = self._version_leases.get(node.name)
        if cache is None:
            cache = LeaseCache(
                self.version_manager,
                ttl=self.config.vm_lease_ttl,
                max_entries=self.config.vm_lease_entries,
                clock=lambda: self.simulator.now,
            )
            self._version_leases[node.name] = cache
        return cache

    def clear_node_caches(self) -> None:
        """Drop every machine's cached metadata, page ranges AND version
        leases (cold-start measurements)."""
        for cache in self._node_caches.values():
            cache.clear()
        for cache in self._page_caches.values():
            cache.clear()
        for lease in self._version_leases.values():
            lease.clear()

    def node_cache_stats(self) -> CacheStats:
        """Aggregate :class:`~repro.cache.CacheStats` over every machine."""
        return sum(
            (cache.stats() for cache in self._node_caches.values()),
            CacheStats(),
        )

    def page_cache_stats(self) -> CacheStats:
        """Aggregate :class:`~repro.cache.CacheStats` over every machine's
        page cache."""
        return sum(
            (cache.stats() for cache in self._page_caches.values()),
            CacheStats(),
        )

    def node_for_provider(self, provider_id: str) -> SimNode:
        """Node hosting data provider ``provider_id`` (ids are ``data-NNNN``)."""
        index = int(provider_id.rsplit("-", 1)[1])
        return self._provider_nodes[index % len(self._provider_nodes)]

    def node_for_bucket(self, bucket_id: str) -> SimNode:
        """Node hosting metadata DHT bucket ``bucket_id`` (ids are ``meta-NNNN``)."""
        index = int(bucket_id.rsplit("-", 1)[1])
        return self._metadata_nodes[index % len(self._metadata_nodes)]

    # -- shortcuts to the real components ----------------------------------------
    @property
    def version_manager(self):
        return self.cluster.version_manager

    def vm_stats(self):
        """The version manager's counters (requests vs batches) —
        accumulated across timing resets; see
        :class:`repro.version.version_manager.VMStats`."""
        return self.cluster.version_manager.vm_stats()

    @property
    def page_size(self) -> int:
        return self.config.page_size

    # -- blob setup (untimed) -------------------------------------------------------
    def create_blob(self) -> str:
        """CREATE a blob on the simulated deployment."""
        return self.version_manager.create_blob(self.config.page_size).blob_id

    def populate_blob(
        self, blob_id: str, total_bytes: int, append_bytes: int | None = None
    ) -> int:
        """Grow a blob with page-aligned appends, without charging any time.

        Used to prepare the read experiments (the paper grows the blob to
        64 GB before measuring reads).  Runs the real allocation, versioning
        and metadata-weaving code; only the page payloads are virtual.
        Returns the final published version.
        """
        page_size = self.config.page_size
        if append_bytes is None:
            append_bytes = 64 * 1024 * 1024
        append_bytes = max(page_size, (append_bytes // page_size) * page_size)
        remaining = (total_bytes // page_size) * page_size
        version = self.version_manager.get_recent(blob_id)
        while remaining > 0:
            chunk = min(append_bytes, remaining)
            version = self.untimed_append(blob_id, chunk)
            remaining -= chunk
        return version

    def append_payload(self, blob_id: str, nbytes: int) -> memoryview:
        """The payload of a simulated append of ``nbytes``: a read-only view
        of the shared zeros, stored uncopied (page stores keep sizes only).
        Simulated appends must be a positive multiple of the page size."""
        page_size = self.version_manager.get_record(blob_id).page_size
        if nbytes <= 0 or nbytes % page_size != 0:
            raise InvalidRangeError(
                "simulated appends must be a positive multiple of the page size"
            )
        return _zero_view(nbytes)

    def untimed_append(self, blob_id: str, nbytes: int) -> int:
        """One page-aligned virtual append executed instantaneously: the
        engine's APPEND on the suspension-free runtime."""
        return self._untimed_store.append(blob_id, self.append_payload(blob_id, nbytes))
