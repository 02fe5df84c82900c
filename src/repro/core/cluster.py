"""In-process deployment of every BlobSeer role.

A :class:`Cluster` wires together the distributed actors described in
Section 3.1 of the paper — data providers, the provider manager, the
metadata provider (a DHT) and the version manager — inside a single process.
Real threads can act as concurrent clients against it; every component is
individually lockable, killable and observable, which is what the tests, the
correctness-oriented examples and the wall-clock benchmark
(``benchmarks/wall``) use.  (The paper's figures, which need a 175-node
testbed, run on the simulated clock of :mod:`repro.sim` instead.)
"""

from __future__ import annotations

import weakref
from collections.abc import Callable

from ..cache import (
    NodeCache,
    PageCache,
    next_cache_namespace,
    shared_node_cache,
    shared_page_cache,
)
from ..config import BlobSeerConfig
from ..dht.dht import DHT
from ..fault import ProviderHealth, RetryPolicy
from ..metadata.metadata_provider import MetadataProvider
from ..obs import Tracer, get_registry
from ..providers.allocation import make_allocation_strategy
from ..providers.data_provider import DataProvider
from ..providers.page_store import InMemoryPageStore, PageStore
from ..providers.provider_manager import ProviderManager
from ..util.ids import IdGenerator
from ..version.version_manager import VersionManager
from ..vm import LeaseCache


class Cluster:
    """A complete, in-process BlobSeer deployment."""

    def __init__(
        self,
        config: BlobSeerConfig | None = None,
        page_store_factory: Callable[[str], PageStore] | None = None,
        seed: int | None = None,
        node_cache: NodeCache | None = None,
        page_cache: PageCache | None = None,
    ):
        self.config = config if config is not None else BlobSeerConfig()
        self._ids = IdGenerator("bs")
        factory = page_store_factory or (lambda _provider_id: InMemoryPageStore())

        # Every BlobStore on this cluster shares one metadata node cache:
        # the process-wide instance when the config keeps the default
        # budgets, a dedicated one otherwise (or whatever was injected).
        # Cache keys are namespaced per cluster so in-process deployments
        # sharing the process-wide cache can never serve each other's nodes
        # (different clusters generate identical blob ids).
        if node_cache is not None:
            self.node_cache = node_cache
        elif self.config.uses_default_cache_budgets:
            self.node_cache = shared_node_cache()
        else:
            self.node_cache = NodeCache(
                max_entries=self.config.metadata_cache_entries,
                max_bytes=self.config.metadata_cache_bytes,
                shards=self.config.metadata_cache_shards,
            )
        self.cache_namespace = next_cache_namespace("cluster")
        # Per-store override caches (tests, ablations) register here so GC
        # can invalidate them too; weak refs keep dropped stores collectable.
        self._override_caches: weakref.WeakSet[NodeCache] = weakref.WeakSet()

        # The page payload cache follows the same sharing rules as the node
        # cache — process-wide instance for default budgets, dedicated
        # otherwise — and ``page_cache_entries=None`` disables it for the
        # whole deployment (every read then pays its provider fetches).
        if page_cache is not None:
            self.page_cache: PageCache | None = page_cache
        elif self.config.page_cache_entries is None:
            self.page_cache = None
        elif self.config.uses_default_page_cache_budgets:
            self.page_cache = shared_page_cache()
        else:
            self.page_cache = PageCache(
                max_entries=self.config.page_cache_entries,
                max_bytes=self.config.page_cache_bytes,
                shards=self.config.page_cache_shards,
            )
        self._override_page_caches: weakref.WeakSet[PageCache] = weakref.WeakSet()

        strategy = make_allocation_strategy(
            self.config.allocation_strategy,
            seed=seed,
            page_size_hint=self.config.page_size,
        )
        # Fault-tolerance wiring (see :mod:`repro.fault` and DESIGN.md):
        # one health registry and one retry policy per cluster, shared by
        # every client.  The config defaults (``retry_attempts=1``) make
        # the retry policy a no-op, so a vanilla deployment behaves —
        # and times — exactly as before.
        self.provider_health = ProviderHealth(
            suspect_after=self.config.suspect_after
        )
        self.retry_policy = RetryPolicy.from_config(self.config)
        self.provider_manager = ProviderManager(
            strategy,
            retry_policy=self.retry_policy,
            health=self.provider_health,
            routing=self.config.feature_enabled("replica_routing"),
        )
        for index in range(self.config.num_data_providers):
            provider_id = f"data-{index:04d}"
            provider = DataProvider(
                provider_id,
                store=factory(provider_id),
                verify_checksums=self.config.verify_checksums,
            )
            self.provider_manager.register(provider)

        self.dht = DHT(
            num_buckets=self.config.num_metadata_providers,
            strategy=self.config.dht_strategy,
            replication=self.config.metadata_replication,
            retry_policy=self.retry_policy,
            routing=self.config.feature_enabled("replica_routing"),
        )
        self.metadata_provider = MetadataProvider(
            self.dht, encode_values=self.config.encode_metadata
        )
        # Every client of this cluster calls the one version manager
        # directly; it counts its own traffic (``vm_stats()``).
        self.version_manager = VersionManager(self.config, id_generator=self._ids)
        # One shared lease cache per cluster (None when leasing is disabled):
        # co-located clients renew one another's GET_RECENT leases, and the
        # version manager's publish notifications keep them coherent.
        self.version_leases: LeaseCache | None = (
            LeaseCache(
                self.version_manager,
                ttl=self.config.vm_lease_ttl,
                max_entries=self.config.vm_lease_entries,
            )
            if self.config.vm_lease_ttl is not None
            else None
        )

        # Observability (DESIGN.md §11): one tracer per traced cluster, and
        # the cluster's components registered as pull sources of the
        # process-wide metrics registry.  With ``tracing=False`` (default)
        # both stay None and NOTHING here touches the registry — the no-op
        # discipline every other knob follows.
        self.tracer: Tracer | None = None
        self.metrics = None
        if self.config.feature_enabled("tracing"):
            self.tracer = Tracer()
            self.metrics = get_registry()
            self._register_metric_sources()

    def _register_metric_sources(self) -> None:
        """Publish this cluster's snapshot sources under stable dotted
        names, labelled by the cluster's cache namespace.

        Sources hold the cluster weakly, so traced clusters built by tests
        and benchmarks vanish from the registry with their last reference.
        """
        registry = self.metrics
        labels = {"cluster": self.cache_namespace}
        registry.register_source(
            "repro.vm", self, lambda c: c.version_manager.vm_stats(), labels
        )
        registry.register_source(
            "repro.dht", self, lambda c: c.dht.stats(), labels
        )
        registry.register_source(
            "repro.cache.node", self, lambda c: c.node_cache.stats(), labels
        )
        if self.page_cache is not None:
            registry.register_source(
                "repro.cache.page", self, lambda c: c.page_cache.stats(), labels
            )
        registry.register_source(
            "repro.health", self, lambda c: c.provider_health.stats(), labels
        )

    # -- convenience constructors -------------------------------------------
    @classmethod
    def in_memory(
        cls,
        num_data_providers: int = 16,
        num_metadata_providers: int = 16,
        page_size: int = BlobSeerConfig().page_size,
        **overrides,
    ) -> "Cluster":
        """Build a small in-memory cluster with sensible defaults."""
        config = BlobSeerConfig(
            page_size=page_size,
            num_data_providers=num_data_providers,
            num_metadata_providers=num_metadata_providers,
            **overrides,
        )
        return cls(config)

    # -- failure injection ----------------------------------------------------
    def kill_data_provider(self, provider_id: str) -> None:
        """Crash a data provider (its pages become unreachable)."""
        self.provider_manager.provider(provider_id).kill()
        self.provider_manager.deregister(provider_id)

    def revive_data_provider(self, provider_id: str) -> None:
        provider = self.provider_manager.provider(provider_id)
        provider.revive()
        self.provider_manager.register(provider)
        # Revival probe: a rejoining provider starts with a clean slate so
        # allocation stops steering around it immediately.
        self.provider_health.probe([provider])

    def kill_metadata_bucket(self, bucket_id: str) -> None:
        """Crash one metadata DHT bucket."""
        self.dht.kill_bucket(bucket_id)

    def revive_metadata_bucket(self, bucket_id: str) -> None:
        self.dht.revive_bucket(bucket_id)

    # -- metadata cache ---------------------------------------------------------
    def node_cache_key(self, owner: str, ref) -> tuple:
        """The node cache's key for tree node ``ref`` of blob ``owner`` —
        anything carrying ``version``/``offset``/``size`` (a
        :class:`~repro.metadata.node.NodeRef`, or a ``NodeKey`` whose
        ``blob_id`` is ``owner``).

        All cache traffic of this cluster — the clients' frontier lookups,
        write-through inserts at publish time, GC invalidation — goes
        through this mapping, so one process-wide cache can serve many
        in-process clusters without key collisions.  The key is a flat
        tuple of strings and ints: it hashes and compares in C, and a hit
        never needs a ``NodeKey`` built.
        """
        return (self.cache_namespace, owner, ref.version, ref.offset, ref.size)

    def register_node_cache(self, cache: NodeCache) -> None:
        """Track a per-store override cache so GC invalidation reaches it."""
        if cache is not self.node_cache:
            self._override_caches.add(cache)

    def discard_cached_node(self, key) -> None:
        """Drop one node from the cluster cache AND every override cache —
        called by GC for each node it deletes from the DHT."""
        cache_key = self.node_cache_key(key.blob_id, key)
        self.node_cache.discard(cache_key)
        for cache in self._override_caches:
            cache.discard(cache_key)

    # -- page cache -------------------------------------------------------------
    def page_cache_key(self, page_id: str, offset: int, length: int) -> tuple:
        """Namespace one fetched page sub-range for the page cache.

        All page-cache traffic of this cluster — read-path lookups,
        miss write-through, GC invalidation — goes through this mapping,
        so one process-wide cache can serve many in-process clusters
        without page-id collisions.
        """
        return (self.cache_namespace, page_id, offset, length)

    def register_page_cache(self, cache: PageCache) -> None:
        """Track a per-store override page cache so GC invalidation
        reaches it too."""
        if cache is not self.page_cache:
            self._override_page_caches.add(cache)

    def discard_cached_page(self, page_id: str) -> None:
        """Drop every cached sub-range of one page from the cluster page
        cache AND every override cache — the page-side twin of
        :meth:`discard_cached_node`, called by GC for each page it deletes
        from the providers."""
        if self.page_cache is not None:
            self.page_cache.discard_page(self.cache_namespace, page_id)
        for cache in self._override_page_caches:
            cache.discard_page(self.cache_namespace, page_id)

    # -- introspection ----------------------------------------------------------
    def storage_bytes_used(self) -> int:
        """Total page payload bytes stored across all data providers."""
        return self.provider_manager.total_bytes_used()

    def stored_page_count(self) -> int:
        return self.provider_manager.total_pages()

    def metadata_node_count(self) -> int:
        return self.metadata_provider.node_count()

    def page_load_distribution(self) -> dict[str, int]:
        """Bytes stored per data provider (even-distribution checks)."""
        return self.provider_manager.load_distribution()

    def metadata_load_distribution(self) -> dict[str, int]:
        """Metadata nodes stored per DHT bucket."""
        return self.dht.load_distribution()
