"""Builds the cluster + store a workload drives, and reads its counters.

Every cluster gets *dedicated* ``NodeCache``/``PageCache`` instances sized
from its config: default-budget clusters would otherwise join the
process-wide shared caches and carry up to 256 MiB of dead entries from one
round into the next.

With a :class:`~wallbench.spans.SpanRecorder` the engine is built with
timing proxies at the seams it already exposes: ``cluster.version_manager``
(and a ``LeaseCache`` over that proxy), ``cluster.metadata_provider``
rebuilt over a proxied ``cluster.dht``, ``cluster.provider_manager``, and
the node/page caches handed to the store.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import AsyncBlobStore, BlobStore, Cluster
from repro.cache import NodeCache, PageCache
from repro.config import BlobSeerConfig
from repro.metadata.metadata_provider import MetadataProvider
from repro.vm import LeaseCache

from .spans import CountingRuntime, LayerProxy, SpanRecorder

KiB = 1 << 10
MiB = 1 << 20
PAGE_SIZE = 64 * KiB

VM_METHODS = (
    "create_blob", "register_update", "complete_update", "abort_update",
    "get_record", "get_recent", "recent_lease", "check_read", "sync",
    "poll_sync", "subscribe_publications", "unsubscribe_publications",
)
LEASE_METHODS = ("record", "published_size", "recent")
METADATA_METHODS = (
    "put_nodes_async", "get_nodes_async", "try_get_nodes_async", "bucket_groups",
)
DHT_METHODS = (
    "multi_put_async", "multi_get_async", "try_multi_get_async", "primary_groups",
)
PROVIDER_METHODS = (
    "allocate_replicas", "multi_store_replicated_async", "multi_fetch_into_async",
)
CACHE_METHODS = ("get", "put", "get_many", "put_many")


def make_config(**overrides) -> BlobSeerConfig:
    """The common deployment: 8 data providers, 8 metadata buckets, 64 KiB
    pages, every other field at its default unless overridden."""
    return BlobSeerConfig(
        page_size=PAGE_SIZE,
        num_data_providers=8,
        num_metadata_providers=8,
        **overrides,
    )


@dataclass
class Engine:
    cluster: Cluster
    store: BlobStore | AsyncBlobStore
    #: Only on the traced event-loop engine.
    runtime: CountingRuntime | None = None

    def counters(self) -> dict[str, float]:
        """Lifetime counters of every component (callers take deltas)."""
        cluster = self.cluster
        dht = cluster.dht.stats()
        vm = cluster.version_manager.vm_stats()
        lease = self.store.lease_stats()
        nodes = cluster.node_cache.stats()
        pages = cluster.page_cache.stats()
        counters = {
            "dht.gets": dht.gets,
            "dht.puts": dht.puts,
            "dht.batches": dht.batch_gets + dht.batch_puts,
            "vm.register_requests": vm.register_requests,
            "vm.register_batches": vm.register_batches,
            "vm.publish_requests": vm.publish_requests,
            "vm.publish_batches": vm.publish_batches,
            "lease.hits": lease.hits,
            "lease.misses": lease.misses,
            "node.hits": nodes.hits,
            "node.misses": nodes.misses,
            "node.evictions": nodes.evictions,
            "page.hits": pages.hits,
            "page.misses": pages.misses,
            "page.evictions": pages.evictions,
        }
        runtime = self.runtime
        if runtime is not None:
            counters["aio.run_batches"] = runtime.run_batches_calls
            counters["aio.tasks_started"] = runtime.tasks_started
            counters["aio.gathers"] = runtime.gathers
            counters["aio.vm_sync_waits"] = runtime.vm_sync_waits
        return counters

    def gauges(self) -> dict[str, float]:
        """Point-in-time readings (taken at the end of an epoch)."""
        cluster = self.cluster
        dht = cluster.dht.stats()
        return {
            "dht.max_bucket_share": (
                dht.max_keys_per_bucket * dht.buckets / dht.keys if dht.keys else 0.0
            ),
            "metadata.nodes": cluster.metadata_node_count(),
            "providers.load_imbalance": cluster.provider_manager.imbalance(),
            "cache.page_resident_mb": cluster.page_cache.stats().bytes / MiB,
            "cache.node_entries": cluster.node_cache.stats().entries,
            "storage.bytes": cluster.storage_bytes_used(),
        }


def build_engine(
    config: BlobSeerConfig,
    recorder: SpanRecorder | None = None,
    event_loop: bool = False,
) -> Engine:
    node_cache = NodeCache(
        max_entries=config.metadata_cache_entries,
        max_bytes=config.metadata_cache_bytes,
        shards=config.metadata_cache_shards,
    )
    page_cache = PageCache(
        max_entries=config.page_cache_entries,
        max_bytes=config.page_cache_bytes,
        shards=config.page_cache_shards,
    )
    cluster = Cluster(config, node_cache=node_cache, page_cache=page_cache)
    store_type = AsyncBlobStore if event_loop else BlobStore
    if recorder is None:
        return Engine(cluster, store_type(cluster))

    vm = LayerProxy(cluster.version_manager, "vm", VM_METHODS, recorder)
    cluster.version_manager = vm
    leases = LayerProxy(
        LeaseCache(
            vm, ttl=config.vm_lease_ttl, max_entries=config.vm_lease_entries
        ),
        "vm.lease",
        LEASE_METHODS,
        recorder,
    )
    cluster.version_leases = leases
    dht = LayerProxy(cluster.dht, "dht", DHT_METHODS, recorder)
    cluster.metadata_provider = LayerProxy(
        MetadataProvider(dht, encode_values=config.encode_metadata),
        "metadata",
        METADATA_METHODS,
        recorder,
    )
    cluster.provider_manager = LayerProxy(
        cluster.provider_manager, "providers", PROVIDER_METHODS, recorder
    )
    kwargs = {
        "version_leases": leases,
        "node_cache": LayerProxy(node_cache, "cache.node", CACHE_METHODS, recorder),
        "page_cache": LayerProxy(page_cache, "cache.page", CACHE_METHODS, recorder),
    }
    if event_loop:
        runtime = CountingRuntime()
        return Engine(cluster, AsyncBlobStore(cluster, runtime=runtime, **kwargs), runtime)
    return Engine(cluster, BlobStore(cluster, **kwargs))
