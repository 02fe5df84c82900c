"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's two figures and quantify the arguments made in
its text:

* ABL-meta    — distributed segment-tree metadata vs. a centralized metadata
                server (read scalability and metadata write work).
* ABL-space   — page sharing across versions vs. full-copy versioning
                (storage footprint; contents are cross-checked for equality).
* ABL-writers — aggregate throughput with concurrent appenders (the "no
                synchronization between writers" claim).
* ABL-psize   — page-size sweep (the access-granularity/overhead trade-off).
* ABL-alloc   — page-to-provider allocation strategies (the provider
                manager's "even distribution of pages" goal, Section 3.1).
* ABL-dht     — metadata key placement (static modulo vs. consistent
                hashing) and the resulting load spread over DHT buckets.
* ABL-cache   — the shared metadata node cache: warm-read hit rates, DHT
                traffic saved, and LRU entry/byte budget enforcement.
* ABL-vm      — the version manager: per-read VM round trips with and
                without client leases, and requests vs batches at the
                simulated VM node under concurrent appenders.
* ABL-pagecache — the shared page payload cache: provider traffic saved on
                warm repeated reads, hit rates, and byte-budget enforcement
                under eviction pressure.
* ABL-churn   — data-path fault tolerance under provider churn: availability
                of published reads while a data provider is down (failed vs
                degraded reads, replica failovers), and how fast background
                repair drains the under-replication backlog.
* ABL-coldpath — the cold-read optimizations of DESIGN.md §9 one at a time
                (speculative frontier prefetch, cache-aware replica routing):
                each piece alone must not regress the cold baseline.
"""

from __future__ import annotations

import random
import time

from ..baselines.centralized import (
    CentralizedMetadataServer,
    run_centralized_read_experiment,
)
from ..baselines.fullcopy import FullCopyVersionedStore
from ..aio import SYNC_RUNTIME, run_sync
from ..cache import NodeCache, PageCache
from ..config import BlobSeerConfig, KiB, MiB
from ..core.blob_store import BlobStore
from ..core.cluster import Cluster
from ..errors import ProviderUnavailableError
from ..fault import RepairService
from ..metadata.node import PageDescriptor
from ..sim.client import SimClient
from ..sim.deployment import SimDeployment
from ..sim.experiments import (
    run_append_growth_experiment,
    run_mixed_workload_experiment,
    run_read_concurrency_experiment,
)
from ..vm import LeaseCache
from .runner import ExperimentResult, check_scale


# --------------------------------------------------------------------- ABL-meta
_META_PRESETS = {
    "small": (24, 64 * KiB, 256 * MiB, 8 * MiB, (1, 12, 24)),
    "default": (60, 64 * KiB, 1024 * MiB, 16 * MiB, (1, 30, 60)),
    "paper": (173, 64 * KiB, 12 * 1024 * MiB, 64 * MiB, (1, 100, 175)),
}


def run_ablation_metadata(scale: str = "small") -> ExperimentResult:
    """Distributed segment tree (DHT) vs. centralized metadata server."""
    check_scale(scale)
    providers, page_size, blob_bytes, chunk_bytes, reader_counts = _META_PRESETS[scale]
    result = ExperimentResult(
        "ABL-meta",
        "Metadata scheme: distributed segment tree (DHT) vs. centralized server",
    )

    distributed = run_read_concurrency_experiment(
        num_provider_nodes=providers,
        page_size=page_size,
        blob_bytes=blob_bytes,
        chunk_bytes=chunk_bytes,
        reader_counts=list(reader_counts),
    )
    centralized = run_centralized_read_experiment(
        num_provider_nodes=providers,
        page_size=page_size,
        blob_bytes=blob_bytes,
        chunk_bytes=chunk_bytes,
        reader_counts=list(reader_counts),
    )
    for dist, cent in zip(distributed, centralized):
        result.add(
            readers=dist.readers,
            blobseer_avg_mbps=dist.avg_bandwidth_mbps,
            centralized_avg_mbps=cent.avg_bandwidth_mbps,
            blobseer_retention=(
                dist.avg_bandwidth_mbps / distributed[0].avg_bandwidth_mbps
            ),
            centralized_retention=(
                cent.avg_bandwidth_mbps / centralized[0].avg_bandwidth_mbps
            ),
        )

    # Metadata write work per update: BlobSeer touches O(update + log blob),
    # a flat centralized table re-serializes O(blob).
    pages_total = blob_bytes // page_size
    update_pages = chunk_bytes // page_size
    server = CentralizedMetadataServer(page_size)
    server.create_blob("blob")
    server.publish_update(
        "blob",
        [
            PageDescriptor(i, f"page-{i}", f"data-{i % providers:04d}", page_size)
            for i in range(pages_total)
        ],
        blob_bytes,
    )
    before = server.descriptor_writes
    server.publish_update(
        "blob",
        [
            PageDescriptor(i, f"page-x{i}", f"data-{i % providers:04d}", page_size)
            for i in range(update_pages)
        ],
        blob_bytes,
    )
    centralized_write_work = server.descriptor_writes - before

    deployment = SimDeployment(num_provider_nodes=providers, page_size=page_size)
    blob_id = deployment.create_blob()
    deployment.populate_blob(blob_id, blob_bytes, append_bytes=chunk_bytes)
    outcome = deployment.simulator.run_process(
        SimClient(deployment, 0).append_process(blob_id, chunk_bytes)
    )
    result.note(
        f"metadata write work for one {update_pages}-page update on a "
        f"{pages_total}-page blob: "
        f"BlobSeer {outcome.result.metadata_nodes_written} tree nodes, "
        f"centralized flat table {centralized_write_work} descriptors"
    )
    return result


# -------------------------------------------------------------------- ABL-space
_SPACE_PRESETS = {
    "small": (64 * KiB, 4 * KiB, 12, 0.125),
    "default": (512 * KiB, 16 * KiB, 24, 0.125),
    "paper": (4 * MiB, 64 * KiB, 32, 0.125),
}


def run_ablation_storage_space(scale: str = "small") -> ExperimentResult:
    """Storage footprint of page-sharing versioning vs. full-copy versioning.

    Both systems receive the same workload: an initial blob followed by a
    series of partial overwrites, each touching ``overwrite_fraction`` of the
    blob at a random aligned offset.  Contents are cross-checked after every
    version so the space comparison is between *equivalent* systems.
    """
    check_scale(scale)
    blob_bytes, page_size, versions, overwrite_fraction = _SPACE_PRESETS[scale]
    rng = random.Random(2009)
    result = ExperimentResult(
        "ABL-space",
        "Bytes stored vs. number of versions: page sharing vs. full copy",
    )

    cluster = Cluster.in_memory(
        num_data_providers=8, num_metadata_providers=8, page_size=page_size
    )
    store = BlobStore(cluster)
    blob_id = store.create()
    baseline = FullCopyVersionedStore()

    initial = bytes(rng.getrandbits(8) for _ in range(blob_bytes))
    store.append(blob_id, initial)
    baseline.append(initial)

    overwrite_bytes = max(page_size, int(blob_bytes * overwrite_fraction))
    overwrite_bytes = (overwrite_bytes // page_size) * page_size
    for version in range(1, versions + 1):
        result.add(
            version=version,
            blobseer_bytes=cluster.storage_bytes_used(),
            fullcopy_bytes=baseline.bytes_stored(),
            ratio=baseline.bytes_stored() / max(cluster.storage_bytes_used(), 1),
        )
        max_offset_pages = (blob_bytes - overwrite_bytes) // page_size
        offset = rng.randint(0, max_offset_pages) * page_size
        payload = bytes(rng.getrandbits(8) for _ in range(overwrite_bytes))
        v_new = store.write(blob_id, payload, offset)
        store.sync(blob_id, v_new)
        v_base = baseline.write(payload, offset)
        if store.read(blob_id, v_new, 0, blob_bytes) != baseline.read(
            v_base, 0, blob_bytes
        ):
            raise AssertionError("BlobSeer and full-copy contents diverged")
    result.add(
        version=versions + 1,
        blobseer_bytes=cluster.storage_bytes_used(),
        fullcopy_bytes=baseline.bytes_stored(),
        ratio=baseline.bytes_stored() / max(cluster.storage_bytes_used(), 1),
    )
    result.note(
        "BlobSeer stores only newly written pages per version; the full-copy "
        "baseline stores the whole blob per version (contents verified equal)"
    )
    return result


# ------------------------------------------------------------------ ABL-writers
_WRITER_PRESETS = {
    "small": (24, 64 * KiB, 2 * MiB, 3, (1, 4, 12)),
    "default": (60, 64 * KiB, 8 * MiB, 4, (1, 8, 32)),
    "paper": (173, 64 * KiB, 64 * MiB, 4, (1, 32, 128)),
}


def run_ablation_concurrent_writers(scale: str = "small") -> ExperimentResult:
    """Aggregate append throughput with concurrent writers.

    The paper argues WRITEs/APPENDs proceed in parallel with no
    synchronization other than version assignment; aggregate throughput
    should therefore scale with the number of concurrent appenders until the
    providers' NICs saturate.
    """
    check_scale(scale)
    providers, page_size, append_bytes, appends_each, writer_counts = _WRITER_PRESETS[
        scale
    ]
    result = ExperimentResult(
        "ABL-writers",
        "Aggregate append throughput vs. number of concurrent appenders",
    )
    for writers in writer_counts:
        deployment = SimDeployment(
            num_provider_nodes=providers, page_size=page_size
        )
        blob_id = deployment.create_blob()
        simulator = deployment.simulator

        def writer(index: int):
            client = SimClient(deployment, index)
            outcomes = []
            for _ in range(appends_each):
                outcome = yield from client.append_process(blob_id, append_bytes)
                outcomes.append(outcome)
            return outcomes

        processes = [simulator.process(writer(index)) for index in range(writers)]
        simulator.run()
        makespan = simulator.now
        total_bytes = writers * appends_each * append_bytes
        per_writer = [
            sum(outcome.bandwidth for outcome in process.event.value)
            / len(process.event.value)
            / MiB
            for process in processes
        ]
        result.add(
            writers=writers,
            aggregate_mbps=total_bytes / makespan / MiB,
            avg_writer_mbps=sum(per_writer) / len(per_writer),
            final_version=deployment.version_manager.get_recent(blob_id),
            makespan_s=makespan,
        )
    result.note("final_version equals writers × appends_each: every update published")
    return result


# -------------------------------------------------------------------- ABL-psize
_PSIZE_PRESETS = {
    "small": (24, (16 * KiB, 64 * KiB, 256 * KiB), 4 * MiB),
    "default": (60, (16 * KiB, 64 * KiB, 256 * KiB, 1024 * KiB), 16 * MiB),
    "paper": (173, (16 * KiB, 64 * KiB, 256 * KiB, 1024 * KiB), 64 * MiB),
}


def run_ablation_page_size(scale: str = "small") -> ExperimentResult:
    """Append and read bandwidth across page sizes (granularity trade-off)."""
    check_scale(scale)
    providers, page_sizes, io_bytes = _PSIZE_PRESETS[scale]
    result = ExperimentResult(
        "ABL-psize",
        "Page-size sweep: per-operation bandwidth and metadata cost",
    )
    for page_size in page_sizes:
        append_samples = run_append_growth_experiment(
            num_provider_nodes=providers,
            page_size=page_size,
            append_bytes=io_bytes,
            num_appends=3,
        )
        read_samples = run_read_concurrency_experiment(
            num_provider_nodes=providers,
            page_size=page_size,
            blob_bytes=io_bytes * 4,
            chunk_bytes=io_bytes,
            reader_counts=[1],
            measure_warm=True,
        )
        result.add(
            page_size_kib=page_size // KiB,
            append_mbps=append_samples[-1].bandwidth_mbps,
            read_mbps=read_samples[0].avg_bandwidth_mbps,
            warm_read_mbps=read_samples[0].warm_avg_bandwidth_mbps,
            metadata_nodes_per_append=append_samples[-1].metadata_nodes_written,
            metadata_nodes_per_read=read_samples[0].avg_metadata_nodes_fetched,
            warm_cache_hit_rate=read_samples[0].warm_avg_cache_hit_rate,
        )
    result.note(
        "larger pages amortize per-request overhead (higher bandwidth) at the "
        "cost of coarser sharing granularity and fewer, larger transfers"
    )
    return result


# -------------------------------------------------------------------- ABL-alloc
_ALLOC_PRESETS = {
    "small": (12, 4 * KiB, 48, 6),
    "default": (24, 16 * KiB, 96, 12),
    "paper": (50, 64 * KiB, 200, 24),
}


def run_ablation_allocation(scale: str = "small") -> ExperimentResult:
    """Compare page-to-provider allocation strategies.

    The provider manager aims at "ensuring an even distribution of pages
    among providers" (Section 3.1) because balanced providers minimize the
    serialization that happens when concurrent clients hit the same provider
    (Section 4.3).  The rows report, after the same multi-blob workload, the
    max/mean byte-load imbalance and the share of bytes on the busiest
    provider for each strategy.
    """
    check_scale(scale)
    providers, page_size, appends, pages_per_append = _ALLOC_PRESETS[scale]
    result = ExperimentResult(
        "ABL-alloc",
        "Page-to-provider allocation strategies: load balance after the same workload",
    )
    for strategy in ("round_robin", "least_loaded", "random"):
        cluster = Cluster(
            BlobSeerConfig(
                page_size=page_size,
                num_data_providers=providers,
                num_metadata_providers=providers,
                allocation_strategy=strategy,
            ),
            seed=2009,
        )
        store = BlobStore(cluster)
        blob_a = store.create()
        blob_b = store.create()
        for index in range(appends):
            target = blob_a if index % 2 == 0 else blob_b
            # Vary the append size so strategies that only work well for
            # uniform requests are penalized realistically.
            pages = 1 + (index % pages_per_append)
            store.append(target, b"x" * (pages * page_size))
        loads = sorted(cluster.page_load_distribution().values())
        total = sum(loads)
        result.add(
            strategy=strategy,
            providers=providers,
            total_pages=cluster.stored_page_count(),
            imbalance_max_over_mean=cluster.provider_manager.imbalance(),
            busiest_provider_share=loads[-1] / total if total else 0.0,
            idle_providers=sum(1 for load in loads if load == 0),
        )
    result.note(
        "round_robin and least_loaded should stay near 1.0 imbalance; random "
        "is the strawman that concentrates load by chance"
    )
    return result


# ---------------------------------------------------------------------- ABL-dht
_DHT_PRESETS = {
    "small": (16, 4 * KiB, 512),
    "default": (64, 16 * KiB, 4096),
    "paper": (173, 64 * KiB, 16384),
}


def run_ablation_dht_placement(scale: str = "small") -> ExperimentResult:
    """Compare metadata key placement schemes over the DHT buckets.

    The paper's custom DHT uses a "simple static distribution scheme"; a
    consistent-hashing ring is the common alternative when buckets churn.
    Both must spread the segment-tree nodes evenly, otherwise hot buckets
    reintroduce the centralized-metadata bottleneck.
    """
    check_scale(scale)
    buckets, page_size, total_pages = _DHT_PRESETS[scale]
    result = ExperimentResult(
        "ABL-dht",
        "Metadata node placement: static modulo hashing vs. consistent hashing",
    )
    for strategy in ("static", "consistent"):
        cluster = Cluster(
            BlobSeerConfig(
                page_size=page_size,
                num_data_providers=buckets,
                num_metadata_providers=buckets,
                dht_strategy=strategy,
            )
        )
        store = BlobStore(cluster)
        blob_id = store.create()
        appended = 0
        while appended < total_pages:
            chunk = min(64, total_pages - appended)
            store.append(blob_id, b"m" * (chunk * page_size))
            appended += chunk
        loads = sorted(cluster.metadata_load_distribution().values())
        total_nodes = sum(loads)
        mean = total_nodes / len(loads)
        result.add(
            strategy=strategy,
            buckets=buckets,
            metadata_nodes=total_nodes,
            max_over_mean=loads[-1] / mean if mean else 0.0,
            min_over_mean=loads[0] / mean if mean else 0.0,
            empty_buckets=sum(1 for load in loads if load == 0),
        )
    result.note(
        "both schemes must keep max/mean close to 1; consistent hashing "
        "additionally limits key movement when buckets join or leave "
        "(covered by unit tests)"
    )
    return result


# -------------------------------------------------------------------- ABL-mixed
_MIXED_PRESETS = {
    "small": (24, 64 * KiB, 256 * MiB, 8 * MiB, 12, (0, 4, 12), 4 * MiB),
    "default": (60, 64 * KiB, 1024 * MiB, 16 * MiB, 30, (0, 10, 30), 16 * MiB),
    "paper": (173, 64 * KiB, 8 * 1024 * MiB, 64 * MiB, 100, (0, 25, 75), 64 * MiB),
}


def run_ablation_mixed_workload(scale: str = "small") -> ExperimentResult:
    """Readers under a growing number of concurrent appenders.

    Because updates only add new pages and new metadata, readers of an
    already-published snapshot should keep most of their bandwidth while
    appenders hammer the same blob — the isolation claim of Section 4.3 and
    the "further experimentation" direction announced in the paper's
    conclusion.
    """
    check_scale(scale)
    (providers, page_size, blob_bytes, chunk_bytes, readers, writer_counts,
     append_bytes) = _MIXED_PRESETS[scale]
    result = ExperimentResult(
        "ABL-mixed",
        "Per-reader bandwidth while concurrent appenders grow the same blob",
    )
    samples = run_mixed_workload_experiment(
        num_provider_nodes=providers,
        page_size=page_size,
        blob_bytes=blob_bytes,
        chunk_bytes=chunk_bytes,
        readers=readers,
        writer_counts=list(writer_counts),
        append_bytes=append_bytes,
    )
    for sample in samples:
        result.add(
            readers=sample.readers,
            writers=sample.writers,
            avg_read_mbps=sample.avg_read_bandwidth_mbps,
            avg_append_mbps=sample.avg_append_bandwidth_mbps,
            versions_published=sample.versions_published,
        )
    result.note(
        "readers keep a large fraction of their writer-free bandwidth; every "
        "concurrent append is published (versions_published = writers x appends)"
    )
    return result


# -------------------------------------------------------------------- ABL-cache
#: (page_size, pages, windows) per scale: the blob holds ``pages`` pages and
#: is read in ``windows`` equal windows per pass.
_CACHE_PRESETS = {
    "small": (4 * KiB, 256, 8),
    "default": (16 * KiB, 1024, 16),
    "paper": (64 * KiB, 4096, 32),
}


def run_ablation_cache(scale: str = "small") -> ExperimentResult:
    """The shared metadata node cache: hit rates, DHT traffic, LRU budgets.

    The same read workload (two full passes over the blob, window by
    window) runs against three cache regimes on one threaded cluster:

    * ``uncached`` — every traversal pays the full DHT cost (the pre-cache
      baseline);
    * ``roomy``    — the budget fits the whole tree, so the second pass is
      served entirely from the cache;
    * ``tight``    — the budget holds only a quarter of the tree, forcing
      LRU evictions while occupancy must stay within the byte budget.
    """
    check_scale(scale)
    page_size, pages, windows = _CACHE_PRESETS[scale]
    result = ExperimentResult(
        "ABL-cache",
        "Shared metadata cache: DHT traffic and hit rate per regime, "
        "LRU budget enforcement",
    )

    cluster = Cluster.in_memory(
        num_data_providers=8, num_metadata_providers=8, page_size=page_size
    )
    writer = BlobStore(cluster, cache_metadata=False)
    blob_id = writer.create()
    append_pages = max(1, pages // 8)
    appended = 0
    while appended < pages:
        chunk = min(append_pages, pages - appended)
        version = writer.append(blob_id, b"c" * (chunk * page_size))
        appended += chunk
    writer.sync(blob_id, version)
    total_bytes = pages * page_size
    window_bytes = total_bytes // windows

    # Size the bounded regimes from the measured tree: the roomy cache fits
    # every node, the tight one holds only a quarter of them.
    total_nodes = cluster.metadata_node_count()
    regimes = [
        ("uncached", None),
        ("roomy", NodeCache(max_entries=4 * total_nodes, shards=4)),
        ("tight", NodeCache(max_entries=max(8, total_nodes // 4), shards=4)),
    ]
    for regime, cache in regimes:
        store = BlobStore(
            cluster,
            cache_metadata=cache is not None,
            node_cache=cache,
        )
        for pass_index in ("cold", "warm"):
            gets_before = cluster.dht.stats().gets
            nodes_fetched = hits = 0
            for window in range(windows):
                _, stats = store.read_ex(
                    blob_id, version, window * window_bytes, window_bytes
                )
                nodes_fetched += stats.metadata_nodes_fetched
                hits += stats.metadata_cache_hits
            lookups = nodes_fetched + hits
            cache_stats = store.cache_stats()
            result.add(
                regime=regime,
                read_pass=pass_index,
                meta_nodes_per_read=nodes_fetched / windows,
                cache_hit_rate=hits / lookups if lookups else 0.0,
                dht_gets=cluster.dht.stats().gets - gets_before,
                cache_entries=cache_stats.entries,
                cache_bytes=cache_stats.bytes,
                budget_entries=cache.max_entries if cache is not None else 0,
                evictions=cache_stats.evictions,
                within_budget=(
                    cache is None
                    or (
                        cache_stats.entries <= cache.max_entries
                        and cache_stats.bytes <= cache.max_bytes
                    )
                ),
            )
    result.note(
        f"one blob of {pages} pages ({total_nodes} tree nodes), read twice in "
        f"{windows} windows per regime; the tight regime must evict but stay "
        "within its entry/byte budgets"
    )
    result.note(
        "roomy warm pass: dht_gets == 0 — repeated reads never touch the DHT"
    )
    return result


# ----------------------------------------------------------------- ABL-pagecache
#: (page_size, pages, windows) per scale: the blob holds ``pages`` pages and
#: is read in ``windows`` equal windows per pass.
_PAGECACHE_PRESETS = {
    "small": (4 * KiB, 256, 8),
    "default": (16 * KiB, 1024, 16),
    "paper": (64 * KiB, 4096, 32),
}


def run_ablation_page_cache(scale: str = "small") -> ExperimentResult:
    """The shared page payload cache: provider traffic, hit rates, budgets.

    The same read workload (two full passes over the blob, window by
    window) runs against three page-cache regimes on one threaded cluster
    (metadata caching pinned off so data-path effects are isolated):

    * ``uncached`` — every read pays its provider fetches (the pre-cache
      baseline);
    * ``roomy``    — the byte budget fits every page, so the second pass
      issues ZERO provider requests;
    * ``tight``    — the budget holds only a quarter of the payload bytes,
      forcing LRU evictions while occupancy must stay within budget.
    """
    check_scale(scale)
    page_size, pages, windows = _PAGECACHE_PRESETS[scale]
    result = ExperimentResult(
        "ABL-pagecache",
        "Shared page cache: provider traffic and hit rate per regime, "
        "byte-budget enforcement",
    )

    cluster = Cluster.in_memory(
        num_data_providers=8, num_metadata_providers=8, page_size=page_size
    )
    writer = BlobStore(cluster, cache_metadata=False, cache_pages=False)
    blob_id = writer.create()
    append_pages = max(1, pages // 8)
    appended = 0
    while appended < pages:
        chunk = min(append_pages, pages - appended)
        version = writer.append(blob_id, b"p" * (chunk * page_size))
        appended += chunk
    writer.sync(blob_id, version)
    total_bytes = pages * page_size
    window_bytes = total_bytes // windows

    def provider_gets() -> int:
        return sum(
            provider.stats().get_requests
            for provider in cluster.provider_manager.providers()
        )

    # Size the bounded regimes from the stored payload: the roomy cache
    # fits every page (plus key/entry overhead), the tight one holds only
    # a quarter of the bytes.
    regimes = [
        ("uncached", None),
        ("roomy", PageCache(max_entries=4 * pages, max_bytes=4 * total_bytes,
                            shards=4)),
        ("tight", PageCache(max_entries=pages,
                            max_bytes=max(4 * page_size, total_bytes // 4),
                            shards=4)),
    ]
    for regime, cache in regimes:
        store = BlobStore(
            cluster,
            cache_metadata=False,
            cache_pages=cache is not None,
            page_cache=cache,
        )
        for pass_index in ("cold", "warm"):
            gets_before = provider_gets()
            data_trips = hits = fetched = 0
            for window in range(windows):
                _, stats = store.read_ex(
                    blob_id, version, window * window_bytes, window_bytes
                )
                data_trips += stats.data_round_trips
                hits += stats.page_cache_hits
                fetched += stats.pages_fetched
            cache_stats = store.page_cache_stats()
            result.add(
                regime=regime,
                read_pass=pass_index,
                data_trips=data_trips,
                provider_gets=provider_gets() - gets_before,
                page_cache_hit_rate=hits / fetched if fetched else 0.0,
                cache_entries=cache_stats.entries,
                cache_bytes=cache_stats.bytes,
                budget_bytes=cache.max_bytes if cache is not None else 0,
                evictions=cache_stats.evictions,
                within_budget=(
                    cache is None
                    or (
                        cache_stats.entries <= cache.max_entries
                        and cache_stats.bytes <= cache.max_bytes
                    )
                ),
            )
    result.note(
        f"one blob of {pages} pages ({total_bytes} payload bytes), read twice "
        f"in {windows} windows per regime; the tight regime must evict but "
        "stay within its entry/byte budgets"
    )
    result.note(
        "roomy warm pass: provider_gets == 0 and data_trips == 0 — repeated "
        "reads never touch the data providers"
    )
    return result


# ----------------------------------------------------------------------- ABL-vm
#: (page_size, pages, reads_per_pass, writers, appends_per_writer) per scale.
_VM_PRESETS = {
    "small": (4 * KiB, 128, 16, 16, 6),
    "default": (16 * KiB, 512, 32, 16, 8),
    "paper": (64 * KiB, 2048, 64, 32, 12),
}

#: The write half's columns, absent ("-") on the read rows and vice versa.
_VM_WRITE_COLUMNS = (
    "writers", "register_requests", "register_batches", "register_max_batch",
    "publish_requests", "publish_batches", "publish_max_batch",
    "makespan_virtual_ms", "final_version",
)
_VM_READ_COLUMNS = (
    "cold_vm_trips", "warm_vm_trips", "reads_per_pass", "lease_hit_rate",
)


def run_ablation_vm(scale: str = "small") -> ExperimentResult:
    """The version manager: leases on the read path, batching on the write
    path.

    * Read half, on an in-process cluster: the same reads with and without
      the shared :class:`~repro.vm.LeaseCache`.  ``unleased`` pays its VM
      round trips (record lookup + combined publication check) on every
      READ; ``leased`` serves records, published sizes and GET_RECENT from
      the cache, so its warm pass reports ``vm_round_trips == 0``.
    * Write half, on the simulated clock: a burst of one-page appenders
      (:class:`~repro.sim.client.SimClient`, leases warm) on one blob.  The
      simulated VM node charges service time per round, so registrations
      and completion notices that arrive during a round are applied as one
      batch; the row reports requests vs batches and the makespan in
      virtual time.  In-process there is nothing to batch: a round takes
      microseconds and every batch holds one request.
    """
    check_scale(scale)
    page_size, pages, reads_per_pass, writers, appends_each = _VM_PRESETS[scale]
    result = ExperimentResult(
        "ABL-vm",
        "Version manager: leased vs unleased reads, batched registrations "
        "and publications under concurrent simulated appenders",
    )
    for regime in ("unleased", "leased"):
        cluster = Cluster(
            BlobSeerConfig(
                page_size=page_size, num_data_providers=8, num_metadata_providers=8
            )
        )
        writer = BlobStore(cluster, cache_metadata=False, lease_versions=False)
        blob_id = writer.create()
        append_bytes = max(1, pages // 8) * page_size
        version = 0
        appended = 0
        while appended < pages * page_size:
            version = writer.append(blob_id, b"v" * append_bytes)
            appended += append_bytes
        writer.sync(blob_id, version)
        # The reader's lease cache is made after the writes, so its first
        # pass is honestly cold and its hit rate covers the reads only.
        store = BlobStore(
            cluster,
            cache_metadata=False,
            lease_versions=regime == "leased",
            version_leases=(
                LeaseCache(cluster.version_manager, ttl=300.0)
                if regime == "leased"
                else None
            ),
        )

        window_bytes = pages * page_size // reads_per_pass
        trips_per_pass = []
        for _pass in ("cold", "warm"):
            trips = 0
            for window in range(reads_per_pass):
                _, stats = store.read_ex(
                    blob_id, version, window * window_bytes, window_bytes
                )
                trips += stats.vm_round_trips
            trips_per_pass.append(trips)
        lease_stats = store.lease_stats()
        result.add(
            regime=regime,
            cold_vm_trips=trips_per_pass[0],
            warm_vm_trips=trips_per_pass[1],
            reads_per_pass=reads_per_pass,
            lease_hit_rate=lease_stats.hit_rate if lease_stats else 0.0,
            **dict.fromkeys(_VM_WRITE_COLUMNS),
        )

    deployment = SimDeployment(num_provider_nodes=8, page_size=page_size)
    blob_id = deployment.create_blob()
    clients = [SimClient(deployment, index) for index in range(writers)]
    for client in clients:
        # Warm leases: the record and GET_RECENT are known before the
        # burst, and publish notifications keep them current during it.
        lease = deployment.version_lease_for(client.node)
        run_sync(lease.record(blob_id, SYNC_RUNTIME))
        run_sync(lease.recent(blob_id, SYNC_RUNTIME))

    def appender(client: SimClient):
        for _ in range(appends_each):
            yield from client.append_process(blob_id, page_size)

    simulator = deployment.simulator
    for client in clients:
        simulator.process(appender(client))
    simulator.run()
    # A fresh deployment: its VM counted nothing but the burst's updates.
    stats = deployment.vm_stats()
    result.add(
        regime="sim_burst",
        **dict.fromkeys(_VM_READ_COLUMNS),
        writers=writers,
        register_requests=stats.register_requests,
        register_batches=stats.register_batches,
        register_max_batch=stats.register_max_batch,
        publish_requests=stats.publish_requests,
        publish_batches=stats.publish_batches,
        publish_max_batch=stats.publish_max_batch,
        makespan_virtual_ms=simulator.now * 1000.0,
        final_version=deployment.version_manager.get_recent(blob_id),
    )
    result.note(
        "leased warm pass must report 0 VM trips (the lease cache serves "
        "records, sizes and GET_RECENT); unleased reads pay 2 per read"
    )
    result.note(
        "sim_burst: register_batches < register_requests, because the "
        "simulated VM node applies the requests that arrive during a round "
        "as its next batch; final_version = writers x appends shows every "
        "append was published"
    )
    return result


# -------------------------------------------------------------------- ABL-churn
#: (providers, page_size, pages, windows) per scale: the blob holds ``pages``
#: pages spread over ``providers`` data providers and is read window by
#: window while one provider is down.
_CHURN_PRESETS = {
    "small": (8, 4 * KiB, 128, 16),
    "default": (16, 16 * KiB, 512, 32),
    "paper": (48, 64 * KiB, 2048, 64),
}


def run_ablation_churn(scale: str = "small") -> ExperimentResult:
    """Availability under provider churn: replication, failover, repair.

    The same read workload runs against two regimes of one in-process
    cluster family, ``page_replication=1`` (the paper's baseline: every
    page has a single home) and ``page_replication=2``:

    * populate a blob, then **kill** the data provider holding the most
      pages and read the whole published snapshot window by window.  With
      one replica, windows touching the victim's pages fail
      (``failed_reads``); with two, every read succeeds *degraded* —
      correct bytes served by the surviving replicas (``degraded_reads``,
      ``failovers``).
    * run the :class:`~repro.fault.RepairService` and report how much of
      the under-replication backlog one pass drains, and how long it took
      (``repair_drain_s``).
    * **rejoin** the victim, run a second repair pass (rejoining holders
      may temporarily yield extra copies — harmless), and re-read: the
      final pass must be failure-free in both regimes.

    Every successful read is content-checked against the written payload,
    so availability is never bought with wrong bytes.
    """
    check_scale(scale)
    providers, page_size, pages, windows = _CHURN_PRESETS[scale]
    result = ExperimentResult(
        "ABL-churn",
        "Provider churn: failed vs degraded reads per replication regime, "
        "repair backlog drain",
    )
    rng = random.Random(2009)
    payload = bytes(rng.getrandbits(8) for _ in range(pages * page_size))
    window_bytes = pages * page_size // windows

    for replication in (1, 2):
        cluster = Cluster(
            BlobSeerConfig(
                page_size=page_size,
                num_data_providers=providers,
                num_metadata_providers=providers,
                page_replication=replication,
            ),
            seed=2009,
        )
        store = BlobStore(cluster, cache_metadata=False, cache_pages=False)
        repair_service = RepairService(cluster)
        blob_id = store.create()
        append_bytes = max(1, pages // 8) * page_size
        version = 0
        for start in range(0, pages * page_size, append_bytes):
            version = store.append(
                blob_id, payload[start:start + append_bytes]
            )
        store.sync(blob_id, version)

        def read_pass():
            """One full pass; returns (failed, degraded_reads, failovers)."""
            failed = degraded_reads = failovers = 0
            for window in range(windows):
                offset = window * window_bytes
                try:
                    data, stats = store.read_ex(
                        blob_id, version, offset, window_bytes
                    )
                except ProviderUnavailableError:
                    failed += 1
                    continue
                if data != payload[offset:offset + window_bytes]:
                    raise AssertionError("degraded read returned wrong bytes")
                degraded_reads += 1 if stats.degraded else 0
                failovers += stats.failovers
            return failed, degraded_reads, failovers

        # Kill the provider holding the most pages (deterministic victim).
        victim = max(
            cluster.provider_manager.providers(),
            key=lambda provider: (provider.page_count(), provider.provider_id),
        )
        cluster.kill_data_provider(victim.provider_id)
        failed, degraded_reads, failovers = read_pass()
        backlog_after_kill = repair_service.under_replicated()

        started = time.perf_counter()
        report = repair_service.repair()
        repair_drain_s = time.perf_counter() - started
        backlog_after_repair = repair_service.under_replicated()

        cluster.revive_data_provider(victim.provider_id)
        rejoin_report = repair_service.repair()
        failed_after, degraded_after, _ = read_pass()
        result.add(
            page_replication=replication,
            reads=windows,
            failed_reads=failed,
            degraded_reads=degraded_reads,
            failovers=failovers,
            backlog_after_kill=backlog_after_kill,
            re_replicated=report.pages_re_replicated,
            copies_created=report.copies_created,
            unrecoverable=report.pages_unrecoverable,
            backlog_after_repair=backlog_after_repair,
            repair_drain_s=repair_drain_s,
            rejoin_backlog=rejoin_report.backlog,
            failed_after_rejoin=failed_after,
            degraded_after_rejoin=degraded_after,
        )
    result.note(
        "page_replication=1: the victim's pages are unavailable (failed "
        "reads, unrecoverable backlog) until it rejoins; page_replication=2: "
        "zero failed reads — every read is served degraded by the surviving "
        "replica — and one repair pass drains the backlog to 0"
    )
    result.note(
        "after rejoin + second repair both regimes read failure-free; every "
        "successful read was content-checked against the written payload"
    )
    return result


# ----------------------------------------------------------------- ABL-coldpath
#: (providers, page_size, blob_bytes, chunk_bytes, readers) per scale: the
#: toggle sweep reads ``readers`` disjoint chunks.
_COLDPATH_PRESETS = {
    "small": (24, 64 * KiB, 256 * MiB, 8 * MiB, 12),
    "default": (60, 64 * KiB, 1024 * MiB, 16 * MiB, 30),
    "paper": (173, 64 * KiB, 8 * 1024 * MiB, 64 * MiB, 100),
}

#: The one-at-a-time toggle sweep of the two cold-path pieces.
_COLDPATH_REGIMES = (
    ("baseline", {}),
    ("+prefetch", {"speculative_prefetch": True}),
    ("+routing", {"replica_routing": True}),
    ("all-on", {"speculative_prefetch": True, "replica_routing": True}),
)


def run_ablation_coldpath(scale: str = "small") -> ExperimentResult:
    """The two cold-read optimizations of DESIGN.md §9, one at a time.

    The fig2b cold pass (``readers`` concurrent clients, each a distinct
    chunk) on a replicated deployment (pages on 5 providers, metadata
    buckets on 3 — the fig2b benchmark config), per toggle regime: every
    piece alone must be at least as fast as the all-off baseline.  On a
    healthy deployment routing has no suspect to move, so its rows equal
    the ones without it.
    """
    check_scale(scale)
    providers, page_size, blob_bytes, chunk_bytes, readers = (
        _COLDPATH_PRESETS[scale]
    )
    result = ExperimentResult(
        "ABL-coldpath",
        "Cold-read path: speculative prefetch and replica routing, each "
        "piece alone vs both together",
    )

    for regime, toggles in _COLDPATH_REGIMES:
        knobs = {
            "speculative_prefetch": False,
            "replica_routing": False,
            **toggles,
        }
        sample = run_read_concurrency_experiment(
            num_provider_nodes=providers,
            page_size=page_size,
            blob_bytes=blob_bytes,
            chunk_bytes=chunk_bytes,
            reader_counts=[readers],
            co_locate_clients=True,
            page_replication=5,
            metadata_replication=3,
            **knobs,
        )[0]
        result.add(
            regime=regime,
            readers=readers,
            avg_bandwidth_mbps=sample.avg_bandwidth_mbps,
            cold_meta_latency=sample.avg_meta_latency * 1e3,
            data_trips_per_read=sample.avg_data_round_trips,
            speculative_hit_rate=sample.speculative_hit_rate,
        )
    result.note(
        "each piece alone must be >= baseline avg_bandwidth_mbps "
        "(non-regression); cold_meta_latency is in milliseconds and roughly "
        "halves under +prefetch (two tree levels per round trip); +routing "
        "only ranks suspects last, so with none it equals baseline"
    )
    return result
