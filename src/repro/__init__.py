"""BlobSeer reproduction: versioned large-object storage under heavy
concurrency (Nicolae, Antoniu, Bougé — EDBT/ICDT workshops 2009).

Quickstart::

    from repro import BlobStore, Cluster

    cluster = Cluster.in_memory(num_data_providers=8, page_size=4096)
    with BlobStore(cluster) as store:
        blob_id = store.create()
        v1 = store.append(blob_id, b"hello world")
        print(store.read(blob_id, v1, 0, 11))

Async quickstart — the same primitives as awaitables, sharing one event
loop instead of one thread per client::

    import asyncio
    from repro import AsyncBlobStore, Cluster

    async def main():
        cluster = Cluster.in_memory(num_data_providers=8, page_size=4096)
        async with AsyncBlobStore(cluster) as store:
            blob_id = await store.create()
            v1 = await store.append(blob_id, b"hello world")
            print(await store.read(blob_id, v1, 0, 11))

    asyncio.run(main())

Migration guide (asyncio-native core)
-------------------------------------

The client core is now asyncio-native: :class:`~repro.core.AsyncBlobStore`
is the implementation, and the familiar synchronous :class:`BlobStore` is a
thin loop-free bridge over it (see :mod:`repro.aio`).  What this means for
existing code:

* **Methods are unchanged.**  Every ``BlobStore`` method keeps its exact
  signature, semantics, error behaviour and ``*_ex`` trip counters; no
  event loop is created and no thread is parked on the sync path.  The
  ``*_ex`` methods (``write_ex`` / ``append_ex`` / ``read_ex``) are the
  canonical operations; bare ``write`` / ``append`` / ``read`` remain
  supported convenience wrappers that discard the stats.
* **To go async**, replace ``BlobStore(cluster)`` with
  ``AsyncBlobStore(cluster)`` and ``await`` the same method names.  Use
  ``async with`` (or ``await store.aclose()``) for lifecycle; the sync
  class gained the matching ``with`` / ``close()`` support.  Both classes
  raise :class:`~repro.errors.StoreClosedError` after close.
* **Concurrency model**: ``asyncio.gather`` thousands of operations on one
  ``AsyncBlobStore`` — reads pipeline their metadata-tree descent across
  DHT buckets and writes overlap their metadata publish with the page
  stores, with zero per-operation threads.
* **Removed**: the sync ``BlobStore``'s thread-pool knob and the per-call
  batch-executor hook of the component multi-ops — the runtime
  (:class:`~repro.aio.SyncRuntime` / :class:`~repro.aio.AsyncRuntime`) is
  the only execution strategy, and for parallelism the event loop replaces
  the pool (which lost to inline execution under the GIL anyway);
  ``BlobSeerConfig(replication=...)`` — spell it ``metadata_replication=``
  (and ``page_replication=`` for the data path); ``CacheStats.as_tuple()``
  — read the named fields.  Batched component calls exist as ``*_async``
  methods taking a runtime; only ``DHT.multi_get`` keeps a synchronous
  façade (``MetadataProvider.get_nodes`` and ``get_node`` are gone: call
  ``get_nodes_async`` with :data:`~repro.aio.SYNC_RUNTIME` under
  ``run_sync``).
  The size-only ("virtual") store calls of the provider manager, data
  providers and page stores went with their one caller, the simulator's
  own APPEND: store ``SimDeployment.append_payload(blob_id, size)``, a
  read-only view of shared zeros (a ``NullPageStore`` keeps only the
  length).  A custom ``PageStore.put`` takes ``checksummed`` and may get
  a read-only view.  ``repro.sim.AppendOutcome`` is ``(result: WriteResult,
  elapsed)`` now, ``repro.sim.ReadOutcome`` is ``(stats: ReadStats,
  elapsed, spans)``, and ``SimDeployment.provider_manager`` is spelled
  ``deployment.cluster.provider_manager``.  ``LeaseCache.record`` /
  ``published_size`` / ``recent`` are coroutines taking the runtime.
  The version-manager service wrapper and its threaded group-commit
  window are gone: ``cluster.version_manager`` is the ``VersionManager``
  itself (with ``vm_stats()``), and ``Cluster`` takes no version manager.

Package layout:

* :mod:`repro.core` — client API (CREATE/WRITE/APPEND/READ/SYNC/BRANCH),
  async and sync, and in-process cluster wiring.
* :mod:`repro.aio` — the I/O runtime seam: one async code path, two
  shipped execution modes (event loop vs suspension-free trampoline); the
  simulator's virtual clock is a third (:mod:`repro.sim.runtime`).
* :mod:`repro.cache` — the shared, sharded, LRU-bounded caches for
  immutable metadata tree nodes AND immutable page payloads that every
  client reads through (one common sharded-LRU core).
* :mod:`repro.metadata` — the distributed segment tree (the paper's core
  contribution).
* :mod:`repro.version` — version manager (total order, publication, SYNC).
* :mod:`repro.vm` — client version leases.
* :mod:`repro.providers` — data providers and the provider manager.
* :mod:`repro.fault` — data-path fault tolerance: retry with backoff,
  provider failure detection, background replication repair (DESIGN.md).
* :mod:`repro.dht` — the custom DHT storing metadata.
* :mod:`repro.sim` — discrete-event simulator of the Grid'5000-like testbed
  used for the paper's throughput experiments.
* :mod:`repro.baselines` — centralized-metadata and full-copy baselines.
* :mod:`repro.bench` — harnesses regenerating the paper's figures.
* :mod:`repro.obs` — observability: span tracing, the process-wide metrics
  registry and its exporters (``python -m repro.obs dump``); opt-in via
  ``BlobSeerConfig(tracing=True)``, bit-identical no-op when off.
* :mod:`repro.analysis` — the repo's invariant analyzer: an AST lint pass
  (``python -m repro.analysis src benchmarks``, rules RPR001–RPR005) plus
  the runtime lock-order/lock-across-await sanitizer used by the test
  suite.  Contributors: run the lint pass before sending a change — CI's
  ``static-analysis`` job fails on any unsuppressed finding — and see
  DESIGN.md §12 for the rule ↔ invariant map and the suppression policy.

Logging: every module logs under the ``repro.*`` hierarchy; the package
root carries a :class:`logging.NullHandler`, so nothing is printed unless
the application configures handlers (e.g. ``logging.basicConfig``).
"""

import logging as _logging

from .cache import (
    CacheStats,
    NodeCache,
    PageCache,
    shared_node_cache,
    shared_page_cache,
)
from .config import BlobSeerConfig, SimConfig, GRID5000_PROFILE, KiB, MiB, GiB
from .core import AsyncBlobStore, Blob, BlobStore, Cluster
from .fault import (
    HealthStats,
    ProviderHealth,
    RepairReport,
    RepairService,
    RepairStats,
    RetryPolicy,
)
from .version import VMStats
from .vm import LeaseCache
from .errors import (
    BlobSeerError,
    ConfigurationError,
    InvalidRangeError,
    StoreClosedError,
    UnknownBlobError,
    UpdateAbortedError,
    VersionNotPublishedError,
)

#: The package version; ``pyproject.toml`` reads it from here.
__version__ = "0.2.0"

# The library never configures logging for the application: modules log
# under ``repro.*`` and the root of the hierarchy swallows records until
# the application attaches its own handlers.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

__all__ = [
    "AsyncBlobStore",
    "Blob",
    "BlobStore",
    "CacheStats",
    "Cluster",
    "NodeCache",
    "PageCache",
    "shared_node_cache",
    "shared_page_cache",
    "BlobSeerConfig",
    "HealthStats",
    "ProviderHealth",
    "RepairReport",
    "RepairService",
    "RepairStats",
    "RetryPolicy",
    "LeaseCache",
    "VMStats",
    "SimConfig",
    "GRID5000_PROFILE",
    "KiB",
    "MiB",
    "GiB",
    "BlobSeerError",
    "ConfigurationError",
    "InvalidRangeError",
    "StoreClosedError",
    "UnknownBlobError",
    "UpdateAbortedError",
    "VersionNotPublishedError",
    "__version__",
]
