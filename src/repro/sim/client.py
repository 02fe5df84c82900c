"""Simulated BlobSeer clients.

A :class:`SimClient` is one client slot of the simulated testbed: the
shipped engine (:class:`~repro.core.async_store.AsyncBlobStore`) over its
machine's caches and leases, run on a :class:`~repro.sim.runtime.SimRuntime`.
APPEND (Algorithm 2) is ``append_ex`` and READ (Algorithms 1 and 3) is
``read_ex`` on the virtual clock: every page transfer, metadata round trip
and version-manager call is charged to the simulated network, while the
state changes run through the same real components as everywhere else.
The simulator holds no copy of either protocol.
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from collections.abc import Generator

from ..core.async_store import AsyncBlobStore, ReadStats, WriteResult
from ..obs.trace import Span, Tracer
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
    """Result of one simulated READ: the engine's own stats, the virtual
    time the read took, and the spans it recorded on the virtual clock."""

    stats: ReadStats
    elapsed: float
    #: Every span of this read in completion order, the root (``read``)
    #: last: the engine's ``read.vm`` / ``read.meta`` / ``read.data`` legs
    #: and their ``meta.*`` / ``dht.*`` / ``data.*`` children.
    spans: tuple[Span, ...]

    @property
    def bandwidth(self) -> float:
        """Achieved bandwidth in bytes/second."""
        return self.stats.bytes_read / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def meta_latency(self) -> float:
        """Virtual seconds of the metadata descent (the ``read.meta`` span):
        the cold-path latency speculative prefetch attacks."""
        return sum(item.duration for item in self.spans if item.name == "read.meta")

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits over all node lookups of this read's traversal."""
        stats = self.stats
        total = stats.metadata_cache_hits + stats.metadata_nodes_fetched
        return stats.metadata_cache_hits / total if total else 0.0

    @property
    def page_cache_hit_rate(self) -> float:
        """Page-cache hits over all page ranges this read needed."""
        stats = self.stats
        return stats.page_cache_hits / stats.pages_fetched if stats.pages_fetched else 0.0

    @property
    def speculative_hit_rate(self) -> float:
        """Consumed speculative fetches over all speculative fetches."""
        stats = self.stats
        predicted = stats.speculative_hits + stats.speculative_wasted
        return stats.speculative_hits / predicted if predicted else 0.0


class SimClient:
    """One simulated client process slot."""

    def __init__(self, deployment: SimDeployment, index: int = 0):
        self._dep = deployment
        self.index = index
        self.node = deployment.client_node(index)
        # The machine-wide caches and version leases (the page cache and the
        # leases are None when the config disables them): co-located clients
        # share them, and they survive reset_timing (client state, not NIC
        # state).
        page_cache = deployment.page_cache_for(self.node)
        version_lease = deployment.version_lease_for(self.node)
        # The shipped engine over this machine's caches, on virtual time.
        self._store = AsyncBlobStore(
            deployment.cluster,
            node_cache=deployment.node_cache_for(self.node),
            cache_pages=page_cache is not None,
            page_cache=page_cache,
            lease_versions=version_lease is not None,
            version_leases=version_lease,
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
    @types.coroutine
    def read_process(
        self, blob_id: str, version: int, offset: int, size: int
    ) -> Generator[Event, object, ReadOutcome]:
        """Simulate one READ (Algorithms 1 and 3): the engine's ``read_ex``
        on this client's virtual-time store, under the root span of a
        per-read tracer on the virtual clock.  The payload (zeros) is
        dropped; the outcome keeps the stats and the spans."""
        sim = self._dep.simulator
        tracer = Tracer(clock=lambda: sim.now)
        start = sim.now
        with tracer.trace(
            "read", blob_id=blob_id, version=version, offset=offset, size=size,
            client=self.index,
        ):
            _data, stats = yield from self._store.read_ex(blob_id, version, offset, size)
        return ReadOutcome(stats, sim.now - start, tuple(tracer.spans()))
