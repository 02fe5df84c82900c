"""Network model: nodes with full-duplex NICs, latency and request overheads.

The model follows the paper's measured testbed (Section 5): intra-cluster
1 Gbit/s Ethernet with 117.5 MB/s of usable TCP bandwidth and 0.1 ms
latency.  Each node has an outgoing (``tx``) and an incoming (``rx``) NIC
pipe; payload serialization occupies the sender's ``tx`` and the receiver's
``rx`` in a store-and-forward fashion, and every request additionally costs
a fixed software overhead at the serving endpoint.  Because pipes are FIFO,
concurrent clients hammering the same provider queue up exactly as the
paper describes ("data access serialization is only necessary when the same
provider is contacted at the same time by different clients").
"""

from __future__ import annotations

from collections.abc import Generator

from ..config import SimConfig
from .engine import Event, Pipe, Simulator


class SimNode:
    """One physical machine of the simulated testbed."""

    def __init__(self, sim: Simulator, name: str):
        self.name = name
        self.tx = Pipe(sim, f"{name}.tx")
        self.rx = Pipe(sim, f"{name}.rx")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimNode({self.name!r})"


class Network:
    """Timed data movement between :class:`SimNode` instances.

    All public methods are *generators of events* meant to be composed with
    ``yield from`` inside a process, or spawned with ``sim.process(...)`` to
    run concurrently.
    """

    def __init__(self, sim: Simulator, config: SimConfig):
        self._sim = sim
        self._config = config
        self.bytes_moved = 0

    # -- primitives ----------------------------------------------------------
    def push(
        self,
        src: SimNode,
        dst: SimNode,
        nbytes: int,
        service_time: float = 0.0,
    ) -> Generator[Event, object, None]:
        """Send ``nbytes`` from ``src`` to ``dst`` (e.g. storing a page).

        Charges the per-request overhead and payload serialization on the
        sender's ``tx``, the one-way latency, then payload serialization plus
        ``service_time`` on the receiver's ``rx``.
        """
        config = self._config
        serialization = nbytes / config.nic_bandwidth
        self.bytes_moved += nbytes
        yield src.tx.use(config.rpc_overhead + serialization)
        yield self._sim.timeout(config.latency)
        yield dst.rx.use(serialization + service_time)

    def fetch(
        self,
        requester: SimNode,
        server: SimNode,
        nbytes: int,
        service_time: float = 0.0,
        request_overhead: float | None = None,
    ) -> Generator[Event, object, None]:
        """Request ``nbytes`` from ``server`` (e.g. reading a page or a
        metadata node).

        The request costs a small send at the requester, one-way latency,
        ``service_time`` plus payload serialization at the server's ``tx``,
        latency back, and payload serialization at the requester's ``rx``.
        Callers fold any fixed per-request software cost into
        ``service_time`` (large for page requests, small for DHT lookups).
        """
        config = self._config
        if request_overhead is None:
            request_overhead = config.metadata_rpc_overhead
        serialization = nbytes / config.nic_bandwidth
        self.bytes_moved += nbytes
        yield requester.tx.use(request_overhead)
        yield self._sim.timeout(config.latency)
        yield server.tx.use(service_time + serialization)
        yield self._sim.timeout(config.latency)
        yield requester.rx.use(serialization)

    def multi_push(
        self,
        src: SimNode,
        dst: SimNode,
        nbytes: int,
        count: int,
        item_service_time: float = 0.0,
        batch_overhead: float | None = None,
    ) -> Generator[Event, object, None]:
        """Send a batch of ``count`` items totalling ``nbytes`` as ONE
        request (e.g. storing all pages an update places on one provider).

        The round-trip saving of batching: the sender pays one small request
        framing (``metadata_rpc_overhead``) per batch and the serving
        provider pays ``batch_overhead`` — its fixed per-request software
        cost, default ``rpc_overhead`` — once per batch instead of once per
        item.  The payload itself is *streamed*: each item occupies the
        sender's ``tx`` for its marshalling plus serialization share and is
        then delivered — its ``rx`` occupancy overlapping the next item's
        ``tx`` — so batches pipeline through the NICs exactly like the
        individual transfers they replace, and concurrent flows still
        interleave per item.
        """
        if count <= 0:
            return
        config = self._config
        if batch_overhead is None:
            batch_overhead = config.rpc_overhead
        item_serialization = nbytes / count / config.nic_bandwidth
        self.bytes_moved += nbytes
        yield src.tx.use(config.metadata_rpc_overhead)
        deliveries = []
        for index in range(count):
            yield src.tx.use(config.page_marshalling_time + item_serialization)
            service = item_service_time + (batch_overhead if index == 0 else 0.0)
            deliveries.append(
                self._sim.process(
                    self._deliver(dst.rx, item_serialization + service)
                )
            )
        yield self._sim.all_of([process.event for process in deliveries])

    def multi_fetch(
        self,
        requester: SimNode,
        server: SimNode,
        nbytes: int,
        count: int,
        item_service_time: float = 0.0,
        batch_overhead: float | None = None,
    ) -> Generator[Event, object, None]:
        """Request a batch of ``count`` items totalling ``nbytes`` with ONE
        exchange (e.g. fetching all pages of a READ held by one provider).

        Like :meth:`multi_push`, the fixed costs are per batch — one request
        framing at the requester, ``batch_overhead`` (the serving endpoint's
        fixed per-request software cost, default ``rpc_overhead``) once at
        the server — while each item still pays its marshalling, service and
        serialization share at the server's ``tx`` and streams into the
        requester's ``rx`` while the server serializes the next item.
        """
        if count <= 0:
            return
        config = self._config
        if batch_overhead is None:
            batch_overhead = config.rpc_overhead
        item_serialization = nbytes / count / config.nic_bandwidth
        self.bytes_moved += nbytes
        yield requester.tx.use(config.metadata_rpc_overhead)
        yield self._sim.timeout(config.latency)
        deliveries = []
        for index in range(count):
            service = (
                item_service_time
                + config.page_marshalling_time
                + (batch_overhead if index == 0 else 0.0)
            )
            yield server.tx.use(service + item_serialization)
            deliveries.append(
                self._sim.process(self._deliver(requester.rx, item_serialization))
            )
        yield self._sim.all_of([process.event for process in deliveries])

    def _deliver(self, pipe: Pipe, duration: float) -> Generator[Event, object, None]:
        """One streamed batch item: one-way latency, then pipe occupancy."""
        yield self._sim.timeout(self._config.latency)
        yield pipe.use(duration)

    def local_fetch(
        self,
        nbytes: int,
        count: int,
        item_service_time: float = 0.0,
    ) -> Generator[Event, object, None]:
        """Serve ``count`` items totalling ``nbytes`` from a provider (or
        DHT bucket) hosted on the REQUESTER'S OWN machine.

        The cache-aware replica routing of DESIGN.md §9 prefers a
        co-located replica: the payload never touches a NIC — it crosses
        the machine's memory bus at ``memory_bandwidth``, exactly like a
        page-cache hit — and only the serving process's per-item service
        time remains.  No NIC pipe is occupied, so local serving neither
        queues behind nor delays remote flows.
        """
        if count <= 0:
            return
        config = self._config
        yield self._sim.timeout(
            item_service_time * count + nbytes / config.memory_bandwidth
        )

    def small_rpc(
        self,
        src: SimNode,
        dst: SimNode,
        service_time: float,
        payload_bytes: int = 64,
    ) -> Generator[Event, object, None]:
        """A small request/response exchange (version-manager calls, DHT puts).

        The payload is tiny, so only the per-message overhead, the service
        time at the destination and two latencies matter.
        """
        config = self._config
        serialization = payload_bytes / config.nic_bandwidth
        self.bytes_moved += payload_bytes
        yield src.tx.use(config.metadata_rpc_overhead + serialization)
        yield self._sim.timeout(config.latency)
        yield dst.tx.use(service_time + serialization)
        yield self._sim.timeout(config.latency)

    def small_request(
        self,
        src: SimNode,
        dst: SimNode,
        payload_bytes: int = 64,
    ) -> Generator[Event, object, None]:
        """The request leg of a small exchange: framing at the sender plus
        one-way latency.  Used when the serving side is modelled separately
        (the version manager's group-commit ticket office charges its
        service time once per *batch*, not per request)."""
        config = self._config
        serialization = payload_bytes / config.nic_bandwidth
        self.bytes_moved += payload_bytes
        yield src.tx.use(config.metadata_rpc_overhead + serialization)
        yield self._sim.timeout(config.latency)

    def send_frame(
        self,
        src: SimNode,
        payload_bytes: int = 64,
    ) -> Generator[Event, object, None]:
        """The sender-side cost of a small ONE-WAY message: framing plus
        send serialization, no waiting.

        This is the pipelined-publication model: a writer streams its
        completion notice to the version manager and moves on — transit and
        the (batched) processing at the VM proceed behind its back, driven
        by the receiving office.
        """
        config = self._config
        serialization = payload_bytes / config.nic_bandwidth
        self.bytes_moved += payload_bytes
        yield src.tx.use(config.metadata_rpc_overhead + serialization)
