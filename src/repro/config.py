"""Configuration objects for BlobSeer deployments and simulations.

Two dataclasses are exposed:

* :class:`BlobSeerConfig` — parameters of a storage deployment (page size,
  number of providers, allocation strategy, replication, timeouts).
* :class:`SimConfig` — parameters of the simulated Grid'5000-like testbed
  used by the benchmark harness (NIC bandwidth, latency, per-request
  overheads), mirroring the figures reported in Section 5 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError

#: Kibibyte / mebibyte / gibibyte helpers used throughout the code base.
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

#: Default page size used by the paper's experiments (64 KiB).
DEFAULT_PAGE_SIZE = 64 * KiB

#: Defaults of the client-side metadata node cache (see :mod:`repro.cache`).
#: Tree nodes are immutable, so the cache never invalidates; the budgets only
#: bound memory.  128Ki entries ≈ the full tree of a 64 Ki-page blob; 64 MiB
#: comfortably holds that at the ~150-byte estimated per-entry footprint.
DEFAULT_METADATA_CACHE_ENTRIES = 128 * 1024
DEFAULT_METADATA_CACHE_BYTES = 64 * MiB
DEFAULT_METADATA_CACHE_SHARDS = 8

#: Defaults of the client-side page payload cache (see
#: :mod:`repro.cache.page_cache`).  Published pages are immutable, so the
#: cache never invalidates (except for GC); the byte budget is the knob that
#: bounds client memory because payload bytes dominate each entry's weight.
DEFAULT_PAGE_CACHE_ENTRIES = 64 * 1024
DEFAULT_PAGE_CACHE_BYTES = 256 * MiB
DEFAULT_PAGE_CACHE_SHARDS = 8

#: Feature knobs of :class:`BlobSeerConfig`: boolean fields that gate an
#: optional behaviour which must be a provable no-op when off (the
#: perf-gate's ``--exact-columns`` pins that guarantee).  Reading one of
#: these fields directly outside this module is a lint violation
#: (``RPR004 ungated-feature-knob``); every read goes through
#: :meth:`BlobSeerConfig.feature_enabled` so the gates stay auditable.
FEATURE_KNOBS: tuple[str, ...] = (
    "speculative_prefetch",
    "tracing",
)

#: Defaults of the client-side version-lease cache (see :mod:`repro.vm`).
#: Publish notifications keep leases coherent in-process; the TTL bounds
#: staleness when a notification is lost, and the entry budget bounds the
#: per-client memory for leases and immutable VM facts (records, sizes).
DEFAULT_VM_LEASE_TTL = 5.0
DEFAULT_VM_LEASE_ENTRIES = 4096


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def is_power_of_two(value: int) -> bool:
    """Return True when *value* is a strictly positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class BlobSeerConfig:
    """Static configuration of a BlobSeer deployment.

    Parameters
    ----------
    page_size:
        Size of a page in bytes.  Must be a power of two (the segment tree
        relies on halving ranges exactly).
    num_data_providers:
        Number of data provider processes in the deployment.
    num_metadata_providers:
        Number of DHT buckets / metadata provider processes.
    metadata_replication:
        Number of DHT buckets each metadata node is stored on.  Reads fall
        through dead buckets to the next replica (see
        :meth:`repro.dht.DHT.multi_get`), so a deployment survives up to
        ``metadata_replication - 1`` simultaneous bucket failures.
        Failover is the only failure path (DESIGN.md §4): a failed batch's
        requests move to their next replica, suspects last, in the next
        wave; nothing sleeps and retries in place, and with one replica
        the error surfaces at once.
    page_replication:
        Number of distinct data providers each page is stored on.  Reads
        fail over to the next live replica when a provider is dead, as
        metadata reads do (reported via
        ``ReadStats.failovers``/``degraded``), and the
        background :class:`repro.fault.RepairService` re-replicates pages
        that lost copies.  ``1`` (the default) reproduces the paper's
        single-home layout bit-identically on the wire.
    allocation_strategy:
        Name of the page-to-provider allocation strategy registered with the
        provider manager (``"round_robin"``, ``"random"``, ``"least_loaded"``).
    dht_strategy:
        Key distribution scheme of the metadata DHT: ``"static"`` (modulo
        hashing, as in the paper's custom DHT) or ``"consistent"`` (hash
        ring).
    update_timeout:
        Seconds after which the version manager may abort an in-flight update
        that never completed.  ``None`` (the default, paper behaviour)
        disables it.  The reap is not a timer: it runs only inside the
        blob's next registration, so a blob whose stuck writer has no later
        writer stays wedged (DESIGN.md §6).
    verify_checksums:
        When True, page payloads are checksummed on write and verified on
        full-page reads.  When False (the default) no checksum is computed
        at all.
    encode_metadata:
        When True, metadata tree nodes are serialized to their wire format
        (see :mod:`repro.metadata.serialization`) before being stored in the
        DHT, as a networked deployment would ship them.
    metadata_cache_entries / metadata_cache_bytes / metadata_cache_shards:
        Budgets of the client-side LRU cache for immutable metadata tree
        nodes (:class:`repro.cache.NodeCache`).  A cluster whose knobs equal
        the process defaults joins the process-wide shared cache
        (:func:`repro.cache.shared_node_cache`); custom budgets give the
        cluster a dedicated instance.
    page_cache_entries / page_cache_bytes / page_cache_shards:
        Budgets of the client-side LRU cache for immutable page payload
        ranges (:class:`repro.cache.PageCache`).  Stored pages are never
        overwritten, so warm repeated reads are served from memory and skip
        the data providers entirely.  A cluster whose knobs equal the
        process defaults joins the process-wide shared cache
        (:func:`repro.cache.shared_page_cache`); custom budgets give the
        cluster a dedicated instance.  ``page_cache_entries=None`` disables
        page caching for the whole deployment.
    vm_lease_ttl / vm_lease_entries:
        Budgets of the client-side version-lease cache
        (:class:`repro.vm.LeaseCache`): leased ``GET_RECENT`` answers are
        renewed by publish notifications and expire after ``vm_lease_ttl``
        seconds; ``vm_lease_entries`` bounds both the lease map and the
        immutable-fact map (blob records, published snapshot sizes).
        ``vm_lease_ttl=None`` disables version leasing for the whole
        deployment (every read pays its version-manager round trips).
    speculative_prefetch:
        When True, the pipelined metadata descent predicts the child spans
        of a missed frontier node from the requested byte range's geometry
        and issues their DHT multi-get *before* the authoritative parent
        returns (DESIGN.md §9).  Speculation never changes the bytes read
        or the authoritative counters; over-fetch is reported via
        ``ReadStats.speculative_wasted``.  Off by default — the sync
        level-by-level walk ignores the knob, and async==sync counter
        equality is only guaranteed with it off.
    tracing:
        When True, the cluster creates a :class:`repro.obs.Tracer` and
        registers its components as pull sources of the process-wide
        :class:`repro.obs.MetricsRegistry`; every store operation then
        opens a root span whose children cover the version-manager,
        metadata and data legs (DESIGN.md §11).  Off by default — the
        disabled path records nothing, registers nothing, and leaves
        every counter and timing bit-identical.
    """

    page_size: int = DEFAULT_PAGE_SIZE
    num_data_providers: int = 16
    num_metadata_providers: int = 16
    metadata_replication: int = 1
    page_replication: int = 1
    allocation_strategy: str = "round_robin"
    dht_strategy: str = "static"
    update_timeout: float | None = None
    verify_checksums: bool = False
    encode_metadata: bool = False
    metadata_cache_entries: int = DEFAULT_METADATA_CACHE_ENTRIES
    metadata_cache_bytes: int = DEFAULT_METADATA_CACHE_BYTES
    metadata_cache_shards: int = DEFAULT_METADATA_CACHE_SHARDS
    page_cache_entries: int | None = DEFAULT_PAGE_CACHE_ENTRIES
    page_cache_bytes: int = DEFAULT_PAGE_CACHE_BYTES
    page_cache_shards: int = DEFAULT_PAGE_CACHE_SHARDS
    vm_lease_ttl: float | None = DEFAULT_VM_LEASE_TTL
    vm_lease_entries: int = DEFAULT_VM_LEASE_ENTRIES
    speculative_prefetch: bool = False
    tracing: bool = False

    def __post_init__(self) -> None:
        _require(is_power_of_two(self.page_size),
                 f"page_size must be a power of two, got {self.page_size}")
        _require(self.num_data_providers >= 1,
                 "num_data_providers must be >= 1")
        _require(self.num_metadata_providers >= 1,
                 "num_metadata_providers must be >= 1")
        _require(1 <= self.metadata_replication <= self.num_metadata_providers,
                 "metadata_replication must be between 1 and "
                 "num_metadata_providers")
        _require(1 <= self.page_replication <= self.num_data_providers,
                 "page_replication must be between 1 and num_data_providers")
        _require(self.allocation_strategy in
                 ("round_robin", "random", "least_loaded"),
                 f"unknown allocation strategy {self.allocation_strategy!r}")
        _require(self.dht_strategy in ("static", "consistent"),
                 f"unknown dht strategy {self.dht_strategy!r}")
        if self.update_timeout is not None:
            _require(self.update_timeout > 0, "update_timeout must be > 0")
        _require(self.metadata_cache_entries >= 1,
                 "metadata_cache_entries must be >= 1")
        _require(self.metadata_cache_bytes >= 1,
                 "metadata_cache_bytes must be >= 1")
        _require(self.metadata_cache_shards >= 1,
                 "metadata_cache_shards must be >= 1")
        if self.page_cache_entries is not None:
            _require(self.page_cache_entries >= 1,
                     "page_cache_entries must be >= 1 (None disables "
                     "page caching)")
        _require(self.page_cache_bytes >= 1,
                 "page_cache_bytes must be >= 1")
        _require(self.page_cache_shards >= 1,
                 "page_cache_shards must be >= 1")
        if self.vm_lease_ttl is not None:
            _require(self.vm_lease_ttl > 0,
                     "vm_lease_ttl must be > 0 (None disables leasing)")
        _require(self.vm_lease_entries >= 1,
                 "vm_lease_entries must be >= 1")

    def feature_enabled(self, knob: str) -> bool:
        """The single chokepoint for reading a feature knob.

        Every optional behaviour (:data:`FEATURE_KNOBS`) must be a provable
        no-op when its knob is off; funnelling reads through this helper is
        what lets the lint pass (``RPR004``) enforce that no code path
        consults a knob outside its gate.  Unknown names raise — a typo'd
        gate must fail loudly, not silently disable a feature.
        """
        if knob not in FEATURE_KNOBS:
            raise ConfigurationError(
                f"unknown feature knob {knob!r}; expected one of {FEATURE_KNOBS}"
            )
        return bool(getattr(self, knob))

    @property
    def uses_default_cache_budgets(self) -> bool:
        """True when the cache knobs equal the process-wide defaults."""
        return (
            self.metadata_cache_entries == DEFAULT_METADATA_CACHE_ENTRIES
            and self.metadata_cache_bytes == DEFAULT_METADATA_CACHE_BYTES
            and self.metadata_cache_shards == DEFAULT_METADATA_CACHE_SHARDS
        )

    @property
    def uses_default_page_cache_budgets(self) -> bool:
        """True when the page-cache knobs equal the process-wide defaults."""
        return (
            self.page_cache_entries == DEFAULT_PAGE_CACHE_ENTRIES
            and self.page_cache_bytes == DEFAULT_PAGE_CACHE_BYTES
            and self.page_cache_shards == DEFAULT_PAGE_CACHE_SHARDS
        )


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the simulated testbed (Grid'5000 Rennes, Section 5).

    The paper reports 1 Gbit/s intra-cluster links with a measured TCP
    throughput of 117.5 MB/s and a latency of 0.1 ms.  Per-request overheads
    model the fixed cost of an RPC (connection reuse, marshalling) beyond the
    raw link latency, and a small service time at the version manager models
    the serialization of version assignment (paper Section 4.3).
    """

    #: Payload bandwidth of a node's NIC in bytes/second (measured TCP).
    nic_bandwidth: float = 117.5 * MiB
    #: Local memory-copy bandwidth in bytes/second: what serving a page
    #: range from the machine's own page cache costs instead of the NIC.
    #: Fully warm reads are bounded by this, not the network — set
    #: conservatively to a 2009-era single-stream memcpy.
    memory_bandwidth: float = 2 * GiB
    #: One-way network latency in seconds.
    latency: float = 0.1e-3
    #: Fixed per-request software overhead charged at the data path endpoints
    #: (TCP request/response handling, marshalling) in seconds.
    rpc_overhead: float = 0.15e-3
    #: Per-message overhead of the (small, pipelined) metadata/DHT messages.
    metadata_rpc_overhead: float = 0.02e-3
    #: Serialized service time of one version-manager request, in seconds.
    version_manager_service_time: float = 0.02e-3
    #: Serialized service time of one DHT get/put at a metadata provider.
    metadata_service_time: float = 0.01e-3
    #: Bytes of an encoded metadata tree node travelling over the network.
    metadata_node_size: int = 128
    #: Per-page service time at a data provider (buffer handling, disk cache).
    page_service_time: float = 0.03e-3
    #: Per-page marshalling cost at the endpoint that serializes the payload
    #: of a *batched* multi-page request (framing, per-page checksum,
    #: descriptor bookkeeping).  Batching amortizes ``rpc_overhead`` across
    #: a batch but cannot remove this per-page share of the work, which is
    #: what keeps larger pages faster (Figure 2(a)) even with batching.
    page_marshalling_time: float = 0.08e-3

    def __post_init__(self) -> None:
        _require(self.nic_bandwidth > 0, "nic_bandwidth must be > 0")
        _require(self.memory_bandwidth > 0, "memory_bandwidth must be > 0")
        _require(self.latency >= 0, "latency must be >= 0")
        _require(self.rpc_overhead >= 0, "rpc_overhead must be >= 0")
        _require(self.metadata_rpc_overhead >= 0,
                 "metadata_rpc_overhead must be >= 0")
        _require(self.version_manager_service_time >= 0,
                 "version_manager_service_time must be >= 0")
        _require(self.metadata_service_time >= 0,
                 "metadata_service_time must be >= 0")
        _require(self.metadata_node_size >= 0,
                 "metadata_node_size must be >= 0")
        _require(self.page_service_time >= 0, "page_service_time must be >= 0")
        _require(self.page_marshalling_time >= 0,
                 "page_marshalling_time must be >= 0")


#: Simulation profile matching the paper's measured testbed numbers.
GRID5000_PROFILE = SimConfig()


@dataclass(frozen=True)
class DeploymentPlan:
    """How many nodes play each role in a (simulated) deployment.

    The paper co-deploys a data provider and a metadata provider on every
    non-dedicated node, and dedicates one node to the version manager and one
    to the provider manager.
    """

    num_provider_nodes: int = 173
    clients: int = 1
    co_deploy_metadata: bool = True

    def __post_init__(self) -> None:
        _require(self.num_provider_nodes >= 1,
                 "num_provider_nodes must be >= 1")
        _require(self.clients >= 1, "clients must be >= 1")

    @property
    def num_data_providers(self) -> int:
        return self.num_provider_nodes

    @property
    def num_metadata_providers(self) -> int:
        return self.num_provider_nodes if self.co_deploy_metadata else 1
