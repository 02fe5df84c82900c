"""Reusable simulated experiments behind the paper's figures.

* :func:`run_append_growth_experiment` — Figure 2(a): a single client keeps
  appending to a growing blob; the per-append bandwidth is reported against
  the number of pages the blob holds.
* :func:`run_read_concurrency_experiment` — Figure 2(b): a blob is grown
  first, then 1 / N / M concurrent readers each read a distinct chunk and
  the average per-reader bandwidth is reported.

Both functions return plain dataclasses so that the benchmark harness, the
pytest-benchmark targets and the examples can share them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MiB, SimConfig
from .client import SimClient
from .deployment import SimDeployment


@dataclass(frozen=True)
class AppendSample:
    """One point of the Figure 2(a) curve."""

    pages_total: int
    page_size: int
    num_providers: int
    bandwidth_mbps: float
    elapsed: float
    metadata_nodes_written: int
    border_nodes_fetched: int
    #: Batched round trips of this append: one multi-page store per provider
    #: touched, and one metadata trip per border frontier + publish.
    data_round_trips: int = 0
    metadata_round_trips: int = 0
    #: ``WriteResult.vm_round_trips``: the group-committed ticket request and
    #: the one-way completion notice, plus the record and recency lookups
    #: the machine's version lease missed — 4 on a client's first append, 2
    #: after.  Each lease miss is one charged RPC to the VM node.
    vm_round_trips: int = 0


@dataclass(frozen=True)
class ReadConcurrencySample:
    """One point of the Figure 2(b) curve.

    The ``avg_*`` fields describe the *cold* pass (empty client caches);
    the ``warm_*`` fields, filled when the experiment runs with
    ``measure_warm=True``, describe an identical second pass that reuses
    the clients' now-warm metadata caches — the repeated-read regime where
    traversals skip the DHT entirely.
    """

    readers: int
    page_size: int
    num_providers: int
    avg_bandwidth_mbps: float
    min_bandwidth_mbps: float
    aggregate_bandwidth_mbps: float
    avg_metadata_nodes_fetched: float
    #: Batched round trips per READ, averaged over the readers: one
    #: multi-page fetch per provider touched / one metadata trip per
    #: frontier of the tree traversal.
    avg_data_round_trips: float = 0.0
    avg_metadata_round_trips: float = 0.0
    #: Version-manager round trips per READ (2 cold — the blob record and
    #: the combined publication check, each a charged RPC — and 0 once the
    #: machine's version lease holds both facts).
    avg_vm_round_trips: float = 0.0
    #: Metadata cache hit rate of the cold pass (~0 on a cold start).
    avg_cache_hit_rate: float = 0.0
    #: Page cache hit rate of the cold pass (~0 on a cold start).
    avg_page_cache_hit_rate: float = 0.0
    #: Simulated seconds the cold pass spent in its metadata descent,
    #: averaged over the readers — the serialized cold-path latency that
    #: speculative frontier prefetch attacks (DESIGN.md §9).
    avg_meta_latency: float = 0.0
    #: Speculatively fetched tree nodes the cold traversals consumed /
    #: never consumed, averaged per read (0 with ``speculative_prefetch``
    #: off).  Hits still count in ``avg_metadata_nodes_fetched``; wasted
    #: nodes are pure over-fetch and count nowhere else.
    avg_speculative_hits: float = 0.0
    avg_speculative_wasted: float = 0.0
    #: Consumed speculative fetches over ALL speculative fetches of the
    #: cold pass (aggregated over the readers, not a mean of ratios).
    speculative_hit_rate: float = 0.0
    #: Warm repeated-read pass (zeros unless ``measure_warm=True``).
    warm_avg_bandwidth_mbps: float = 0.0
    warm_avg_metadata_nodes_fetched: float = 0.0
    warm_avg_metadata_round_trips: float = 0.0
    #: Batched data round trips of the warm pass — 0 when every page range
    #: is served by the machine's page cache (warm reads skip the
    #: providers entirely).
    warm_avg_data_round_trips: float = 0.0
    warm_avg_vm_round_trips: float = 0.0
    warm_avg_cache_hit_rate: float = 0.0
    warm_avg_page_cache_hit_rate: float = 0.0


@dataclass(frozen=True)
class MixedWorkloadSample:
    """One point of the mixed readers + appenders experiment."""

    readers: int
    writers: int
    page_size: int
    num_providers: int
    avg_read_bandwidth_mbps: float
    avg_append_bandwidth_mbps: float
    versions_published: int


def run_append_growth_experiment(
    num_provider_nodes: int,
    page_size: int,
    append_bytes: int,
    num_appends: int,
    sim_config: SimConfig | None = None,
    co_deploy_metadata: bool = True,
) -> list[AppendSample]:
    """Single-client append throughput while the blob grows (Figure 2(a)).

    A fresh deployment is built, one client appends ``append_bytes`` per
    APPEND, ``num_appends`` times; every append produces one sample.
    """
    deployment = SimDeployment(
        num_provider_nodes=num_provider_nodes,
        page_size=page_size,
        sim_config=sim_config,
        co_deploy_metadata=co_deploy_metadata,
    )
    blob_id = deployment.create_blob()
    client = SimClient(deployment, 0)
    samples: list[AppendSample] = []
    pages_total = 0
    for _ in range(num_appends):
        outcome = deployment.simulator.run_process(
            client.append_process(blob_id, append_bytes)
        )
        result = outcome.result
        pages_total += result.pages_written
        samples.append(
            AppendSample(
                pages_total=pages_total,
                page_size=page_size,
                num_providers=num_provider_nodes,
                bandwidth_mbps=outcome.bandwidth / MiB,
                elapsed=outcome.elapsed,
                metadata_nodes_written=result.metadata_nodes_written,
                border_nodes_fetched=result.border_nodes_fetched,
                data_round_trips=result.data_round_trips,
                metadata_round_trips=result.metadata_round_trips,
                vm_round_trips=result.vm_round_trips,
            )
        )
    return samples


def run_read_concurrency_experiment(
    num_provider_nodes: int,
    page_size: int,
    blob_bytes: int,
    chunk_bytes: int,
    reader_counts: list[int],
    sim_config: SimConfig | None = None,
    co_locate_clients: bool = True,
    populate_append_bytes: int | None = None,
    measure_warm: bool = False,
    page_replication: int = 1,
    metadata_replication: int = 1,
    speculative_prefetch: bool = False,
) -> list[ReadConcurrencySample]:
    """Concurrent-reader throughput on disjoint chunks (Figure 2(b)).

    The blob is grown (untimed) to ``blob_bytes``; then for each entry of
    ``reader_counts`` that many clients simultaneously read disjoint
    ``chunk_bytes`` ranges and the per-reader bandwidth is averaged.  The
    blob must be large enough for the largest reader count
    (``max(reader_counts) * chunk_bytes <= blob_bytes``).

    Client metadata caches are cleared before each reader count, so the
    primary pass is always cold.  With ``measure_warm=True`` the same
    readers immediately re-read the same ranges on fresh NICs but warm
    caches, filling the sample's ``warm_*`` fields — the repeated-read
    regime where metadata traversals skip the DHT entirely.

    The replication and cold-path knobs (``page_replication``,
    ``metadata_replication``, ``speculative_prefetch``) pass straight
    through to the :class:`SimDeployment`'s
    :class:`~repro.config.BlobSeerConfig`; the defaults reproduce the single-home, non-speculative model exactly.
    """
    if max(reader_counts) * chunk_bytes > blob_bytes:
        raise ValueError(
            "blob is too small for the requested reader count and chunk size"
        )
    deployment = SimDeployment(
        num_provider_nodes=num_provider_nodes,
        page_size=page_size,
        sim_config=sim_config,
        co_locate_clients=co_locate_clients,
        page_replication=page_replication,
        metadata_replication=metadata_replication,
        speculative_prefetch=speculative_prefetch,
    )
    blob_id = deployment.create_blob()
    version = deployment.populate_blob(
        blob_id, blob_bytes, append_bytes=populate_append_bytes
    )

    def run_pass(readers: int):
        deployment.reset_timing()
        simulator = deployment.simulator
        processes = []
        for index in range(readers):
            client = SimClient(deployment, index)
            processes.append(
                simulator.process(
                    client.read_process(
                        blob_id, version, index * chunk_bytes, chunk_bytes
                    )
                )
            )
        simulator.run()
        outcomes = [process.event.value for process in processes]
        if any(outcome is None for outcome in outcomes):
            raise RuntimeError("a simulated reader did not finish")
        return outcomes

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values)

    def _ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    samples: list[ReadConcurrencySample] = []
    for readers in reader_counts:
        deployment.clear_node_caches()  # a cold start for every data point
        outcomes = run_pass(readers)
        warm = run_pass(readers) if measure_warm else []
        bandwidths = [outcome.bandwidth / MiB for outcome in outcomes]
        total_elapsed = max(outcome.elapsed for outcome in outcomes)
        total_bytes = sum(outcome.stats.bytes_read for outcome in outcomes)
        aggregate = total_bytes / total_elapsed / MiB
        samples.append(
            ReadConcurrencySample(
                readers=readers,
                page_size=page_size,
                num_providers=num_provider_nodes,
                avg_bandwidth_mbps=mean(bandwidths),
                min_bandwidth_mbps=min(bandwidths),
                aggregate_bandwidth_mbps=aggregate,
                avg_metadata_nodes_fetched=mean(
                    outcome.stats.metadata_nodes_fetched for outcome in outcomes
                ),
                avg_data_round_trips=mean(
                    outcome.stats.data_round_trips for outcome in outcomes
                ),
                avg_metadata_round_trips=mean(
                    outcome.stats.metadata_round_trips for outcome in outcomes
                ),
                avg_vm_round_trips=mean(
                    outcome.stats.vm_round_trips for outcome in outcomes
                ),
                avg_cache_hit_rate=mean(
                    outcome.cache_hit_rate for outcome in outcomes
                ),
                avg_page_cache_hit_rate=mean(
                    outcome.page_cache_hit_rate for outcome in outcomes
                ),
                avg_meta_latency=mean(
                    outcome.meta_latency for outcome in outcomes
                ),
                avg_speculative_hits=mean(
                    outcome.stats.speculative_hits for outcome in outcomes
                ),
                avg_speculative_wasted=mean(
                    outcome.stats.speculative_wasted for outcome in outcomes
                ),
                speculative_hit_rate=_ratio(
                    sum(outcome.stats.speculative_hits for outcome in outcomes),
                    sum(
                        outcome.stats.speculative_hits + outcome.stats.speculative_wasted
                        for outcome in outcomes
                    ),
                ),
                warm_avg_bandwidth_mbps=(
                    mean(outcome.bandwidth / MiB for outcome in warm)
                    if warm
                    else 0.0
                ),
                warm_avg_metadata_nodes_fetched=(
                    mean(outcome.stats.metadata_nodes_fetched for outcome in warm)
                    if warm
                    else 0.0
                ),
                warm_avg_metadata_round_trips=(
                    mean(outcome.stats.metadata_round_trips for outcome in warm)
                    if warm
                    else 0.0
                ),
                warm_avg_data_round_trips=(
                    mean(outcome.stats.data_round_trips for outcome in warm)
                    if warm
                    else 0.0
                ),
                warm_avg_vm_round_trips=(
                    mean(outcome.stats.vm_round_trips for outcome in warm)
                    if warm
                    else 0.0
                ),
                warm_avg_cache_hit_rate=(
                    mean(outcome.cache_hit_rate for outcome in warm)
                    if warm
                    else 0.0
                ),
                warm_avg_page_cache_hit_rate=(
                    mean(outcome.page_cache_hit_rate for outcome in warm)
                    if warm
                    else 0.0
                ),
            )
        )
    return samples


def run_mixed_workload_experiment(
    num_provider_nodes: int,
    page_size: int,
    blob_bytes: int,
    chunk_bytes: int,
    readers: int,
    writer_counts: list[int],
    append_bytes: int,
    appends_per_writer: int = 2,
    sim_config: SimConfig | None = None,
) -> list[MixedWorkloadSample]:
    """Concurrent readers and appenders on the same blob.

    The paper's closing section announces experiments "demonstrating the
    benefits of data and metadata distribution" under mixed load; this
    experiment quantifies the isolation argument of Section 4.3: because
    updates never modify existing pages or metadata, readers of a published
    snapshot should be almost unaffected by concurrent appenders (and vice
    versa), apart from fair sharing of the provider NICs.
    """
    samples: list[MixedWorkloadSample] = []
    for writers in writer_counts:
        deployment = SimDeployment(
            num_provider_nodes=num_provider_nodes,
            page_size=page_size,
            sim_config=sim_config,
            co_locate_clients=True,
        )
        blob_id = deployment.create_blob()
        version = deployment.populate_blob(blob_id, blob_bytes)
        simulator = deployment.simulator

        read_processes = []
        for index in range(readers):
            client = SimClient(deployment, index)
            read_processes.append(
                simulator.process(
                    client.read_process(
                        blob_id, version, index * chunk_bytes, chunk_bytes
                    )
                )
            )

        def writer(index: int):
            client = SimClient(deployment, readers + index)
            outcomes = []
            for _ in range(appends_per_writer):
                outcome = yield from client.append_process(blob_id, append_bytes)
                outcomes.append(outcome)
            return outcomes

        write_processes = [
            simulator.process(writer(index)) for index in range(writers)
        ]
        simulator.run()

        read_outcomes = [process.event.value for process in read_processes]
        append_outcomes = [
            outcome
            for process in write_processes
            for outcome in process.event.value
        ]
        read_bandwidths = [outcome.bandwidth / MiB for outcome in read_outcomes]
        append_bandwidths = [outcome.bandwidth / MiB for outcome in append_outcomes]
        samples.append(
            MixedWorkloadSample(
                readers=readers,
                writers=writers,
                page_size=page_size,
                num_providers=num_provider_nodes,
                avg_read_bandwidth_mbps=sum(read_bandwidths) / len(read_bandwidths),
                avg_append_bandwidth_mbps=(
                    sum(append_bandwidths) / len(append_bandwidths)
                    if append_bandwidths
                    else 0.0
                ),
                versions_published=deployment.version_manager.get_recent(blob_id)
                - version,
            )
        )
    return samples
