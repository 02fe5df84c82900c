"""FIG-2b — read throughput under concurrency (Figure 2(b)).

The paper's setup: a blob is grown to 64 GB (64 KB pages); then 1, 100 and
175 concurrent readers, co-deployed with the 173 data/metadata provider
nodes, each read a distinct 64 MB chunk; the average per-reader read
bandwidth is reported.  The paper measures 60 MB/s for a single reader
degrading gently to 49 MB/s for 175 concurrent readers (≈ 18 % drop).

Expected shape: the per-reader bandwidth must degrade only mildly as the
reader count approaches the provider count — far from a 1/N collapse —
because both data pages and metadata tree nodes are spread over all
providers.
"""

from __future__ import annotations

from ..config import GiB, KiB, MiB
from ..sim.experiments import run_read_concurrency_experiment
from .runner import ExperimentResult, check_scale

#: (providers, page_size, blob_bytes, chunk_bytes, reader_counts) per scale.
_PRESETS = {
    "small": (24, 64 * KiB, 512 * MiB, 8 * MiB, (1, 12, 24)),
    "default": (60, 64 * KiB, 2 * GiB, 16 * MiB, (1, 30, 60)),
    "paper": (173, 64 * KiB, 12 * GiB, 64 * MiB, (1, 100, 175)),
}

#: The cold-path treatment of DESIGN.md §9, on for the benchmark since PR 8:
#: pages live on 5 providers and metadata buckets on 3, and speculative
#: frontier prefetch overlaps the metadata descent's round trips.  Replica
#: ranking puts suspects last and has no locality signal, so on a healthy
#: deployment every read is served by the primaries.
_COLD_PATH = {
    "page_replication": 5,
    "metadata_replication": 3,
    "speculative_prefetch": True,
}


def run_fig2b(scale: str = "small") -> ExperimentResult:
    """Regenerate Figure 2(b) at the requested scale."""
    check_scale(scale)
    providers, page_size, blob_bytes, chunk_bytes, reader_counts = _PRESETS[scale]
    result = ExperimentResult(
        "FIG-2b",
        "Read throughput vs. number of concurrent readers "
        "(disjoint 64 MB-class chunks)",
    )
    samples = run_read_concurrency_experiment(
        num_provider_nodes=providers,
        page_size=page_size,
        blob_bytes=blob_bytes,
        chunk_bytes=chunk_bytes,
        reader_counts=list(reader_counts),
        co_locate_clients=True,
        measure_warm=True,
        **_COLD_PATH,
    )
    for sample in samples:
        result.add(
            readers=sample.readers,
            providers=providers,
            page_size_kib=page_size // KiB,
            chunk_mib=chunk_bytes // MiB,
            avg_bandwidth_mbps=sample.avg_bandwidth_mbps,
            min_bandwidth_mbps=sample.min_bandwidth_mbps,
            aggregate_mbps=sample.aggregate_bandwidth_mbps,
            meta_nodes_per_read=sample.avg_metadata_nodes_fetched,
            meta_trips_per_read=sample.avg_metadata_round_trips,
            data_trips_per_read=sample.avg_data_round_trips,
            vm_trips_per_read=sample.avg_vm_round_trips,
            cache_hit_rate=sample.avg_cache_hit_rate,
            page_cache_hit_rate=sample.avg_page_cache_hit_rate,
            cold_meta_latency=sample.avg_meta_latency * 1e3,
            speculative_hits=sample.avg_speculative_hits,
            speculative_wasted=sample.avg_speculative_wasted,
            speculative_hit_rate=sample.speculative_hit_rate,
            warm_avg_bandwidth_mbps=sample.warm_avg_bandwidth_mbps,
            warm_meta_nodes_per_read=sample.warm_avg_metadata_nodes_fetched,
            warm_meta_trips_per_read=sample.warm_avg_metadata_round_trips,
            warm_data_trips_per_read=sample.warm_avg_data_round_trips,
            warm_vm_trips_per_read=sample.warm_avg_vm_round_trips,
            warm_cache_hit_rate=sample.warm_avg_cache_hit_rate,
            warm_page_cache_hit_rate=sample.warm_avg_page_cache_hit_rate,
        )
    if scale != "paper":
        result.note(
            "blob and chunk sizes are scaled down from the paper's 64 GB / 64 MB; "
            "the reader-to-provider ratio (the contention driver) is preserved"
        )
    result.note("paper reference points: 60 MB/s at 1 reader, 49 MB/s at 175 readers")
    result.note(
        "warm_* columns: the same readers re-read the same ranges through the "
        "now-warm shared metadata cache — traversals skip the DHT entirely"
    )
    result.note(
        "warm_data_trips_per_read / page_cache_hit_rate: the machine's page "
        "cache serves every previously fetched page range, so warm repeated "
        "reads skip the data providers too (0 batched data trips, hit rate "
        "1.0 on the warm pass)"
    )
    result.note(
        "vm_trips_per_read: version-manager round trips — 2 cold (the blob "
        "record and the combined check_read, each one charged RPC to the VM "
        "node), 0 warm (the machine's version lease serves both)"
    )
    result.note(
        "cold-path columns (DESIGN.md §9): cold_meta_latency is the cold "
        "metadata descent in MILLISECONDS (speculative prefetch roughly "
        "halves it by overlapping two tree levels per round trip); "
        "speculative_hit_rate = consumed speculative fetches over all "
        "speculative fetches; benchmark config: page_replication=5, "
        "metadata_replication=3, speculative_prefetch on"
    )
    return result


def shape_checks(result: ExperimentResult) -> dict[str, bool]:
    """Machine-checkable qualitative shape of Figure 2(b)."""
    rows = sorted(result.rows, key=lambda row: row["readers"])
    if len(rows) < 2:
        return {"have_multiple_reader_counts": False}
    single = rows[0]["avg_bandwidth_mbps"]
    most = rows[-1]["avg_bandwidth_mbps"]
    readers = rows[-1]["readers"]
    checks = {
        # Degradation stays mild (the paper drops ~18 %; accept up to 45 %).
        "mild_degradation": most >= 0.55 * single,
        # Far better than a 1/N collapse of per-reader bandwidth.
        "not_collapsing": most >= 5.0 * (single / readers),
        # Aggregate bandwidth scales up with readers.
        "aggregate_scales": rows[-1]["aggregate_mbps"] > 0.5 * readers * most,
    }
    if all("warm_avg_bandwidth_mbps" in row for row in rows):
        # Warm repeated reads must traverse entirely from the shared cache:
        # fewer nodes from the DHT than the cold pass needed round trips
        # (i.e. <= tree depth; in practice ~0) and a never-slower read.
        checks["warm_reads_skip_metadata"] = all(
            row["warm_meta_nodes_per_read"] <= row["meta_trips_per_read"]
            for row in rows
        )
        checks["warm_reads_not_slower"] = all(
            row["warm_avg_bandwidth_mbps"] >= 0.999 * row["avg_bandwidth_mbps"]
            for row in rows
        )
        checks["warm_cache_serves_reads"] = all(
            row["warm_cache_hit_rate"] >= 0.9 for row in rows
        )
    if all("warm_data_trips_per_read" in row for row in rows):
        # Warm repeated reads must be served entirely from the machines'
        # page caches: zero batched provider trips, every page range a hit.
        checks["warm_reads_skip_providers"] = all(
            row["warm_data_trips_per_read"] == 0.0
            and row["warm_page_cache_hit_rate"] == 1.0
            for row in rows
        )
    if all("warm_vm_trips_per_read" in row for row in rows):
        # Warm repeated reads must not pay any version-manager round trip:
        # the machine's lease serves the record and the publication check.
        # Cold reads pay exactly those two lookups.
        checks["warm_reads_skip_version_manager"] = all(
            row["warm_vm_trips_per_read"] == 0.0 for row in rows
        )
        checks["cold_reads_pay_two_vm_trips"] = all(
            row["vm_trips_per_read"] == 2.0 for row in rows
        )
    if all("speculative_hits" in row for row in rows):
        # Speculative prefetch must earn its keep at the benchmark geometry:
        # the over-fetch (wasted predictions) stays well under the useful
        # work — less than 2x the consumed predictions — and most
        # predictions are consumed.
        checks["speculation_overfetch_bounded"] = all(
            row["speculative_wasted"] < 2.0 * row["speculative_hits"]
            for row in rows
        )
        checks["speculation_mostly_useful"] = all(
            row["speculative_hit_rate"] >= 0.5 for row in rows
        )
    return checks
