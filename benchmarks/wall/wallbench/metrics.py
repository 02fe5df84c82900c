"""How a run's rounds are reduced to the metrics ``BENCHMARK.json`` names.

The hosts this benchmark runs on are shared: for stretches of a fraction of
a second to minutes a neighbour makes everything 10-50 % slower, never
faster (measured with a fixed pure-Python loop: over nine consecutive 20 s
windows the median 40 ms slice moved by 40 %, the fastest slice by 3 %).  A
rate or a latency taken over a whole epoch follows the neighbour.  So every
timing is taken over **blocks** — a fixed number of consecutive ops, tens of
milliseconds of work — and reported at its *quiet* value: the best block
where all blocks do the same work, each block at the best of its replays
where they do not (:func:`quiet_ops_s`, :func:`quiet_p50_ms`).  The number
of blocks and of replays in a run is fixed by ``--seconds`` and the
workload, never by how fast the engine ran, so "the best of them" is the
same order statistic on both sides of a comparison.  What a quiet value
cannot show is a cost paid less often than once per block (a full garbage
collection, say); those are counted instead (``harness.gc_gen2_collections``,
``harness.epoch_spread``).  Per-layer *counts* are ratios of sums over all
measured epochs, so they repeat exactly.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path
from statistics import median

from .engine import MiB
from .workloads import EpochResult, RoundResult, Workload

LAYERS = ("core", "vm", "metadata", "dht", "providers", "cache")


def declared() -> dict:
    """``BENCHMARK.json``: the one place that names the workloads and the
    metrics, with their units, directions and bounds."""
    path = Path(__file__).resolve().parents[3] / "BENCHMARK.json"
    return json.loads(path.read_text(encoding="utf-8"))


def exact_names(spec: dict) -> set[str]:
    """Metrics that involve no clock: with the same seed they repeat exactly
    on the single-client workloads."""
    return {"space_amp"} | {
        entry["name"]
        for entry in spec["per_layer"]
        if entry["unit"] == "count" and not entry["name"].startswith("harness.")
        or entry["name"].endswith("_hit_rate")
        or entry["name"] in ("dht.max_bucket_share", "providers.load_imbalance",
                             "cache.page_resident_mb")
    }


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def blocks(samples: list, size: int):
    """Consecutive full blocks of ``size`` samples; all of a shorter list as
    one block (smoke sizes)."""
    if 0 < len(samples) < size:
        yield samples
    for first in range(0, len(samples) - size + 1, size):
        yield samples[first:first + size]


def block_seconds(epoch: EpochResult, size: int) -> list[float]:
    """How long each block of ``size`` consecutive completions took."""
    marks = [0.0, *epoch.main.marks]
    if len(marks) <= size:  # a smoke epoch may be one short block
        return [marks[-1]]
    return [
        marks[first + size] - marks[first]
        for first in range(0, len(marks) - size, size)
    ]


def quiet_ops_s(epochs: list[EpochResult], size: int, replays: bool):
    """``(ops/s, blocks)``.  Blocks of a workload whose ops are all alike do
    the same work, and the best one of the run is reported.  On a workload
    that replays one op list in every epoch, block ``i`` does the same work
    in each epoch but not the same as block ``j``: there every block counts,
    at the best time any epoch did it in."""
    per_epoch = [block_seconds(epoch, size) for epoch in epochs]
    count = sum(len(seconds) for seconds in per_epoch)
    ops = min(size, epochs[0].main.ops)
    if replays:
        return ops * len(per_epoch[0]) / sum(map(min, zip(*per_epoch))), count
    return ops / min(map(min, per_epoch)), count


def quiet_p50_ms(sequences: list[list[float]], size: int, replays: bool):
    """``(median latency in ms, samples it is the best of)`` of one kind of
    op; ``(0.0, 0)`` when the kind was never issued.  Alike ops: the median
    of the best block.  Replayed ops: sample ``i`` of every sequence is the
    same op, taken at its best; the median over ops of that."""
    sequences = [latencies for latencies in sequences if latencies]
    if not sequences:
        return 0.0, 0
    if replays:
        return 1e3 * median(map(min, zip(*sequences))), len(sequences)
    medians = [
        median(block) for latencies in sequences for block in blocks(latencies, size)
    ]
    return 1e3 * min(medians), len(medians)


def epochs_of(rounds: list[RoundResult]):
    return [epoch for result in rounds for epoch in result.epochs]


def read_latencies(rounds: list[RoundResult]) -> list[list[float]]:
    """One sequence of read latencies per epoch; on ``append_stream``, whose
    epochs do not read, one per round, of its read-back verification."""
    inside = [epoch.main.latencies["read"] for epoch in epochs_of(rounds)]
    if any(inside):
        return inside
    return [result.outside.latencies["read"] for result in rounds]


def epoch_ops_s(rounds: list[RoundResult]) -> list[float]:
    return [epoch.main.ops / epoch.main.seconds for epoch in epochs_of(rounds)]


def op_p99_ms(rounds: list[RoundResult]) -> float:
    """Median over epochs of each epoch's p99 op latency.  A diagnostic, not
    an end-to-end metric: its run-to-run spread on a shared host (10-30 % of
    the median) is wider than any bound worth gating on."""
    return 1e3 * median(
        percentile(epoch.main.latencies["op"], 0.99) for epoch in epochs_of(rounds)
    )


def end_to_end(rounds: list[RoundResult], workload: Workload, peak_rss_mb: float):
    """``(values, notes)``: every end-to-end metric, and for each timing how
    many blocks of how many ops its best block was chosen from."""
    epochs = epochs_of(rounds)
    ops = sum(epoch.main.ops for epoch in epochs)
    payload_mib = sum(epoch.main.payload_bytes for epoch in epochs) / MiB
    block, replays = workload.block_ops, workload.replays
    ops_s, count = quiet_ops_s(epochs, block, replays)
    values = {
        "setup_s": min(result.setup_seconds for result in rounds),
        "ops_s": ops_s,
        # The op mix of an epoch is fixed, so MiB per op is a constant.
        "throughput_mb_s": ops_s * payload_mib / ops,
        "peak_rss_mb": peak_rss_mb,
        "space_amp": median(epoch.space_amp for epoch in epochs),
    }
    what = "replays of each op" if replays else f"blocks of {block} ops"
    notes = [
        f"setup_s: best of {len(rounds)} set-ups",
        f"ops_s, throughput_mb_s: {count} blocks of {block} ops"
        + (f", each at the best of {len(epochs)} replays" if replays else ", the best"),
    ]
    values["read_p50_ms"], count = quiet_p50_ms(read_latencies(rounds), block, replays)
    notes.append(f"read_p50_ms: best of {count} {what}")
    return values, notes


def per_layer(
    plain: list[RoundResult],
    proxied: list[RoundResult],
    traced: list[RoundResult],
    spans,
    workload: Workload,
    micro: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric.  Counts come from the plain rounds, times from
    the proxied rounds' spans; ``micro`` carries the micro-drives and the
    harness readings.  Layer *times* are 0 on the event-loop workload: a
    span's duration there includes other coroutines' turns."""
    epochs = epochs_of(plain)
    sums: dict[str, float] = defaultdict(float)
    for epoch in epochs:
        for name, value in epoch.main.sums.items():
            sums[name] += value
        for name, value in epoch.counters.items():
            sums[name] += value
        sums["ops"] += epoch.main.ops
    ops, reads, updates = sums["ops"], sums["read.n"], sums["update.n"]
    block, replays = workload.block_ops, workload.replays
    plain_ops_s = quiet_ops_s(epochs, block, replays)[0]

    def gauge(name: str) -> float:
        return median(epoch.gauges[name] for epoch in epochs)

    values = {
        "core.proxy_overhead_ratio": (
            quiet_ops_s(epochs_of(proxied), block, replays)[0] / plain_ops_s
        ),
        "core.op_p99_ms": op_p99_ms(plain),
        "obs.tracing_overhead_ratio": (
            quiet_ops_s(epochs_of(traced), block, replays)[0] / plain_ops_s
        ),
        "vm.trips_per_read": ratio(sums["read.vm_trips"], reads),
        "vm.trips_per_update": ratio(sums["update.vm_trips"], updates),
        "vm.lease_hit_rate": ratio(
            sums["lease.hits"], sums["lease.hits"] + sums["lease.misses"]
        ),
        "vm.register_batch_mean": ratio(
            sums["vm.register_requests"], sums["vm.register_batches"]
        ),
        "vm.publish_batch_mean": ratio(
            sums["vm.publish_requests"], sums["vm.publish_batches"]
        ),
        "metadata.nodes_fetched_per_read": ratio(sums["read.nodes_fetched"], reads),
        "metadata.trips_per_read": ratio(sums["read.meta_trips"], reads),
        "metadata.nodes_written_per_update": ratio(
            sums["update.nodes_written"], updates
        ),
        "metadata.border_nodes_fetched_per_update": ratio(
            sums["update.border_fetched"], updates
        ),
        "metadata.nodes_per_mib_written": median(
            result.nodes_per_mib_written for result in plain
        ),
        "metadata.pages_touched_per_mib_read": ratio(
            sums["read.pages"], sums["read.bytes"] / MiB
        ),
        "dht.keys_get_per_op": ratio(sums["dht.gets"], ops),
        "dht.keys_put_per_op": ratio(sums["dht.puts"], ops),
        "dht.batches_per_op": ratio(sums["dht.batches"], ops),
        "dht.max_bucket_share": gauge("dht.max_bucket_share"),
        "providers.data_trips_per_read": ratio(sums["read.data_trips"], reads),
        "providers.data_trips_per_update": ratio(sums["update.data_trips"], updates),
        "providers.pages_per_batch": ratio(
            sums["read.pages"] - sums["read.page_hits"] + sums["update.pages"],
            sums["read.data_trips"] + sums["update.data_trips"],
        ),
        "providers.load_imbalance": gauge("providers.load_imbalance"),
        "cache.node_hit_rate": ratio(
            sums["node.hits"], sums["node.hits"] + sums["node.misses"]
        ),
        "cache.page_hit_rate": ratio(
            sums["page.hits"], sums["page.hits"] + sums["page.misses"]
        ),
        "cache.node_evictions_per_op": ratio(sums["node.evictions"], ops),
        "cache.page_evictions_per_op": ratio(sums["page.evictions"], ops),
        "cache.page_resident_mb": gauge("cache.page_resident_mb"),
        "fault.failovers_per_read": ratio(sums["read.failovers"], reads),
        "fault.degraded_per_read": ratio(sums["read.degraded"], reads),
        "harness.gc_gen2_collections": sum(epoch.gc_gen2 for epoch in epochs),
        "harness.epoch_spread": max(epoch_ops_s(plain)) / min(epoch_ops_s(plain)),
        **micro,
    }

    # Latencies of the kinds only some workloads issue: 0 on the others.
    for kind in ("append", "write", "uwrite", "publish"):
        values[f"core.{kind}_p50_ms"] = quiet_p50_ms(
            [epoch.main.latencies[kind] for epoch in epochs], block, replays
        )[0]

    # The suspension counters and the span times come from the proxied rounds.
    proxied_epochs = epochs_of(proxied)
    proxied_ops = sum(epoch.main.ops for epoch in proxied_epochs)
    for name in ("run_batches", "tasks_started", "gathers", "vm_sync_waits"):
        values[f"aio.{name}_per_op"] = ratio(
            sum(epoch.counters.get(f"aio.{name}", 0) for epoch in proxied_epochs),
            proxied_ops,
        )
    own, total, calls = spans.summary()
    if workload.event_loop:
        own, total = {}, {}
    by_layer: dict[str, float] = defaultdict(float)
    for name, seconds in own.items():
        by_layer[name.split(".")[0]] += seconds
    for layer in LAYERS:
        values[f"{layer}.self_us_per_op"] = 1e6 * ratio(by_layer[layer], proxied_ops)
    values["core.self_share"] = ratio(by_layer["core"], sum(by_layer.values()))

    def mean_us(name: str) -> float:
        return 1e6 * ratio(total.get(name, 0.0), calls.get(name, 0))

    values["vm.register_us"] = mean_us("vm.register_update")
    values["vm.complete_us"] = mean_us("vm.complete_update")
    values["providers.allocate_us"] = mean_us("providers.allocate_replicas")
    fetched = stored = 0
    for epoch in proxied_epochs:
        fetched += epoch.main.sums["read.pages"] - epoch.main.sums["read.page_hits"]
        stored += epoch.main.sums["update.pages"]
    values["providers.fetch_us_per_page"] = 1e6 * ratio(
        own.get("providers.multi_fetch_into_async", 0.0), fetched
    )
    values["providers.store_us_per_page"] = 1e6 * ratio(
        own.get("providers.multi_store_replicated_async", 0.0), stored
    )
    return values
