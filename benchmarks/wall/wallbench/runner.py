"""Runs one workload for a time budget and reduces it to the named metrics."""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from repro.aio import SyncRuntime, run_sync
from repro.metadata.build import BorderSpec, border_targets, build_nodes
from repro.metadata.geometry import span_for_pages
from repro.metadata.node import PageDescriptor
from repro.metadata.read_plan import drive_plan, read_plan

from .engine import MiB, PAGE_SIZE
from .metrics import declared, end_to_end, epoch_ops_s, op_p99_ms, per_layer
from .spans import SpanRecorder
from .workloads import WORKLOADS, RoundResult, Workload

clock = time.perf_counter

#: Where a traced run leaves its spans, one JSON object per line.
TRACE_DIR = Path(__file__).resolve().parents[1] / ".traces"


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    #: name -> (value, unit): the end-to-end metrics of an untraced run, the
    #: per-layer metrics of a traced one.
    metrics: dict[str, tuple[float, str]]
    #: Human-readable lines: sample counts, cache occupancy, digest, errors.
    notes: list[str] = field(default_factory=list)

    def last_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def calibrate() -> float:
    """Millions of pure-Python loop steps per second, with one 1 MiB memcpy
    every 1000 steps — recognises a noisy machine; never used to rescale."""
    source = bytes(MiB)
    steps = 200_000
    start = clock()
    total = 0
    for step in range(steps):
        total += step & 7
        if step % 1000 == 0:
            total += len(bytearray(source))
    return steps / (clock() - start) / 1e6


def _median_call_us(fn, calls: int, batches: int = 5) -> float:
    timings = []
    for _ in range(batches):
        start = clock()
        for _ in range(calls):
            fn()
        timings.append((clock() - start) / calls)
    return 1e6 * median(timings)


def micro_run_sync_us() -> float:
    """``run_sync`` over a coroutine awaiting one empty ``run_batches``."""
    runtime = SyncRuntime()

    async def one_batch():
        return await runtime.run_batches([])

    return _median_call_us(lambda: run_sync(one_batch()), 5000)


def micro_metadata_us(blob_pages: int, read_pages: int, update_pages: int):
    """``(build_nodes_us, read_plan_us)`` at the workload's own geometry: an
    update of ``update_pages`` and a read of ``read_pages`` in the middle of
    a ``blob_pages`` tree, with no I/O behind the planners."""
    span = span_for_pages(blob_pages)

    def describe(first: int, count: int) -> list[PageDescriptor]:
        return [
            PageDescriptor(page_index=index, page_id=f"p{index}",
                           provider_id="data-0000", length=PAGE_SIZE)
            for index in range(first, first + count)
        ]

    def borders(first: int, count: int, previous_pages: int) -> BorderSpec:
        needed, dangling = border_targets(first, count, span, previous_pages)
        return BorderSpec(versions={target: 1 for target in needed + dangling})

    tree = build_nodes(1, 0, blob_pages, span, describe(0, blob_pages),
                       borders(0, blob_pages, 0))
    nodes = {(ref.offset, ref.size): node for ref, node in tree.nodes}
    middle = blob_pages // 2
    update = describe(middle, update_pages)
    update_borders = borders(middle, update_pages, blob_pages)
    return (
        _median_call_us(
            lambda: build_nodes(2, middle, update_pages, span, update, update_borders),
            100,
        ),
        _median_call_us(
            lambda: drive_plan(
                read_plan(1, span, middle, read_pages),
                lambda ref: nodes[(ref.offset, ref.size)],
            ),
            100,
        ),
    )


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    corrupt: bool = False,
) -> RunResult:
    """Measure ``workload_name``: the number of rounds ``--seconds`` buys
    (see :meth:`Workload.rounds`), each a set-up and its fixed-work epochs.

    An untraced run repeats plain rounds.  A traced run splits the same
    number of rounds between three variants — plain, *proxied* (timing
    proxies at the layer seams) and *traced* (the engine's own
    ``tracing=True``) — taken in turn, so that the two overhead ratios
    compare rounds taken side by side.
    """
    workload: Workload = WORKLOADS[workload_name](smoke=smoke)
    if not smoke:
        # One unmeasured smoke-sized round: interpreter specialisation, lazy
        # imports and the first event loop are paid before anything is timed.
        WORKLOADS[workload_name](smoke=True).run_round(seed, 0, None, False, False)
    calibration = [calibrate()]
    recorder = SpanRecorder()
    variants = ("plain", "proxied", "traced") if trace else ("plain",)
    results: dict[str, list[RoundResult]] = {variant: [] for variant in variants}
    for index in range(max(1, workload.rounds(seconds) // len(variants))):
        for variant in variants:
            results[variant].append(
                workload.run_round(
                    seed,
                    index,
                    recorder if variant == "proxied" else None,
                    tracing=variant == "traced",
                    corrupt=corrupt and variant == "plain",
                )
            )
    gc.collect()
    calibration.append(calibrate())

    tallies = [
        tally
        for variant in variants
        for result in results[variant]
        for tally in (result.outside, *(epoch.main for epoch in result.epochs))
    ]
    failed = sum(tally.failed for tally in tallies)
    errors = [tally.first_error for tally in tallies if tally.first_error]
    plain = results["plain"]
    notes = [
        f"workload {workload.name}: {workload.clients} closed-loop client(s), "
        f"{len(plain)} plain round(s) x {workload.epochs_per_round} epoch(s), "
        f"{plain[0].epochs[0].main.ops} ops per epoch",
        f"schedule_digest {plain[0].schedule_digest}",
        f"calibration {calibration[0]:.3f} -> {calibration[1]:.3f} Mops/s",
        "epoch ops/s: " + " ".join(f"{value:.1f}" for value in epoch_ops_s(plain)),
        f"op p99 {op_p99_ms(plain):.4g} ms (median over epochs, "
        f"{len(plain[0].epochs[0].main.latencies['op'])} samples each; not gated)",
        "cache occupancy at epoch start (node entries / page MiB): "
        + " ".join(
            f"{epoch.start_node_entries}/{epoch.start_page_mb:.1f}"
            for result in plain
            for epoch in result.epochs
        ),
    ]
    notes += [f"error: {error}" for error in errors[:5]]

    spec = declared()
    if trace:
        pages, read_pages, update_pages = workload.geometry()
        build_us, plan_us = micro_metadata_us(pages, read_pages, update_pages)
        values = per_layer(
            plain,
            results["proxied"],
            results["traced"],
            recorder,
            workload,
            {
                "aio.run_sync_us": micro_run_sync_us(),
                "metadata.build_nodes_us": build_us,
                "metadata.read_plan_us": plan_us,
                "harness.calib_mops_s": min(calibration),
            },
        )
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{workload.name}.jsonl"
        recorder.write_jsonl(path)
        notes.append(f"{sum(e - s for s, e in recorder.windows)} spans -> {path}")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values, samples = end_to_end(plain, workload, peak_rss_mb)
        notes += samples
    entries = spec["per_layer" if trace else "end_to_end"]
    if set(values) != {entry["name"] for entry in entries}:
        raise RuntimeError(
            "BENCHMARK.json and the computed metrics name different things: "
            f"{sorted(set(values) ^ {entry['name'] for entry in entries})}"
        )
    return RunResult(
        correct=failed == 0,
        attempted=sum(tally.attempted for tally in tallies),
        failed=failed,
        metrics={
            entry["name"]: (float(values[entry["name"]]), entry["unit"])
            for entry in entries
        },
        notes=notes,
    )
