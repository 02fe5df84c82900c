"""Command-line entry point for the benchmark harness.

Examples::

    blobseer-bench fig2a                 # scaled-down Figure 2(a)
    blobseer-bench fig2b --scale paper   # full 173-provider Figure 2(b)
    blobseer-bench all --scale small     # every experiment, CI-sized
    python -m repro.bench fig2a          # equivalent module form
    python -m repro.bench fig2b --baseline BENCH_pr5.json
                                         # + delta table vs that snapshot
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .ablations import (
    run_ablation_allocation,
    run_ablation_cache,
    run_ablation_churn,
    run_ablation_coldpath,
    run_ablation_concurrent_writers,
    run_ablation_dht_placement,
    run_ablation_metadata,
    run_ablation_mixed_workload,
    run_ablation_page_cache,
    run_ablation_page_size,
    run_ablation_storage_space,
    run_ablation_vm,
)
from .fig2a import run_fig2a
from .fig2b import run_fig2b
from .runner import SCALES

_EXPERIMENTS = {
    "fig2a": run_fig2a,
    "fig2b": run_fig2b,
    "ablation-cache": run_ablation_cache,
    "ablation-churn": run_ablation_churn,
    "ablation-coldpath": run_ablation_coldpath,
    "ablation-metadata": run_ablation_metadata,
    "ablation-space": run_ablation_storage_space,
    "ablation-writers": run_ablation_concurrent_writers,
    "ablation-pagecache": run_ablation_page_cache,
    "ablation-pagesize": run_ablation_page_size,
    "ablation-allocation": run_ablation_allocation,
    "ablation-dht": run_ablation_dht_placement,
    "ablation-mixed": run_ablation_mixed_workload,
    "ablation-vm": run_ablation_vm,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blobseer-bench",
        description="Regenerate the figures and ablations of the BlobSeer paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default="small",
        help="experiment scale: small (seconds), default, or paper (minutes)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="BENCH_JSON",
        help="a committed BENCH_prN.json snapshot; after each experiment "
        "that the snapshot covers, print a per-row delta table (baseline "
        "-> current, percent change) against its rows at --scale",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="after the experiments, run a traced single-reader pass "
        "(tracing=True) and print a per-leg latency breakdown for a cold "
        "and a warm read — wall clock against an in-memory cluster, then "
        "virtual clock against the simulated testbed",
    )
    return parser


#: Keys identifying a row within one experiment's baseline rows.
_BASELINE_MATCH_KEYS = {
    "fig2a": ("series", "pages_total"),
    "fig2b": ("readers",),
}


def _baseline_rows(path: Path, name: str, scale: str) -> list[dict] | None:
    """Rows of a ``BENCH_prN.json`` snapshot for one experiment and scale.

    Returns None (not an error) when the snapshot simply does not cover the
    experiment or scale — the snapshots only record the figure tables.
    """
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot read baseline {path}: {error}") from error
    section = document.get("scales", {}).get(scale, {}).get(f"{name}_rows")
    if section is None:
        return None
    if isinstance(section, dict):
        # Snapshots keep a before/after pair; "after" is the state that PR
        # shipped, i.e. the baseline every later run compares against.
        return section.get("after", section.get("before", []))
    return section


def format_delta(then: float, value: float) -> str:
    """Percent change of ``then -> value``, safe at a zero baseline.

    A zero baseline cannot anchor a percentage: those cells read ``new``
    when the metric appeared and ``+0.0%`` when both sides are zero —
    never ``inf``, ``nan`` or a ZeroDivisionError.
    """
    if then:
        return f"{(float(value) / float(then) - 1.0) * 100:+.1f}%"
    return "new" if value else "+0.0%"


def _print_deltas(name: str, rows: list[dict], baseline: list[dict]) -> None:
    """Print the per-row, per-metric delta table against a baseline."""
    match_keys = _BASELINE_MATCH_KEYS.get(name, ())
    if not match_keys:
        return
    by_key = {
        tuple(row.get(key) for key in match_keys): row for row in baseline
    }
    for row in rows:
        key = tuple(row.get(k) for k in match_keys)
        base = by_key.get(key)
        if base is None:
            continue
        label = ", ".join(f"{k}={v}" for k, v in zip(match_keys, key))
        print(f"  [{label}]")
        for metric, value in row.items():
            if metric in match_keys or not isinstance(value, (int, float)):
                continue
            then = base.get(metric)
            if not isinstance(then, (int, float)):
                continue
            delta = format_delta(then, value)
            print(f"    {metric:<28} {then:>12.4f} -> {value:>12.4f}  {delta}")


#: Blob size (in pages) for the traced single-reader pass, by scale.
_TRACE_PAGES = {"small": 8, "default": 32, "paper": 128}


def _leg_table(rows: list[tuple[str, dict[str, float], dict[str, int]]]) -> str:
    """Format cold/warm rows of per-leg durations (already in ms)."""
    legs = sorted({leg for _label, durations, _counts in rows for leg in durations})
    header = "  row  " + "".join(f"{leg + '_ms':>16}" for leg in legs)
    lines = [header]
    for label, durations, counts in rows:
        cells = "".join(f"{durations.get(leg, 0.0):>16.3f}" for leg in legs)
        spans = ", ".join(
            f"{name} x{count}" for name, count in sorted(counts.items())
        )
        lines.append(f"  {label:<5}{cells}    [{spans}]")
    return "\n".join(lines)


def _trace_legs(spans, unit_scale: float) -> tuple[dict[str, float], dict[str, int]]:
    """Per-leg durations and span counts of the LAST trace among ``spans``.

    Direct children of the root span are the legs; their durations are
    summed per name (a read with several metadata levels has several
    ``meta.fetch`` spans) and the root's own duration appears as
    ``total``.  ``unit_scale`` converts the tracer's clock units to ms.
    """
    roots = [item for item in spans if item.parent_id is None]
    root = roots[-1]
    members = [item for item in spans if item.trace_id == root.trace_id]
    durations = {"total": root.duration * unit_scale}
    counts: dict[str, int] = {}
    for item in members:
        if item.parent_id == root.span_id:
            key = item.name.rsplit(".", 1)[1] if "." in item.name else item.name
            durations[key] = durations.get(key, 0.0) + item.duration * unit_scale
        if item is not root:
            counts[item.name] = counts.get(item.name, 0) + 1
    return durations, counts


def _print_trace_breakdown(scale: str) -> None:
    """Run one traced reader cold and warm and print the leg breakdown.

    Two passes of the same engine and the same spans: wall clock against
    a real in-memory cluster, then virtual clock against the simulated
    testbed (each simulated read's own spans, timed by ``simulator.now``).
    """
    from ..config import KiB
    from ..core.blob_store import BlobStore
    from ..core.cluster import Cluster
    from ..sim.client import SimClient
    from ..sim.deployment import SimDeployment

    pages = _TRACE_PAGES.get(scale, _TRACE_PAGES["small"])
    page_size = 4 * KiB
    nbytes = pages * page_size

    cluster = Cluster.in_memory(
        num_data_providers=8,
        num_metadata_providers=8,
        page_size=page_size,
        tracing=True,
    )
    rows = []
    with BlobStore(cluster) as store:
        blob_id = store.create()
        version = store.append(blob_id, b"\xa5" * nbytes)
        for label in ("cold", "warm"):
            cluster.tracer.clear()
            store.read(blob_id, version, 0, nbytes)
            rows.append((label, *_trace_legs(cluster.tracer.spans(), 1000.0)))
    print(f"traced read breakdown, wall clock ({pages} pages, in-memory):")
    print(_leg_table(rows))

    deployment = SimDeployment(num_provider_nodes=8, page_size=page_size)
    blob_id = deployment.create_blob()
    sim_version = deployment.populate_blob(blob_id, nbytes)
    rows = []
    for label in ("cold", "warm"):
        outcome = deployment.simulator.run_process(
            SimClient(deployment, 0).read_process(blob_id, sim_version, 0, nbytes)
        )
        rows.append((label, *_trace_legs(outcome.spans, 1000.0)))
    print(f"traced read breakdown, sim virtual clock ({pages} pages):")
    print(_leg_table(rows))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        started = time.perf_counter()
        result = _EXPERIMENTS[name](scale=args.scale)
        elapsed = time.perf_counter() - started
        print(result.format())
        print(f"(ran in {elapsed:.1f}s at scale={args.scale})")
        if args.baseline is not None:
            baseline = _baseline_rows(args.baseline, name, args.scale)
            if baseline is None:
                print(
                    f"(baseline {args.baseline} has no {name} rows at "
                    f"scale={args.scale} — no delta table)"
                )
            else:
                print(f"deltas vs {args.baseline} ({args.scale}):")
                _print_deltas(name, result.rows, baseline)
        print()
    if args.trace:
        _print_trace_breakdown(args.scale)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
