"""Perf-regression gate: rerun a figure benchmark and compare it to a
committed baseline.

Used by the CI ``perf-gate`` job::

    python benchmarks/compare_bench.py --figure fig2b --scale small \
        --baseline BENCH_pr1.json --output perf-gate.json

The baseline may be a ``BENCH_prN.json`` snapshot (the comparison uses the
``scales.<scale>.<figure>_rows`` section, preferring its ``after`` side), a
``{"rows": [...]}`` object, or a bare list of row dicts.  Rows are matched
by figure-specific keys (reader count for fig2b, series + blob size for
fig2a) and every metric present in both rows is compared: throughput-like
metrics may not drop by more than ``--tolerance`` (default 15 %), counter
metrics (round trips, nodes fetched) may not grow by more than the same
factor.  The run fails (exit code 1) on any regression, and always writes a
machine-readable report for the workflow-artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.fig2a import run_fig2a  # noqa: E402
from repro.bench.fig2b import run_fig2b  # noqa: E402

_FIGURES = {"fig2a": run_fig2a, "fig2b": run_fig2b}

#: Keys identifying a row within one figure's result table.
_MATCH_KEYS = {
    "fig2a": ("series", "pages_total"),
    "fig2b": ("readers",),
}

#: Metrics where bigger is better (gate on drops).  The ``warm_*`` and
#: cache-hit-rate metrics gate the shared metadata cache: a regression that
#: stops warm repeated reads from being served by the cache shows up as a
#: hit-rate or warm-bandwidth drop.
_HIGHER_IS_BETTER = (
    "avg_bandwidth_mbps",
    "min_bandwidth_mbps",
    "aggregate_mbps",
    "bandwidth_mbps",
    "warm_avg_bandwidth_mbps",
    "cache_hit_rate",
    "warm_cache_hit_rate",
    "page_cache_hit_rate",
    "warm_page_cache_hit_rate",
    "speculative_hit_rate",
)

#: Metrics where smaller is better (gate on growth): round-trip and
#: node-count counters.  ``warm_meta_nodes_per_read`` must stay ~0 — warm
#: traversals fetching nodes from the DHT again is a cache regression —
#: ``warm_vm_trips_per_read`` likewise (warm reads paying the version
#: manager again is a lease regression), and ``warm_data_trips_per_read``
#: must stay 0: warm reads paying the data providers again is a
#: page-cache regression.  ``cold_meta_latency`` (milliseconds) gates the
#: cold metadata descent that speculative prefetch attacks, and
#: ``speculative_wasted`` gates the prefetcher's over-fetch.
_LOWER_IS_BETTER = (
    "cold_meta_latency",
    "speculative_wasted",
    "meta_nodes_per_read",
    "meta_trips_per_read",
    "data_trips_per_read",
    "vm_trips_per_read",
    "warm_meta_nodes_per_read",
    "warm_meta_trips_per_read",
    "warm_data_trips_per_read",
    "warm_vm_trips_per_read",
    "metadata_nodes",
    "border_fetches",
    "data_trips",
    "vm_trips",
)


def load_baseline_rows(path: Path, figure: str, scale: str) -> list[dict]:
    """Extract the baseline's row list for one figure at one scale."""
    document = json.loads(path.read_text())
    if isinstance(document, list):
        return document
    if "rows" in document:
        return document["rows"]
    try:
        section = document["scales"][scale][f"{figure}_rows"]
    except KeyError as error:
        raise SystemExit(
            f"{path}: cannot find rows for {figure}/{scale} ({error} missing)"
        ) from error
    if isinstance(section, dict):
        # BENCH_prN.json keeps a before/after pair; the "after" side is the
        # state the PR shipped, i.e. the baseline for the next PR.
        return section.get("after", section.get("before", []))
    return section


def row_key(row: dict, figure: str) -> tuple:
    return tuple(row.get(key) for key in _MATCH_KEYS[figure])


def compare_rows(
    current: list[dict],
    baseline: list[dict],
    figure: str,
    tolerance: float,
    required_columns: tuple[str, ...] = (),
    exact_columns: tuple[str, ...] = (),
) -> tuple[list[dict], list[str], list[str]]:
    """Compare matched rows metric by metric.

    Returns ``(records, failures, skipped_columns)``.  A gated metric that
    exists in the current rows but not in the baseline is *skipped* (listed
    by name, reported as a warning) — unless it appears in
    ``required_columns``, in which case the gate fails with a clear
    "column missing from baseline" message instead of silently passing (or
    blowing up with a raw ``KeyError``) when the committed baseline
    predates the counter.  A required column missing from the *current*
    rows (the harness stopped emitting it) fails the same way — the gate
    never goes green while a counter it was told to watch is uncompared.

    ``exact_columns`` are held to EQUALITY, not tolerance: a listed column
    must be present on both sides of every matched row and bit-identical
    (as a float).  This is the no-drift gate — e.g. the cold fig2b counters
    must not move at all while the default configuration is unchanged,
    because the cold path is meant to be byte-for-byte the pre-change
    system.
    """
    baseline_by_key = {row_key(row, figure): row for row in baseline}
    records: list[dict] = []
    failures: list[str] = []
    skipped: set[str] = set()
    matched = 0
    matched_pairs: list[tuple[dict, dict]] = []
    for row in current:
        key = row_key(row, figure)
        base = baseline_by_key.get(key)
        if base is None:
            continue
        matched += 1
        matched_pairs.append((row, base))
        label = ", ".join(
            f"{name}={value}" for name, value in zip(_MATCH_KEYS[figure], key)
        )
        for metric, gate in (
            (_HIGHER_IS_BETTER, "min"),
            (_LOWER_IS_BETTER, "max"),
        ):
            for name in metric:
                if name not in row:
                    continue
                if name not in base:
                    skipped.add(name)
                    continue
                now, then = float(row[name]), float(base[name])
                if gate == "min":
                    limit = then * (1.0 - tolerance)
                    ok = now >= limit
                else:
                    limit = then * (1.0 + tolerance)
                    ok = now <= limit
                records.append(
                    {
                        "row": label,
                        "metric": name,
                        "baseline": then,
                        "current": now,
                        "limit": limit,
                        "ok": ok,
                    }
                )
                if not ok:
                    failures.append(
                        f"{label}: {name} {now:.2f} vs baseline {then:.2f} "
                        f"(limit {limit:.2f})"
                    )
        for name in exact_columns:
            if name not in row or name not in base:
                side = "current rows" if name not in row else "baseline"
                failures.append(
                    f"{label}: exact column {name!r} missing from the {side}"
                )
                continue
            now, then = float(row[name]), float(base[name])
            ok = now == then
            records.append(
                {
                    "row": label,
                    "metric": name,
                    "baseline": then,
                    "current": now,
                    "limit": then,
                    "ok": ok,
                }
            )
            if not ok:
                failures.append(
                    f"{label}: {name} {now!r} != baseline {then!r} "
                    "(exact column — must not drift at all)"
                )
    if matched == 0:
        failures.append(
            f"no baseline rows matched the current {figure} rows — "
            "baseline layout or presets changed?"
        )
    for name in required_columns:
        in_current = any(name in row for row, _base in matched_pairs)
        in_baseline = any(name in base for _row, base in matched_pairs)
        if matched and not in_baseline:
            failures.append(
                f"column {name!r} missing from baseline — the committed "
                "baseline predates this counter; regenerate the baseline "
                "(python -m repro.bench) before gating on it"
            )
        if matched and not in_current:
            failures.append(
                f"column {name!r} missing from the current {figure} rows — "
                "the harness stopped emitting a counter the gate is "
                "required to watch"
            )
        if name not in _HIGHER_IS_BETTER and name not in _LOWER_IS_BETTER:
            failures.append(
                f"required column {name!r} is not a gated metric — add it "
                "to _HIGHER_IS_BETTER or _LOWER_IS_BETTER in "
                "benchmarks/compare_bench.py"
            )
    return records, failures, sorted(skipped)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--figure", choices=sorted(_FIGURES), default="fig2b")
    parser.add_argument("--scale", default="small")
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed relative regression (default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--require-columns",
        default="",
        help="comma-separated gated metrics that MUST exist in the baseline; "
        "a listed column the baseline predates fails the gate with a clear "
        "message instead of being skipped",
    )
    parser.add_argument(
        "--exact-columns",
        default="",
        help="comma-separated columns that must be EXACTLY equal (no "
        "tolerance) on every matched row — the no-drift gate for cold-path "
        "counters; a listed column missing from either side fails",
    )
    args = parser.parse_args(argv)
    required = tuple(
        name.strip() for name in args.require_columns.split(",") if name.strip()
    )
    exact = tuple(
        name.strip() for name in args.exact_columns.split(",") if name.strip()
    )

    baseline_rows = load_baseline_rows(args.baseline, args.figure, args.scale)
    result = _FIGURES[args.figure](scale=args.scale)
    records, failures, skipped = compare_rows(
        result.rows, baseline_rows, args.figure, args.tolerance, required, exact
    )

    report = {
        "figure": args.figure,
        "scale": args.scale,
        "baseline_file": str(args.baseline),
        "tolerance": args.tolerance,
        "exact_columns": list(exact),
        "passed": not failures,
        "failures": failures,
        "skipped_columns": skipped,
        "comparisons": records,
        "current_rows": result.rows,
    }
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=1) + "\n")

    checked = len(records)
    print(
        f"perf gate [{args.figure}/{args.scale}] vs {args.baseline}: "
        f"{checked} metric comparisons, {len(failures)} regressions "
        f"(tolerance {args.tolerance:.0%})"
    )
    for record in records:
        if record["metric"] in ("avg_bandwidth_mbps", "bandwidth_mbps"):
            delta = (
                (record["current"] / record["baseline"] - 1.0) * 100
                if record["baseline"]
                else 0.0
            )
            print(
                f"  {record['row']}: {record['metric']} "
                f"{record['baseline']:.2f} -> {record['current']:.2f} "
                f"({delta:+.1f}%)"
            )
    for name in skipped:
        if name not in required:
            print(
                f"  warning: column {name!r} not in baseline (predates it) — "
                "not gated this run"
            )
    for failure in failures:
        print(f"  REGRESSION: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
