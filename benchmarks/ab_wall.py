"""Same-host A/B of the wall-clock benchmark: a parent revision against
the working tree.

    python benchmarks/ab_wall.py --parent REV [--pairs 10] [--workload W ...]
                                 [--seconds 20] [--scratch DIR]

The parent's committed files are exported (``git archive``) into a scratch
directory, then ``benchmarks/wall/run.py`` — the command of
``BENCHMARK.json`` — runs on parent and change alternately: pair *i* uses
seed *i* on both sides, and odd pairs run the parent first, even pairs the
change.  Each end-to-end metric is judged with its own ``better``/``bound``
from ``BENCHMARK.json`` (:func:`verdict`) and one markdown table per
workload is printed, the one CHANGES.md entries quote.  Exits non-zero when
a metric is worse than its bound allows, a larger share of operations
failed, or a run read back a wrong byte.

Only same-host ratios mean anything: absolute numbers move by 2x between
hosts and hours, which is why both sides run interleaved.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: A gain is claimed only when the change wins this share of the pairs.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> dict:
    """Judge one metric over paired runs (``parent[i]`` and ``change[i]``
    ran back to back on the same seed).

    * ``improved`` — the change wins at least nine tenths of the pairs (ties
      count for neither side) and the medians differ, in the ``better``
      direction, by more than the parent's own quartile spread;
    * ``worse`` — the change's median is worse than the parent's by more
      than ``bound`` (a fraction of the parent's median);
    * ``unresolved`` — neither, but the parent's own quartile spread exceeds
      ``bound``: the runs cannot tell "unchanged" from "moved";
    * ``within bound`` — otherwise.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("verdict() needs one change run per parent run")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = sign * (c_median - p_median)  # > 0: the change reads better
    spread = p_q3 - p_q1
    scale = abs(p_median)
    if wins >= WIN_SHARE * len(parent) and gain > spread:
        outcome = "improved"
    elif -gain > bound * scale:
        outcome = "worse"
    elif spread > bound * scale:
        outcome = "unresolved"
    else:
        outcome = "within bound"
    return {
        "parent": (p_median, p_q1, p_q3),
        "change": (c_median, c_q1, c_q3),
        "delta": (c_median - p_median) / scale if scale else 0.0,
        "wins": wins,
        "pairs": len(parent),
        "verdict": outcome,
    }


def run_once(command: list[str], cwd: Path, workload: str, seed: int, seconds: float):
    """One benchmark run in ``cwd``; returns the JSON object of its last
    stdout line.  A non-zero exit is kept (it means failed ops or a wrong
    byte, which the last line reports too)."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.splitlines()
    if not lines:
        raise RuntimeError(
            f"{workload} seed {seed} in {cwd} printed nothing:\n{done.stderr}"
        )
    return json.loads(lines[-1])


def export_parent(rev: str, target: Path) -> None:
    """The committed files of ``rev`` into ``target`` — what the benchmark
    driver compares, and no entry under ``.git/worktrees`` to clean up."""
    target.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
        capture_output=True,
    )
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout, check=True)


def fmt(value: float) -> str:
    """Four significant digits, never an exponent."""
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def table(workload: str, rows: dict[str, dict], bounds: dict[str, float]) -> str:
    lines = [
        f"**{workload}**",
        "",
        "| metric | parent median [q1, q3] | change median [q1, q3] | Δ | bound "
        "| pairs won | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, row in rows.items():
        (p_median, p_q1, p_q3), (c_median, c_q1, c_q3) = row["parent"], row["change"]
        lines.append(
            f"| `{name}` | {fmt(p_median)} [{fmt(p_q1)}, {fmt(p_q3)}] "
            f"| {fmt(c_median)} [{fmt(c_q1)}, {fmt(c_q3)}] "
            f"| {row['delta']:+.1%} | {bounds[name]:.0%} "
            f"| {row['wins']}/{row['pairs']} | {row['verdict']} |"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeatable; default: every BENCHMARK.json workload")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--scratch", type=Path,
                        help="directory for the parent export (default: a "
                             "temporary one, removed afterwards)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = {entry["name"]: entry for entry in contract["end_to_end"]}
    bounds = {name: entry["bound"] for name, entry in metrics.items()}

    scratch = args.scratch or Path(tempfile.mkdtemp(prefix="ab_wall-"))
    parent_dir = scratch / "parent"
    if parent_dir.exists():
        shutil.rmtree(parent_dir)
    export_parent(args.parent, parent_dir)
    sides = {"parent": parent_dir, "change": ROOT}
    breaches: list[str] = []
    try:
        for workload in args.workload or workloads:
            runs = {side: [] for side in sides}
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    runs[side].append(
                        run_once(contract["command"], sides[side], workload,
                                 pair, args.seconds)
                    )
                    print(f"# {workload} pair {pair} {side} done",
                          file=sys.stderr, flush=True)
            rows = {
                name: verdict(
                    [run["metrics"][name]["value"] for run in runs["parent"]],
                    [run["metrics"][name]["value"] for run in runs["change"]],
                    entry["better"], entry["bound"],
                )
                for name, entry in metrics.items()
            }
            print(table(workload, rows, bounds))
            shares = {
                side: sum(run["failed"] for run in results)
                / max(1, sum(run["attempted"] for run in results))
                for side, results in runs.items()
            }
            correct = {
                side: all(run["correct"] for run in results)
                for side, results in runs.items()
            }
            print(
                f"\nfailed share {shares['parent']:.2%} → {shares['change']:.2%}; "
                f"correct {correct['parent']} → {correct['change']}\n"
            )
            breaches += [
                f"{workload}: {name} is worse than its bound allows"
                for name, row in rows.items() if row["verdict"] == "worse"
            ]
            if shares["change"] > shares["parent"]:
                breaches.append(f"{workload}: a larger share of operations failed")
            if not correct["change"]:
                breaches.append(f"{workload}: a run of the change read a wrong byte")
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)
        if args.scratch is None:
            shutil.rmtree(scratch, ignore_errors=True)
    for breach in breaches:
        print(f"FAIL {breach}", file=sys.stderr)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
