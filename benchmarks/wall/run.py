"""Wall-clock benchmark of the shipped engine — the command of BENCHMARK.json.

    python3 benchmarks/wall/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints every metric by name with its unit, then — as the last line — one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Exits
non-zero when any op failed or any byte read back was wrong.

Other modes: ``--selfcheck`` (same seed twice, every count must repeat
exactly), ``--smoke`` (tiny sizes), ``--corrupt`` (test-only: flip one stored
byte, the run must then fail).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one round (the tier-1 smoke test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="test-only: flip one stored byte after set-up")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run one small epoch of each single-client "
                             "workload twice; counts must repeat exactly")
    args = parser.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    return args


def pin_hash_seed() -> None:
    """Re-exec with ``PYTHONHASHSEED=0``: the caches place entries in shards
    by ``hash()`` of keys that contain strings, so without a fixed hash seed
    per-shard evictions — and every count that follows — differ between
    identical runs."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def selfcheck(seed: int) -> int:
    """Same seed ⇒ same schedule digest and, on the single-client workloads,
    exactly the same counts.  Each run is a fresh interpreter: cache
    namespaces are numbered per process."""
    from wallbench.metrics import declared, exact_names
    from wallbench.workloads import WORKLOADS

    exact = exact_names(declared())
    failures = 0
    for workload in (name for name, kind in WORKLOADS.items() if not kind.event_loop):
        moved = set()
        digests = set()
        for trace in ("0", "1"):
            outputs = []
            for _ in range(2):
                done = subprocess.run(
                    [sys.executable, __file__, "--workload", workload, "--seed",
                     str(seed), "--smoke", "--trace", trace],
                    capture_output=True, text=True, timeout=170, check=True,
                )
                lines = done.stdout.splitlines()
                digests.add(next(x for x in lines if x.startswith("schedule_digest")))
                outputs.append(json.loads(lines[-1])["metrics"])
            first, second = outputs
            moved |= {
                name for name in first if name in exact and first[name] != second[name]
            }
        failures += bool(moved) or len(digests) != 1
        print(f"{workload}: {sorted(digests)}; counts that moved: {sorted(moved)}")
    print("selfcheck", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the engine is missing: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    pin_hash_seed()
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    if args.selfcheck:
        return selfcheck(args.seed)
    from wallbench.runner import run
    from wallbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {list(WORKLOADS)}",
              file=sys.stderr)
        return 2

    result = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        smoke=args.smoke, corrupt=args.corrupt,
    )
    for note in result.notes:
        print(note)
    for name, (value, unit) in result.metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(json.dumps(result.last_line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
