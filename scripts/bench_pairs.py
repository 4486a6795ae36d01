#!/usr/bin/env python3
"""Compare two checkouts with perfbench, in alternating pairs of runs.

Usage:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload tc-random --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one
after the other; which side goes first alternates from pair to pair, so a
drift of the machine's speed weighs on both sides alike.  For each
end-to-end metric the script prints the parent's median with its q1-q3,
the change's median, the relative move of the medians, the paired move
(the median over the pairs of change / parent, less one), and in how many
pairs the change read lower.  On a host whose speed drifts, the two sides'
medians can come from different stretches of the run; the paired move
compares only runs made next to each other.

A checkout that holds ``src/factlog/__pycache__`` is refused: a stale
bytecode cache on one side makes that side recompile (or not) and skews
every pair.  The runs write no cache either (``PYTHONDONTWRITEBYTECODE=1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "solve_s", "query_s", "peak_rss_mb")


def run_once(root: Path, args: argparse.Namespace) -> dict[str, float]:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {root}: perfbench exited {proc.returncode}: {proc.stderr[-400:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"bench_pairs: {root}: {result['failed']} of {result['attempted']} invocations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in sides.values():
        if not (root / "perfbench" / "run.py").is_file():
            sys.exit(f"bench_pairs: {root} has no perfbench/run.py")
        if (root / "src" / "factlog" / "__pycache__").exists():
            sys.exit(f"bench_pairs: {root} holds src/factlog/__pycache__; remove it first")

    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args))
        cells = "  ".join(f"{m} {runs['parent'][-1][m]:.4f} -> {runs['change'][-1][m]:.4f}" for m in METRICS)
        print(f"pair {i + 1} ({order[0]} first): {cells}", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print(f"{'metric':<12} {'parent':>8} {'q1':>8} {'q3':>8} {'change':>8} {'move':>7} {'paired':>7}  lower")
    for metric in METRICS:
        before = [r[metric] for r in runs["parent"]]
        after = [r[metric] for r in runs["change"]]
        q1, _, q3 = statistics.quantiles(before, n=4) if len(before) > 1 else (before[0],) * 3
        b, a = statistics.median(before), statistics.median(after)
        lower = sum(y < x for x, y in zip(before, after))
        paired = statistics.median(y / x for x, y in zip(before, after)) - 1
        print(
            f"{metric:<12} {b:8.4f} {q1:8.4f} {q3:8.4f} {a:8.4f} {(a - b) / b:+7.1%} {paired:+7.1%}"
            f"  {lower}/{args.pairs}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
