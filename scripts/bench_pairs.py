#!/usr/bin/env python3
"""Compare two checkouts with perfbench, in alternating pairs of runs.

Usage:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload tc-random --pairs 10
    python3 scripts/bench_pairs.py PARENT CHANGE --workload c-callgraph tc-random arith-liveness --pairs 10
    python3 scripts/bench_pairs.py PARENT CHANGE --workload c-callgraph --seed 1 2 --pairs 10
    python3 scripts/bench_pairs.py PARENT CHANGE --workload c-callgraph tc-random --seed 1 2 --pairs 10 \
        --claim setup_s:c-callgraph

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout for
every named workload at every named seed, the two sides of a workload and
seed one after the other; which side goes first alternates from pair to
pair, so a drift of the machine's speed weighs on both sides alike.  So a
held-out seed runs interleaved with the others, not in a later invocation
on a machine whose speed has moved.  For each workload, seed and
end-to-end metric the script prints the parent's median with its q1-q3,
the change's median, the relative move of the medians, the paired move
(the median over the pairs of change / parent, less one), and in how many
pairs the change read lower.  On a host whose speed drifts, the two sides'
medians can come from different stretches of the run; the paired move
compares only runs made next to each other.  A metric whose median on the
change is worse than the parent's by more than its bound in the parent's
``BENCHMARK.json`` is flagged at the end of its row.

``--claim METRIC:WORKLOAD`` tests a claimed gain at each seed and prints
"met" or "not met".  It is met when the change read lower in at least nine
tenths of the pairs, ties counting for neither side, and its median is
lower than the parent's by more than the parent's q1-q3 width.

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


def run_once(root: Path, workload: str, seed: int, args: argparse.Namespace) -> dict[str, float]:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {root}: perfbench exited {proc.returncode}: {proc.stderr[-400:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"bench_pairs: {root}: {result['failed']} of {result['attempted']} invocations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def bounds(root: Path) -> dict[str, tuple[float, str]]:
    """Each end-to-end metric's (bound, better) from root's BENCHMARK.json;
    none when the checkout has no such file."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: (m["bound"], m["better"]) for m in json.loads(path.read_text())["end_to_end"] if "bound" in m}


def compare(runs: dict[str, list[dict[str, float]]], metric: str) -> tuple[float, float, float, float, int, float]:
    """The parent's median, q1 and q3, the change's median, the pairs in
    which the change read lower, and the paired move, of one metric."""
    before = [r[metric] for r in runs["parent"]]
    after = [r[metric] for r in runs["change"]]
    q1, _, q3 = statistics.quantiles(before, n=4) if len(before) > 1 else (before[0],) * 3
    lower = sum(y < x for x, y in zip(before, after))
    paired = statistics.median(y / x for x, y in zip(before, after)) - 1
    return statistics.median(before), q1, q3, statistics.median(after), lower, paired


def summary(
    workload: str, seed: int, runs: dict[str, list[dict[str, float]]], limits, args: argparse.Namespace
) -> None:
    print(f"\n{workload}, seed {seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print(f"{'metric':<12} {'parent':>8} {'q1':>8} {'q3':>8} {'change':>8} {'move':>7} {'paired':>7}  lower")
    for metric in METRICS:
        b, q1, q3, a, lower, paired = compare(runs, metric)
        flag = ""
        if metric in limits:
            bound, better = limits[metric]
            worse = (a - b) / b if better == "lower" else (b - a) / b
            if worse > bound:
                flag = f"  WORSE by {worse:.1%}, bound {bound:.0%}"
        print(
            f"{metric:<12} {b:8.4f} {q1:8.4f} {q3:8.4f} {a:8.4f} {(a - b) / b:+7.1%} {paired:+7.1%}"
            f"  {lower}/{args.pairs}{flag}"
        )


def claim(metric: str, workload: str, seed: int, runs: dict[str, list[dict[str, float]]], pairs: int) -> None:
    b, q1, q3, a, lower, _ = compare(runs, metric)
    met = lower * 10 >= pairs * 9 and b - a > q3 - q1
    print(
        f"claim {metric} on {workload}, seed {seed}: {'met' if met else 'not met'}"
        f" ({lower}/{pairs} pairs lower; median {b:.4f} -> {a:.4f}, apart by {b - a:.4f};"
        f" parent q1-q3 width {q3 - q1:.4f})"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    parser.add_argument("--claim", metavar="METRIC:WORKLOAD", help="test a claimed gain: see the module docstring")
    args = parser.parse_args()
    claimed, _, claimed_on = (args.claim or "").partition(":")
    if args.claim and (claimed not in METRICS or claimed_on not in args.workload):
        parser.error(f"--claim {args.claim}: name one of {', '.join(METRICS)} and a --workload, as METRIC:WORKLOAD")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in sides.values():
        if not (root / "perfbench" / "run.py").is_file():
            sys.exit(f"bench_pairs: {root} has no perfbench/run.py")
        if (root / "src" / "factlog" / "__pycache__").exists():
            sys.exit(f"bench_pairs: {root} holds src/factlog/__pycache__; remove it first")

    runs = {(w, seed): {"parent": [], "change": []} for w in args.workload for seed in args.seed}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for (workload, seed), by_side in runs.items():
            for side in order:
                by_side[side].append(run_once(sides[side], workload, seed, args))
            cells = "  ".join(
                f"{m} {by_side['parent'][-1][m]:.4f} -> {by_side['change'][-1][m]:.4f}" for m in METRICS
            )
            label = f" {workload}" if len(args.workload) > 1 else ""
            label += f" seed {seed}" if len(args.seed) > 1 else ""
            print(f"pair {i + 1} ({order[0]} first){label}: {cells}", flush=True)

    limits = bounds(sides["parent"])
    for (workload, seed), by_side in runs.items():
        summary(workload, seed, by_side, limits, args)
    if args.claim:
        print()
        for seed in args.seed:
            claim(claimed, claimed_on, seed, runs[claimed_on, seed], args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
