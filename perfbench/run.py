#!/usr/bin/env python3
"""factlog benchmark: seeded workloads through the real CLI, checked answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload c-callgraph --seed 1 --seconds 40 --trace 0

--trace 0 measures the end-to-end metrics.  Every invocation is a fresh
``python -m factlog`` process with ``--jobs 1``, because every CLI user pays
set-up on every call.  One round times:

    setup_wall_s  fresh interpreter: import factlog, load_preset, program()
                  (timed inside the child)
    solve_wall_s  wall time of ``factlog solve <inputs> --preset P --out DIR``
    query_wall_s  wall time of ``factlog query <inputs> --preset P -q <bound query>``
    peak_rss_mb   peak RSS of the solve process, from os.wait4
    calib_s       a fixed pure-Python loop that does not use factlog

The speed of a shared machine drifts by a quarter and more over minutes, and
all of a run's timings drift together.  So the reported setup_s, solve_s and
query_s are the wall medians in reference seconds: multiplied by
CALIB_REF_S / median(calib_s) of the same run.  The wall medians are printed
in the summary.

--trace 1 reports the per-layer metrics.  Each round runs an untraced CLI
solve, a traced in-process solve (perfbench/tracing.py) and a CLI solve with
--jobs <usable cores>.  The tracing overhead is the traced total minus the
untraced solve.  Spans of the last traced solve go to
.perfbench-out/spans-<workload>-s<seed>.jsonl.

Rounds repeat until --seconds is used up (at least three); each timing is the
median over the rounds.  Every output is checked against the workload's own
reference; an invocation fails if it exits non-zero or its output differs.
The last stdout line is the result object; the lines before it are an
environment record and a human summary.  Exits 2 without a result when the
factlog sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import workloads
from check import query_output_ok, solve_output_ok

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench-out"
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 20.0
HARD_LIMIT_S = 100.0  # stop starting rounds after this, whatever --seconds says

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import factlog
factlog.load_preset(sys.argv[1]).program()
print(time.perf_counter() - t0)
"""

# Frozen: changing it changes every reported time.  Scanning, counting and
# sorting strings is the kind of interpreter work factlog does.
CALIB_CODE = """\
import re, time
t0 = time.perf_counter()
word = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
counts = {}
for i in range(35000):
    line = f"fn{i % 97}_{i % 13}(a, b) + helper_{i % 31}(x{i}, \\"s{i % 7}\\")"
    for w in word.findall(line):
        counts[w] = counts.get(w, 0) + 1
text = "\\n".join(f"{k}\\t{v}" for k, v in sorted(counts.items()))
print(time.perf_counter() - t0)
"""
CALIB_REF_S = 0.2  # about calib_s (0.16 to 0.2 s) on the 2-vCPU machine that set the bounds


class Child(NamedTuple):
    ok: bool  # exited 0
    started: float  # CLOCK_MONOTONIC at spawn
    wall_s: float
    rss_mb: float
    stdout: str


class Bench:
    """Runs invocations for one generated workload and tallies failures."""

    def __init__(self, w: workloads.Workload, work: Path):
        self.w = w
        self.work = work
        self.inputs = [str(p) for p in w.inputs]
        self.env = {k: v for k, v in os.environ.items() if k != "FACTLOG_PRESET_DIR"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"  # set order, and so timing, repeats across runs
        self.attempted = 0
        self.failed = 0
        self.verified: dict[bytes, bool] = {}  # output bytes already checked

    def spawn(self, cmd: list[str]) -> Child:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            started = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.clock_gettime(time.CLOCK_MONOTONIC) - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace")[-400:]
            print(f"perfbench: {cmd[1:4]} exited {proc.returncode}: {tail}", file=sys.stderr)
        self.attempted += 1
        stdout = out_path.read_text(errors="replace")
        return Child(proc.returncode == 0, started, wall, usage.ru_maxrss / 1024.0, stdout)

    def record(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            print(f"perfbench: wrong or failed {what}", file=sys.stderr)

    def output_ok(self, idb: Path) -> bool:
        if not idb.is_file():
            return False
        data = idb.read_bytes()
        if data not in self.verified:
            text = data.decode("utf-8", "replace")
            self.verified[data] = solve_output_ok(text, self.w.relation, self.w.expected)
        return self.verified[data]

    def probe(self, code: str, *args: str) -> float | None:
        """Run a snippet that prints its own duration; None if it failed."""
        child = self.spawn([sys.executable, "-c", code, *args])
        try:
            value = float(child.stdout.split()[-1]) if child.ok else None
        except (ValueError, IndexError):
            value = None
        self.record(value is not None, "probe")
        return value

    def solve(self, jobs: int) -> Child:
        out_dir = self.work / f"solve-j{jobs}"
        shutil.rmtree(out_dir, ignore_errors=True)
        child = self.spawn([sys.executable, "-m", "factlog", "solve", *self.inputs,
                            "--preset", self.w.preset, "--out", str(out_dir), "--jobs", str(jobs)])
        self.record(child.ok and self.output_ok(out_dir / "idb.dl"), f"solve --jobs {jobs}")
        return child

    def query(self, text: str) -> Child:
        child = self.spawn([sys.executable, "-m", "factlog", "query", *self.inputs,
                            "--preset", self.w.preset, "--jobs", "1", "-q", text])
        self.record(child.ok and query_output_ok(child.stdout, self.w.answers(text)), f"query {text}")
        return child

    def traced_solve(self, run_id: str, spans: Path) -> tuple[dict | None, float]:
        """In-process traced solve; returns (child result, seconds to end of solve).

        Its idb.dl must match the reference, and so be byte-identical to the
        untraced CLI output, which matched the same reference.
        """
        out_dir = self.work / "traced"
        shutil.rmtree(out_dir, ignore_errors=True)
        job = {"inputs": self.inputs, "preset": self.w.preset, "out": str(out_dir),
               "run_id": run_id, "queries": self.w.queries, "spans": str(spans)}
        child = self.spawn([sys.executable, str(Path(__file__).with_name("tracing.py")), json.dumps(job)])
        try:
            result = json.loads(child.stdout.splitlines()[-1]) if child.ok else None
        except (ValueError, IndexError):
            result = None
        good = (result is not None and result["rc"] == 0 and result["db_equal"] is True
                and self.output_ok(out_dir / "idb.dl"))
        self.record(good, "traced solve")
        return (result, result["ended"] - child.started) if good else (None, 0.0)


def _rounds(seconds: float, one_round) -> int:
    """Call one_round() until the time is used up; returns rounds run."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t = time.perf_counter()
        one_round()
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if elapsed > HARD_LIMIT_S:
            break
        if len(durations) >= MIN_ROUNDS and elapsed + statistics.median(durations) > seconds:
            break
    return len(durations)


def end_to_end(bench: Bench, seconds: float) -> tuple[dict[str, float], dict[str, list[float]], int]:
    samples: dict[str, list[float]] = {
        "calib_s": [], "setup_wall_s": [], "solve_wall_s": [], "query_wall_s": [], "peak_rss_mb": []
    }

    def one_round() -> None:
        for name, value in (("calib_s", bench.probe(CALIB_CODE)),
                            ("setup_wall_s", bench.probe(SETUP_CODE, bench.w.preset))):
            if value is not None:
                samples[name].append(value)
        solve = bench.solve(1)
        samples["solve_wall_s"].append(solve.wall_s)
        samples["peak_rss_mb"].append(solve.rss_mb)
        queries = bench.w.queries
        query = bench.query(queries[len(samples["query_wall_s"]) % len(queries)])
        samples["query_wall_s"].append(query.wall_s)

    rounds = _rounds(seconds, one_round)
    metrics = {"peak_rss_mb": statistics.median(samples["peak_rss_mb"])}
    if samples["calib_s"]:
        scale = CALIB_REF_S / statistics.median(samples["calib_s"])
        for name in ("setup_s", "solve_s", "query_s"):
            walls = samples[f"{name[:-2]}_wall_s"]
            if walls:
                metrics[name] = statistics.median(walls) * scale
    return metrics, samples, rounds


def traced(bench: Bench, seconds: float, jobs_par: int, run_prefix: str) -> tuple[dict[str, float], dict[str, list[float]], int]:
    spans = OUT_ROOT / f"spans-{run_prefix}.jsonl"
    samples: dict[str, list[float]] = {"cli.solve_s": [], "cli.solve_par_s": [], "trace.traced_total_s": []}

    def one_round() -> None:
        samples["cli.solve_s"].append(bench.solve(1).wall_s)
        result, total_s = bench.traced_solve(f"{run_prefix}-r{len(samples['cli.solve_s'])}", spans)
        if result is not None:
            samples["trace.traced_total_s"].append(total_s)
            for key, value in result["metrics"].items():
                samples.setdefault(key, []).append(value)
        samples["cli.solve_par_s"].append(bench.solve(jobs_par).wall_s)

    rounds = _rounds(seconds, one_round)
    if samples["trace.traced_total_s"]:
        traced_s = statistics.median(samples["trace.traced_total_s"])
        solve_s = statistics.median(samples["cli.solve_s"])
        samples["trace.overhead_s"] = [traced_s - solve_s]
        samples["trace.overhead_frac"] = [(traced_s - solve_s) / solve_s]
    metrics = {name: statistics.median(values) for name, values in samples.items() if values}
    return metrics, samples, rounds


def _unit(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith("kloc_per_s"):
        return "kloc/s"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    if metric.endswith("bytes_out"):
        return "bytes"
    return "count"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description="factlog benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "factlog" / "__init__.py").is_file():
        print(f"perfbench: no factlog sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    jobs_par = len(os.sched_getaffinity(0))
    prefix = f"{args.workload}-s{args.seed}"
    work = OUT_ROOT / f"{prefix}-{os.getpid()}"
    try:
        w = workloads.GENERATORS[args.workload](args.seed, work / "in")
        bench = Bench(w, work)
        bench.probe(SETUP_CODE, w.preset)  # warm-up: compiles factlog's bytecode
        if args.trace:
            metrics, samples, rounds = traced(bench, args.seconds, jobs_par, prefix)
        else:
            metrics, samples, rounds = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kloc": w.lines / 1000.0,
        "files": w.files,
        "edb_tuples": w.edb_tuples,
        "idb_tuples": len(w.expected),
        "jobs": [1, jobs_par] if args.trace else [1],
        "rounds": rounds,
        **w.extra,
    }
    print(json.dumps({"env": env}, sort_keys=True))
    print(f"{'failed_frac':<32} {bench.failed / bench.attempted:.4f} ratio "
          f"({bench.failed} of {bench.attempted} invocations)")
    for name, values in samples.items():
        if not values:
            continue
        spread = ""
        if len(values) >= 4:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f" (q1 {q1:.4g}, q3 {q3:.4g})"
        print(f"{name:<32} {statistics.median(values):.6g} {_unit(name)}, median of {len(values)}{spread}")
    if not args.trace:
        for name in ("setup_s", "solve_s", "query_s"):
            if name in metrics:
                print(f"{name:<32} {metrics[name]:.6g} s at reference speed")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
