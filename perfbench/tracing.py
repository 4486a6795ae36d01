"""One in-process ``factlog solve``, traced layer by layer.

Usage (run.py starts this in a fresh interpreter with factlog importable):

    python perfbench/tracing.py '<json job>'

The job names the inputs, the preset, the output directory, a run id, the
bound queries to answer after the solve, and where to write the spans.  The
solve goes through ``factlog.cli.main`` exactly as the CLI does.  The public
functions of each module are replaced by timing wrappers at the places the
program looks them up (module globals and class attributes), so private
helpers such as ``analyses._process_file`` run unchanged and call the
wrappers.  A function a later version no longer has is simply not wrapped,
and its metrics read 0.

The last stdout line is a JSON object: the exit code, the CLOCK_MONOTONIC
time at which the solve ended (the parent subtracts its spawn time, so the
traced total compares with an untraced CLI solve), the per-layer metrics,
and whether the traced Database equals an untraced ``run_fact_generation``
plus ``evaluate`` of the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from factlog import analyses, cli, datalog, facts, rewrite, templates


class Tracer:
    """Spans (name, start, end, parent, run id) and counters, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.patched: list[tuple[object, str, object]] = []
        self.last_solved = None

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def parent_name(self, idx: int) -> str | None:
        parent = self.spans[idx][3]
        return self.spans[parent][0] if parent >= 0 else None

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    def wrap_iter(self, name: str, fn, after=None):
        """Time each step of a generator; the consumer's work between steps
        belongs to the consumer's span, not to this one."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                if after is not None:
                    after(idx, args, item)
                yield item

        return traced

    def patch(self, owner: object, attr: str, name: str, after=None, gen: bool = False) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        if isinstance(original, classmethod):
            inner = self.wrap(name, original.__func__, after)
            replacement = classmethod(inner)
        else:
            replacement = (self.wrap_iter if gen else self.wrap)(name, original, after)
        self.patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        def chars(idx, args, result):
            self.count("chars", len(args[0]))

        def outer_match(idx, args, result):
            if self.parent_name(idx) == "rewrite.facts_for_smap":
                self.count("outer_matches")

        def kept(idx, args, result):
            if result is not None:
                self.count("kept")

        def fact_lines(idx, args, result):
            if self.parent_name(idx) == "rewrite.facts_for_smap":
                self.count("fact_lines", sum(1 for line in result.splitlines() if line.strip()))

        def bytes_out(idx, args, result):
            self.count("bytes_out", len(result.encode("utf-8")))

        def fact_generation(idx, args, result):
            self.count("lines_read", result[1].line_count)

        def evaluated(idx, args, result):
            program, edb = args[0], args[1]
            self.last_solved = result
            self.count("edb_tuples", sum(len(t) for t in edb.relations.values()))
            self.count("idb_tuples", sum(len(result.tuples(r)) for r in program.idb_relations()))

        self.patch(cli, "load_preset", "analyses.load_preset")
        self.patch(cli, "run_fact_generation", "analyses.run_fact_generation", fact_generation)
        self.patch(cli, "evaluate", "datalog.evaluate", evaluated)
        self.patch(analyses, "parse_program", "datalog.parse_program")
        self.patch(analyses, "classify", "languages.classify", chars)
        self.patch(analyses, "facts_for_smap", "rewrite.facts_for_smap")
        self.patch(rewrite, "iter_matches", "templates.iter_matches", outer_match, gen=True)
        self.patch(rewrite, "first_match", "templates.first_match")
        self.patch(rewrite, "apply_rule", "rewrite.apply_rule", kept)
        self.patch(rewrite, "substitute", "rewrite.substitute", fact_lines)
        self.patch(rewrite, "parse_fact_line", "facts.parse_fact_line")
        self.patch(facts, "parse_fact_line", "facts.parse_fact_line")
        self.patch(rewrite, "scan_balanced", "languages.scan_balanced")
        self.patch(templates, "scan_balanced", "languages.scan_balanced")
        self.patch(facts.Database, "merge", "facts.merge")
        self.patch(facts.Database, "from_dl_text", "facts.from_dl_text")
        self.patch(facts.Database, "to_dl_text", "facts.to_dl_text", bytes_out)
        self.patch(datalog, "stratify", "datalog.stratify")
        self.patch(datalog, "query", "datalog.query")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer busy time, self time, counts and ratios from the spans.

        A wrapped function never calls itself through a wrapped name, so a
        name's busy time is the plain sum of its spans' durations.
        """
        busy: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        outer_match_s = 0.0
        for name, start, end, parent in self.spans:
            dur = end - start
            busy[name] += dur
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += dur
                if name == "templates.iter_matches" and self.spans[parent][0] == "rewrite.facts_for_smap":
                    outer_match_s += dur
        apply_self = sum(
            (end - start) - child_time[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name == "rewrite.apply_rule"
        )
        c = self.counts
        return {
            "languages.classify_s": busy["languages.classify"],
            "languages.chars": c["chars"],
            "languages.scan_balanced_calls": calls["languages.scan_balanced"],
            "languages.scan_balanced_s": busy["languages.scan_balanced"],
            "templates.outer_match_s": outer_match_s,
            "templates.outer_matches": c["outer_matches"],
            "templates.first_match_calls": calls["templates.first_match"],
            "templates.first_match_s": busy["templates.first_match"],
            "rewrite.apply_rule_s": busy["rewrite.apply_rule"],
            "rewrite.apply_rule_self_s": apply_self,
            "rewrite.kept_ratio": _ratio(c["kept"], c["outer_matches"]),
            "rewrite.substitute_s": busy["rewrite.substitute"],
            "rewrite.fact_lines": c["fact_lines"],
            "facts.parse_s": busy["facts.parse_fact_line"],
            "facts.lines_parsed": calls["facts.parse_fact_line"],
            "facts.unique_ratio": _ratio(c["edb_tuples"], calls["facts.parse_fact_line"]),
            "facts.merge_s": busy["facts.merge"],
            "facts.load_s": busy["facts.from_dl_text"],
            "facts.serialize_s": busy["facts.to_dl_text"],
            "facts.bytes_out": c["bytes_out"],
            "datalog.parse_program_s": busy["datalog.parse_program"],
            "datalog.stratify_s": busy["datalog.stratify"],
            "datalog.evaluate_s": busy["datalog.evaluate"],
            "datalog.idb_tuples": c["idb_tuples"],
            "datalog.tuples_per_s": _ratio(c["idb_tuples"], busy["datalog.evaluate"]),
            "datalog.query_s": busy["datalog.query"],
            "datalog.query_calls": calls["datalog.query"],
            "analyses.load_preset_s": busy["analyses.load_preset"],
            "analyses.run_fact_generation_s": busy["analyses.run_fact_generation"],
            "analyses.kloc_per_s": _ratio(c["lines_read"] / 1000.0, busy["analyses.run_fact_generation"]),
            "trace.spans": len(self.spans),
        }

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps([self.run_id, name, start, end, parent]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _untraced_solve(inputs: list[str], preset_name: str):
    """run_fact_generation plus evaluate, or fact loading plus evaluate."""
    preset = analyses.load_preset(preset_name)
    if all(p.endswith(".dl") for p in inputs):
        edb = facts.Database()
        for p in inputs:
            edb.merge(facts.Database.from_dl_text(Path(p).read_text(encoding="utf-8")))
    else:
        files = analyses.discover_files(inputs, preset.language)
        edb, _, _ = analyses.run_fact_generation(preset, files)
    return datalog.evaluate(preset.program(), edb)


def main(job: dict) -> dict:
    tracer = Tracer(job["run_id"])
    tracer.install()
    root = tracer.open("cli.solve")
    argv = ["solve", *job["inputs"], "--preset", job["preset"], "--out", job["out"], "--jobs", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    tracer.close(root)
    ended = time.clock_gettime(time.CLOCK_MONOTONIC)
    solved = tracer.last_solved
    if solved is not None:
        for q in job["queries"]:
            datalog.query(solved, q)
    tracer.uninstall()
    db_equal = solved is not None and solved == _untraced_solve(job["inputs"], job["preset"])
    tracer.write_spans(Path(job["spans"]))
    return {"rc": rc, "ended": ended, "db_equal": db_equal, "metrics": tracer.metrics()}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
