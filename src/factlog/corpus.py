"""Corpus-level runners: file discovery, fact generation over many files,
and the run statistics.

Only a run over sources enters this code, so ``analyses`` imports it on the
first call of ``run_fact_generation`` and a run over fact files never
compiles it.  Each file goes through ``analyses._process_file``, whose two
matcher steps are names of ``analyses`` that a profiler can wrap.
"""

from __future__ import annotations

import time
from pathlib import Path

from .analyses import AnalysisPreset, _process_file
from .errors import FactlogError
from .facts import Database

EXTENSIONS: dict[str, tuple[str, ...]] = {
    "go": (".go",),
    "c": (".c", ".h"),
    "zig": (".zig",),
    "arith": (".arith",),
}


class RunStats:
    """Corpus-level counters for one fact-generation run.

    fact_count sums each file's unique facts over the preset's fact
    relations, so a call edge appearing in two files counts twice;
    function_count is the total number of outer-template matches.
    """

    def __init__(
        self,
        files: int = 0,
        line_count: int = 0,
        fact_count: int = 0,
        function_count: int = 0,
        spec_matches: dict[str, int] | None = None,
        elapsed_s: float = 0.0,
    ) -> None:
        self.files = files
        self.line_count = line_count
        self.fact_count = fact_count
        self.function_count = function_count
        self.spec_matches = {} if spec_matches is None else spec_matches
        self.elapsed_s = elapsed_s

    @property
    def kloc(self) -> float:
        return self.line_count / 1000.0

    @property
    def facts_per_function(self) -> float | None:
        if self.function_count == 0:
            return None
        return self.fact_count / self.function_count

    def as_dict(self) -> dict:
        return {
            "files": self.files,
            "line_count": self.line_count,
            "kloc": self.kloc,
            "fact_count": self.fact_count,
            "function_count": self.function_count,
            "spec_matches": dict(sorted(self.spec_matches.items())),
            "elapsed_s": self.elapsed_s,
            "facts_per_function": self.facts_per_function,
        }


def discover_files(inputs: list[str | Path], language: str) -> list[Path]:
    """Expand directories to language source files; keep explicit files as-is."""
    exts = EXTENSIONS.get(language, ())
    out: set[Path] = set()
    for item in inputs:
        p = Path(item)
        if p.is_dir():
            for ext in exts:
                out.update(q for q in p.rglob(f"*{ext}") if q.is_file())
        elif p.is_file():
            out.add(p)
        else:
            raise FactlogError(f"no such file or directory: {p}")
    return sorted(out)


def run_fact_generation(
    preset: AnalysisPreset, paths: list[str | Path], jobs: int = 1
) -> tuple[Database, RunStats, list[str]]:
    """Generate facts for a corpus; returns (facts, stats, diagnostics).

    Results are merged in sorted path order, so output is independent of
    worker scheduling and of the jobs value.
    """
    started = time.monotonic()
    lang = preset.language_def()
    specs = preset.fact_specs  # compiled here, before a pool forks, so no worker compiles them
    tasks = [(str(p), specs, lang) for p in sorted(Path(p) for p in paths)]
    if jobs > 1 and len(tasks) > 1:
        from multiprocessing import get_context  # imported here: ~5 ms every serial run would pay

        chunk = max(1, len(tasks) // (jobs * 4))
        with get_context("fork").Pool(jobs) as pool:
            results = pool.map(_process_file, tasks, chunksize=chunk)
    else:
        results = [_process_file(t) for t in tasks]

    db = Database()
    stats = RunStats(files=len(results))
    diagnostics: list[str] = []
    for _, file_db, matches, diags, lines in results:
        db.merge(file_db)
        stats.line_count += lines
        stats.fact_count += file_db.fact_count(preset.fact_relations or None)
        for name, n in matches.items():
            stats.spec_matches[name] = stats.spec_matches.get(name, 0) + n
        diagnostics.extend(diags)
    stats.function_count = sum(stats.spec_matches.values())
    stats.elapsed_s = time.monotonic() - started
    return db, stats, diagnostics


def run_analysis(
    preset: AnalysisPreset, paths: list[str | Path], jobs: int = 1
) -> tuple[Database, RunStats, list[str]]:
    """Fact generation followed by Datalog evaluation; the returned Database
    holds both the generated facts and the computed relations."""
    from .datalog import evaluate

    started = time.monotonic()
    facts, stats, diagnostics = run_fact_generation(preset, paths, jobs=jobs)
    solved = evaluate(preset.program(), facts)
    stats.elapsed_s = time.monotonic() - started
    return solved, stats, diagnostics
