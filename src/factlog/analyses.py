"""Bundled analysis presets and corpus-level runners.

A preset couples fact specs, a Datalog program, and a language.  On disk a
preset is a directory with a ``preset.cfg`` next to its ``.spec`` and ``.dl``
files:

    [preset]
    language = go
    specs = functions.spec
    program = program.dl
    primary_output = calls
    fact_relations = edge
    graph_relation = edge

The ``specs`` and ``program`` paths are relative to the preset directory and
may name a sibling preset's file (``../callgraph-c/program.dl``).
``fact_relations`` lists the relations counted as generated facts in run
statistics; ``graph_relation`` (optional) names the edge relation for graph
export.  The bundled directory can be overridden with the FACTLOG_PRESET_DIR
environment variable or an explicit ``base`` argument.

Only fact generation needs the matcher (``languages``, ``templates`` and
``rewrite``), so it is imported inside the functions that generate facts,
not here; the fact layer (``facts``) and the engine (``datalog``) are
imported inside the functions that build databases or evaluate.
``load_preset`` reads ``preset.cfg`` and parses the program with the front
end (``syntax``), failing fast on either and naming the file at fault; the
specs are compiled the first time ``fact_specs`` is read.  So loading a
preset imports only this module, ``syntax`` and ``errors``, and a solve or
query over fact files never loads the matcher and never reads a spec file.
"""

from __future__ import annotations

import configparser
import os
import time
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import DatalogError, FactlogError, SpecFormatError, in_file, read_text
from .syntax import DatalogProgram, parse_program

if TYPE_CHECKING:
    from .facts import Database
    from .languages import LanguageDefinition, SourceMap
    from .rewrite import FactSpec

PRESET_DIR_ENV = "FACTLOG_PRESET_DIR"

EXTENSIONS: dict[str, tuple[str, ...]] = {
    "go": (".go",),
    "c": (".c", ".h"),
    "zig": (".zig",),
    "arith": (".arith",),
}


class _PresetFields(NamedTuple):
    name: str
    language: str
    specs: tuple[FactSpec | Path, ...]
    program_text: str
    primary_output: str
    fact_relations: tuple[str, ...]
    graph_relation: str | None = None


class AnalysisPreset(_PresetFields):
    """A preset's settings, its fact specs and its Datalog program.

    ``specs`` holds compiled FactSpecs or paths of spec files.  The paths
    are compiled for the preset's language the first time ``fact_specs`` is
    read, and ``program()`` parses ``program_text`` on its first call.  Both
    results are kept and shared by later reads: treat them as read-only.
    """

    @cached_property
    def fact_specs(self) -> tuple[FactSpec, ...]:
        from .rewrite import FactSpec, load_fact_spec

        return tuple(
            s if isinstance(s, FactSpec) else load_fact_spec(s, language=self.language) for s in self.specs
        )

    def program(self) -> DatalogProgram:
        return self._program

    @cached_property
    def _program(self) -> DatalogProgram:
        return parse_program(self.program_text)

    def language_def(self) -> LanguageDefinition:
        from .languages import get_language

        return get_language(self.language)


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


# ---------------------------------------------------------------------------
# Preset loading


def preset_dir(base: str | Path | None = None) -> Path:
    if base is not None:
        return Path(base)
    env = os.environ.get(PRESET_DIR_ENV)
    if env:
        return Path(env)
    return Path(__file__).parent / "presets"


def list_presets(base: str | Path | None = None) -> list[str]:
    root = preset_dir(base)
    if not root.is_dir():
        return []
    return sorted(p.name for p in root.iterdir() if (p / "preset.cfg").is_file())


def load_preset(name: str, base: str | Path | None = None) -> AnalysisPreset:
    root = preset_dir(base) / name
    cfg_path = root / "preset.cfg"
    if not cfg_path.is_file():
        known = ", ".join(list_presets(base)) or "none found"
        raise FactlogError(f"unknown preset {name!r} (available: {known})")
    cfg = configparser.ConfigParser()
    try:
        cfg.read_string(read_text(cfg_path), source=str(cfg_path))
    except configparser.Error as exc:
        raise SpecFormatError(str(exc)) from None
    if not cfg.has_section("preset"):
        raise SpecFormatError(f"{cfg_path}: missing [preset] section")
    section = cfg["preset"]
    try:
        language = section["language"].strip()
        spec_names = section["specs"].split()
    except KeyError as exc:
        raise SpecFormatError(f"{cfg_path}: missing key {exc}") from None
    program_file = section.get("program", "").strip()
    primary_output = section.get("primary_output", "").strip()
    fact_relations = tuple(section.get("fact_relations", "").split())
    graph_relation = section.get("graph_relation", "").strip() or None
    preset = AnalysisPreset(
        name=name,
        language=language,
        specs=tuple(root / s for s in spec_names),
        program_text=read_text(root / program_file) if program_file else "",
        primary_output=primary_output,
        fact_relations=fact_relations,
        graph_relation=graph_relation,
    )
    if program_file:
        try:
            preset.program()  # fail fast on a broken program; the parse is kept
        except DatalogError as exc:
            raise in_file(exc, root / program_file) from None
    return preset


# ---------------------------------------------------------------------------
# File discovery


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


# ---------------------------------------------------------------------------
# Corpus runners


# The matcher's two steps per file.  They import their layer on the first
# call, and as names of this module a profiler can wrap them
# (perfbench/tracing.py does).


def classify(source: str, lang: LanguageDefinition) -> SourceMap:
    from .languages import classify

    return classify(source, lang)


def facts_for_smap(
    specs: tuple[FactSpec, ...], smap: SourceMap, path: str
) -> tuple[Database, dict[str, int], list[str]]:
    from .rewrite import facts_for_smap

    return facts_for_smap(specs, smap, path)


def _process_file(
    task: tuple[str, tuple[FactSpec, ...], LanguageDefinition]
) -> tuple[str, Database, dict[str, int], list[str], int]:
    path, specs, lang = task
    try:
        source = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        from .facts import Database

        return path, Database(), {}, [f"{path}: {exc}"], 0
    smap = classify(source, lang)
    db, matches, diagnostics = facts_for_smap(specs, smap, path)
    return path, db, matches, diagnostics, smap.line_count()


def run_fact_generation(
    preset: AnalysisPreset, paths: list[str | Path], jobs: int = 1
) -> tuple[Database, RunStats, list[str]]:
    """Generate facts for a corpus; returns (facts, stats, diagnostics).

    Results are merged in sorted path order, so output is independent of
    worker scheduling and of the jobs value.
    """
    from .facts import Database

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
