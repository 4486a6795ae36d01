"""Bundled analysis presets, and the entry points of fact generation.

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
environment variable or an explicit ``base`` argument.  ``preset.cfg`` is
read by ``errors.read_ini``, the reader of language files too: ``%`` is a
plain character, not interpolation, and ``[DEFAULT]`` is an ordinary
section that lends no keys to ``[preset]``.

Only fact generation needs the matcher (``languages``, ``templates`` and
``rewrite``) and the corpus runners (``corpus``: ``run_fact_generation``,
``run_analysis``, ``discover_files`` and ``RunStats``), so they are imported
inside the functions that generate facts, not here.  The runners' public
names still resolve here: ``run_fact_generation`` imports its runner on the
first call, and the others are imported from ``corpus`` on first access.
``load_preset`` reads ``preset.cfg`` and parses the program with the front
end (``syntax``), failing fast on either and naming the file at fault; the
parsed program keeps its file's path, so that an error found only when it
is evaluated, a negation inside a recursive cycle, names the file too.  The
specs are compiled the first time ``fact_specs`` is read.  So loading a
preset imports only this module, ``syntax`` and ``errors``, and a solve or
query over fact files never loads the matcher or the runners and never
reads a spec file.
"""

from __future__ import annotations

import os
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import DatalogError, FactlogError, SpecFormatError, in_file, read_ini, read_text
from .syntax import DatalogProgram, parse_program

if TYPE_CHECKING:
    from .corpus import RunStats
    from .facts import Database
    from .languages import LanguageDefinition, SourceMap
    from .rewrite import FactSpec

PRESET_DIR_ENV = "FACTLOG_PRESET_DIR"

_CORPUS_NAMES = ("RunStats", "discover_files", "run_analysis")


def __getattr__(name: str):
    if name not in _CORPUS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import corpus

    return getattr(corpus, name)


class _PresetFields(NamedTuple):
    name: str
    language: str
    specs: tuple[FactSpec | Path, ...]
    program_text: str = ""
    primary_output: str = ""
    fact_relations: tuple[str, ...] = ()
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
    section = read_ini(cfg_path, SpecFormatError).get("preset")
    if section is None:
        raise SpecFormatError(f"{cfg_path}: missing [preset] section")
    try:
        language = section["language"]
        spec_names = section["specs"].split()
    except KeyError as exc:
        raise SpecFormatError(f"{cfg_path}: missing key {exc}") from None
    program_file = section.get("program", "")
    primary_output = section.get("primary_output", "")
    fact_relations = tuple(section.get("fact_relations", "").split())
    graph_relation = section.get("graph_relation") or None
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
            program = preset.program()  # fail fast on a broken program; the parse is kept
        except DatalogError as exc:
            raise in_file(exc, root / program_file) from None
        program.path = str(root / program_file)
    return preset


# ---------------------------------------------------------------------------
# Fact generation


# The runner, and the matcher's two steps per file.  They import their code
# on the first call, and as names of this module a profiler can wrap them
# (perfbench/tracing.py does).


def run_fact_generation(
    preset: AnalysisPreset, paths: list[str | Path], jobs: int = 1
) -> tuple[Database, RunStats, list[str]]:
    """Generate facts for a corpus; returns (facts, stats, diagnostics).
    See ``corpus.run_fact_generation``."""
    from .corpus import run_fact_generation

    return run_fact_generation(preset, paths, jobs)


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
    """One file's facts, matches per spec, diagnostics and line count."""
    path, specs, lang = task
    try:
        source = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        from .facts import Database

        return path, Database(), {}, [f"{path}: {exc}"], 0
    smap = classify(source, lang)
    db, matches, diagnostics = facts_for_smap(specs, smap, path)
    return path, db, matches, diagnostics, smap.line_count()


