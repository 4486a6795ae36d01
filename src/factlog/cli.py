"""Command-line surface for the fact-generation and Datalog pipeline.

Subcommands:

    facts   generate facts from source files and write them out
    solve   evaluate a Datalog program over generated or stored facts
    query   answer a single query pattern against the solved database
    graph   export a binary relation as Graphviz dot text
    bench   per-corpus generation statistics (KLOC, facts, functions, time)
    match   debug: print raw template matches as JSON lines

Exit codes: 0 success, 2 usage errors, 3 input errors (missing or malformed
files, bad specs), 4 analysis errors (Datalog syntax/safety/stratification/
type failures, unknown relations or queries).

This module holds the shared plumbing, solve and query; each run compiles
only the code its command enters.  The other four subcommands live in
``commands``, imported when one of them runs.  The corpus runners
(``corpus``) are imported only by runs over sources, the matcher
(languages, templates, rewrite) only by the code that reads sources, spec
files or --langdef files, the goal-directed query code (``queries``) only by
query, and the reader and writer of ``.facts`` files (``tsv``) only by runs
that read or write them.  So a solve over ``.dl`` files compiles none of
these.

The cyclic garbage collector is off while a command runs: every tuple the
command derives is a container it would examine, in vain, since they are
freed by reference counting when the command returns.  The factlog process
itself (``__main__.run``) keeps it off from its first import to its exit.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from .analyses import PRESET_DIR_ENV, AnalysisPreset, list_presets, load_preset, run_fact_generation
from .datalog import evaluate
from .errors import ArityMismatch, DatalogError, FactlogError, TypeMismatch, UnboundHole, in_file, read_text
from .facts import Database, _tuple_key, dl_rows, first_bad_row, row_error
from .syntax import Atom, DatalogProgram, Variable, parse_query

if TYPE_CHECKING:
    from .corpus import RunStats

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_ANALYSIS = 4

FACT_SUFFIXES = (".dl", ".facts")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Shared plumbing


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _resolve_preset(args: argparse.Namespace) -> AnalysisPreset:
    """The preset the arguments name.  Over sources its specs are compiled
    here, so a broken spec fails before any input is read; over fact files
    they are never read."""
    if args.langdef:
        from .languages import load_language_file

        for path in args.langdef:
            load_language_file(path)
    if args.preset and args.spec:
        raise UsageError("--preset and --spec are mutually exclusive")
    fact_inputs = _all_fact_inputs([Path(p) for p in args.inputs])
    if args.preset:
        preset = load_preset(args.preset, args.preset_dir)
    elif args.spec:
        if not args.lang:
            raise UsageError("--spec requires --lang")
        preset = AnalysisPreset("custom", args.lang, tuple(Path(p) for p in args.spec), graph_relation="edge")
    elif fact_inputs:
        # pure solver mode: inputs are fact files, no matching needed
        preset = AnalysisPreset("facts", args.lang or "", specs=())
    else:
        known = ", ".join(list_presets(args.preset_dir)) or "none found"
        raise UsageError(f"provide --preset (available: {known}) or --lang with --spec")
    if args.program:
        preset = preset._replace(program_text=read_text(args.program))
        try:
            program = preset.program()  # fail fast, naming the file; the parse is kept
        except DatalogError as exc:
            raise in_file(exc, args.program) from None
        program.path = args.program
    if not fact_inputs:
        preset.fact_specs  # compiled on this first read
    return preset


def _gather_sources(args: argparse.Namespace, preset: AnalysisPreset) -> list[Path]:
    from .corpus import discover_files

    for item in args.inputs:
        if Path(item).suffix in FACT_SUFFIXES and Path(item).is_file():
            raise UsageError(f"{item} is a fact file; fact generation reads {preset.language} source files")
    files = discover_files(args.inputs, preset.language)
    if not files:
        raise FactlogError(f"no {preset.language} source files found under {args.inputs}")
    return files


def _all_fact_inputs(paths: list[Path]) -> bool:
    return bool(paths) and all(
        any(p.glob("*.facts")) if p.is_dir() else p.suffix in FACT_SUFFIXES for p in paths
    )


def _load_edb(args: argparse.Namespace, preset: AnalysisPreset) -> tuple[Database, RunStats | None, list[str]]:
    """Fact files load directly; anything else goes through fact generation."""
    paths = [Path(p) for p in args.inputs]
    missing = [p for p in paths if not p.exists()]
    if missing:
        raise FactlogError(f"no such file or directory: {missing[0]}")
    if _all_fact_inputs(paths):
        column_types = _column_types(preset)
        db = Database()
        for p in paths:
            if p.is_dir():
                part = Database.from_facts_dir(p, column_types)
            elif p.suffix == ".facts":
                part = Database.from_facts_file(p, column_types)
            else:
                part = Database.from_dl_text(read_text(p), p)
            try:
                db.merge(part)
            except ArityMismatch as exc:
                raise _located(in_file(exc, p), args, preset) from None
        return db, None, []
    files = _gather_sources(args, preset)
    return run_fact_generation(preset, files, jobs=args.jobs)


def _column_types(preset: AnalysisPreset) -> dict[str, tuple[str | None, ...]]:
    declarations = preset.program().declarations if preset.program_text.strip() else {}
    return {name: decl.column_types() for name, decl in declarations.items()}


def _located(exc: DatalogError, args: argparse.Namespace, preset: AnalysisPreset) -> DatalogError:
    """As ``path:line: ...``, the error of the first row of the input fact
    files, in argument and file order, that breaks an earlier row's arity
    or its relation's declaration; read again, on this error path only.
    Facts generated from sources have no line to name: exc stays."""
    paths = [Path(p) for p in args.inputs]
    if not _all_fact_inputs(paths):
        return exc
    types = _column_types(preset)
    bad = first_bad_row(_fact_rows(paths, types), types)
    return exc if bad is None else type(bad[1])(f"{bad[0]}: {bad[1]}")


def _fact_rows(paths: list[Path], column_types: dict) -> Iterator[tuple[str, str, tuple]]:
    """("path:line", relation, row) for each row, read as _load_edb reads it."""
    for p in paths:
        if p.is_dir() or p.suffix == ".facts":
            from .tsv import read_rows

            for f in sorted(p.glob("*.facts")) if p.is_dir() else [p]:
                yield from ((f"{f}:{n}", f.stem, row) for n, row in read_rows(f, column_types.get(f.stem)))
        else:
            yield from ((f"{p}:{n}", relation, row) for n, relation, row in dl_rows(read_text(p)))


def _emit_diagnostics(diagnostics: list[str]) -> None:
    for line in diagnostics:
        print(line, file=sys.stderr)


def _write_db(db: Database, out: Path, fmt: str, relations, dl_name: str) -> list[Path]:
    sub = Database()
    sub.relations = {rel: db.relations.get(rel, set()) for rel in relations}  # shared: the writers only read
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "dl":
        target = out / dl_name
        target.write_text(sub.to_dl_text(), encoding="utf-8")
        return [target]
    return sub.write_facts_dir(out)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_solve(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    if not preset.program_text.strip():
        raise UsageError("solve needs a Datalog program: use --preset or --program")
    program = preset.program()
    edb, _, diagnostics = _load_edb(args, preset)
    _emit_diagnostics(diagnostics)
    try:
        solved = evaluate(program, edb)
    except (ArityMismatch, TypeMismatch) as exc:
        raise _located(exc, args, preset) from None
    idb = sorted(program.idb_relations())
    written = _write_db(solved, Path(args.out), args.format, idb, "idb.dl")
    for rel in idb:
        print(f"{rel}: {len(solved.tuples(rel))} tuples")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    from .queries import goal_directed, query

    preset = _resolve_preset(args)
    pattern = parse_query(args.query)
    edb, _, diagnostics = _load_edb(args, preset)
    _emit_diagnostics(diagnostics)
    db, asked = edb, pattern
    if preset.program_text.strip():
        program = preset.program()
        try:
            goal = goal_directed(program, edb, pattern)
        except (ArityMismatch, TypeMismatch) as exc:
            raise _located(exc, args, preset) from None
        _check_constants(program, pattern)
        db, asked = evaluate(goal.program, goal.edb), goal.pattern
    result = query(db, asked)
    has_vars = any(isinstance(t, Variable) and t.name != "_" for t in pattern.terms)
    if not has_vars:
        print("true" if result else "false")
        return EXIT_OK
    for tup in sorted(result, key=_tuple_key):
        print("\t".join(str(v) for v in tup))
    return EXIT_OK


def _check_constants(program: DatalogProgram, pattern: Atom) -> None:
    """A constant that its column's type rules out fails as it would in an
    input tuple, instead of matching nothing."""
    decl = program.declarations.get(pattern.relation)
    if decl is None:
        return
    types = tuple(None if isinstance(v, Variable) else t for t, v in zip(decl.column_types(), pattern.terms))
    if (error := row_error(pattern.relation, types, pattern.terms)) is not None:
        raise error


# ---------------------------------------------------------------------------
# Parser


def _command(name: str) -> Callable[[argparse.Namespace], int]:
    """The subcommand of that name in ``commands``, imported when it runs."""

    def run(args: argparse.Namespace) -> int:
        from . import commands

        return getattr(commands, name)(args)

    return run


_COMMANDS = {
    "facts": "generate facts from source files",
    "solve": "evaluate the Datalog program over facts",
    "query": "answer one query over the solved database",
    "graph": "export a binary relation as Graphviz dot",
    "bench": "per-corpus fact-generation statistics",
    "match": "print template matches as JSON lines",
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of a run.  Every subcommand is registered by name and
    help string, but only the one argv names gets its arguments; when argv
    names none (``--help``, a typo), every one does, so help and usage
    errors read the same either way."""
    parser = argparse.ArgumentParser(
        prog="factlog",
        description="Template-driven fact generation and Datalog analysis over source code.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    for command, summary in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        if named in (None, command):
            _add_arguments(sp, command)
    return parser


def _add_arguments(sp: argparse.ArgumentParser, command: str) -> None:
    if command == "match":
        sp.add_argument("inputs", nargs="+", help="source files or directories")
        sp.add_argument("--lang", required=True)
        sp.add_argument("--template", "-t", help="match template text")
        sp.add_argument("--spec", help="take the match template from a spec file")
        sp.add_argument("--langdef", action="append", metavar="FILE")
        sp.set_defaults(func=_command("cmd_match"))
        return
    # the arguments of every command but match
    sp.add_argument("inputs", nargs="+", help="source files/directories, .dl fact text, or .facts files")
    sp.add_argument("--preset", "-p", help="bundled analysis preset name")
    sp.add_argument("--preset-dir", help=f"preset directory (default: bundled, or ${PRESET_DIR_ENV})")
    sp.add_argument("--lang", help="language name for ad-hoc --spec runs")
    sp.add_argument("--spec", action="append", metavar="FILE", help="fact spec file (repeatable)")
    sp.add_argument("--program", metavar="FILE", help="Datalog program (.dl) overriding the preset's")
    sp.add_argument("--langdef", action="append", metavar="FILE", help="register a custom language file")
    sp.add_argument("--jobs", "-j", type=_positive_int, default=1, help="parallel workers for fact generation")
    if command in ("facts", "solve"):
        sp.add_argument("--format", choices=("dl", "tsv"), default="dl")
        sp.add_argument("--out", "-o", default="factlog-out", help="output directory")
    elif command == "query":
        sp.add_argument("--query", "-q", required=True, help="pattern like 'calls(\"main\", X)'")
    elif command == "graph":
        sp.add_argument("--relation", help="relation to export (default: the preset's edge relation)")
        sp.add_argument("--closure", action="store_true", help="export the preset's computed closure instead")
        sp.add_argument("--out", "-o", help="output file (default: stdout)")
    elif command == "bench":
        sp.add_argument("--json", action="store_true", help="one JSON object per corpus row")
    sp.set_defaults(func={"solve": cmd_solve, "query": cmd_query}.get(command) or _command(f"cmd_{command}"))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()  # until the command's frame, and all it derived, is freed
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"factlog: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatalogError, UnboundHole) as exc:
        print(f"factlog: analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except (FactlogError, OSError) as exc:
        print(f"factlog: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
