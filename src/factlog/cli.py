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

The matcher (languages, templates, rewrite) is imported only by the code
that reads sources, spec files or --langdef files, so solve, query and
graph over fact files never load it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analyses import (
    PRESET_DIR_ENV,
    AnalysisPreset,
    RunStats,
    discover_files,
    list_presets,
    load_preset,
    run_fact_generation,
)
from .datalog import evaluate, goal_directed, query
from .errors import (
    ArityMismatch,
    DatalogError,
    FactlogError,
    TypeMismatch,
    UnboundHole,
    UnknownRelation,
    UnstratifiableProgram,
    in_file,
    read_text,
)
from .facts import Database, _tuple_key
from .syntax import Atom, DatalogProgram, Variable, parse_query

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


def _add_input_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("inputs", nargs="+", help="source files/directories, .dl fact text, or .facts files")
    sp.add_argument("--preset", "-p", help="bundled analysis preset name")
    sp.add_argument(
        "--preset-dir",
        default=None,
        help=f"preset directory (default: bundled, or ${PRESET_DIR_ENV})",
    )
    sp.add_argument("--lang", help="language name for ad-hoc --spec runs")
    sp.add_argument("--spec", action="append", metavar="FILE", help="fact spec file (repeatable)")
    sp.add_argument("--program", metavar="FILE", help="Datalog program (.dl) overriding the preset's")
    sp.add_argument("--langdef", action="append", metavar="FILE", help="register a custom language file")
    sp.add_argument("--jobs", "-j", type=_positive_int, default=1, help="parallel workers for fact generation")


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
        preset = AnalysisPreset(
            name="custom",
            language=args.lang,
            specs=tuple(Path(p) for p in args.spec),
            program_text="",
            primary_output="",
            fact_relations=(),
            graph_relation="edge",
        )
    elif fact_inputs:
        # pure solver mode: inputs are fact files, no matching needed
        preset = AnalysisPreset(
            name="facts",
            language=args.lang or "",
            specs=(),
            program_text="",
            primary_output="",
            fact_relations=(),
        )
    else:
        known = ", ".join(list_presets(args.preset_dir)) or "none found"
        raise UsageError(f"provide --preset (available: {known}) or --lang with --spec")
    if args.program:
        preset = preset._replace(program_text=read_text(args.program))
        try:
            preset.program()  # fail fast, naming the file; the parse is kept
        except DatalogError as exc:
            raise in_file(exc, args.program) from None
    if not fact_inputs:
        preset.fact_specs  # compiled on this first read
    return preset


def _gather_sources(args: argparse.Namespace, preset: AnalysisPreset) -> list[Path]:
    for item in args.inputs:
        if Path(item).suffix in FACT_SUFFIXES and Path(item).is_file():
            raise UsageError(f"{item} is a fact file; fact generation reads {preset.language} source files")
    files = discover_files(args.inputs, preset.language)
    if not files:
        raise FactlogError(f"no {preset.language} source files found under {args.inputs}")
    return files


def _all_fact_inputs(paths: list[Path]) -> bool:
    for p in paths:
        if p.suffix in FACT_SUFFIXES and not p.is_dir():
            continue
        if p.is_dir() and any(p.glob("*.facts")):
            continue
        return False
    return bool(paths)


def _load_edb(
    args: argparse.Namespace, preset: AnalysisPreset
) -> tuple[Database, RunStats | None, list[str]]:
    """Fact files load directly; anything else goes through fact generation."""
    paths = [Path(p) for p in args.inputs]
    missing = [p for p in paths if not p.exists()]
    if missing:
        raise FactlogError(f"no such file or directory: {missing[0]}")
    if _all_fact_inputs(paths):
        column_types = {
            name: decl.column_types()
            for name, decl in (
                preset.program().declarations.items() if preset.program_text.strip() else ()
            )
        }
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
                raise in_file(exc, p) from None
        return db, None, []
    files = _gather_sources(args, preset)
    return run_fact_generation(preset, files, jobs=args.jobs)


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


def _summary_line(stats: RunStats) -> str:
    fpf = stats.facts_per_function
    line = (
        f"files={stats.files} kloc={stats.kloc:.3f} facts={stats.fact_count} "
        f"functions={stats.function_count} elapsed_s={stats.elapsed_s:.2f}"
    )
    if fpf is not None:
        line += f" facts_per_function={fpf:.2f}"
    return line


# ---------------------------------------------------------------------------
# Subcommands


def cmd_facts(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    files = _gather_sources(args, preset)
    db, stats, diagnostics = run_fact_generation(preset, files, jobs=args.jobs)
    _emit_diagnostics(diagnostics)
    written = _write_db(db, Path(args.out), args.format, sorted(db.relations), "facts.dl")
    print(_summary_line(stats))
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    if not preset.program_text.strip():
        raise UsageError("solve needs a Datalog program: use --preset or --program")
    program = preset.program()
    edb, _, diagnostics = _load_edb(args, preset)
    _emit_diagnostics(diagnostics)
    solved = evaluate(program, edb)
    idb = sorted(program.idb_relations())
    written = _write_db(solved, Path(args.out), args.format, idb, "idb.dl")
    for rel in idb:
        print(f"{rel}: {len(solved.tuples(rel))} tuples")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    pattern = parse_query(args.query)
    edb, _, diagnostics = _load_edb(args, preset)
    _emit_diagnostics(diagnostics)
    db, asked = edb, pattern
    if preset.program_text.strip():
        program = preset.program()
        goal = goal_directed(program, edb, pattern)
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
    for i, (t, v) in enumerate(zip(decl.column_types(), pattern.terms)):
        if t is not None and not isinstance(v, Variable) and isinstance(v, int) != (t == "number"):
            raise TypeMismatch(f"{pattern.relation!r} column {i + 1} expects a {t}, got {v!r}")


def cmd_graph(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    if args.relation:
        relation = args.relation
    elif args.closure:
        relation = preset.primary_output
    else:
        relation = preset.graph_relation or "edge"
    if not relation:
        raise UsageError("no graph relation: pass --relation")
    edb, _, diagnostics = _load_edb(args, preset)
    _emit_diagnostics(diagnostics)
    db = edb
    if relation not in db.relations and preset.program_text.strip():
        db = evaluate(preset.program(), edb)
    if relation not in db.relations:
        raise UnknownRelation(f"relation {relation!r} is not present in the results")
    tuples = db.sorted_tuples(relation)
    if tuples and len(next(iter(tuples))) != 2:
        raise FactlogError(f"graph export needs a binary relation; {relation!r} is not")
    body = "".join(
        f'  "{_dot_escape(a)}" -> "{_dot_escape(b)}";\n' for a, b in tuples
    )
    text = f"digraph {relation} {{\n{body}}}\n"
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _dot_escape(value: str | int) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def cmd_bench(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    rows: list[tuple[str, RunStats]] = []
    for item in args.inputs:
        if not Path(item).exists():
            raise FactlogError(f"no such file or directory: {item}")
        files = discover_files([item], preset.language)
        _, stats, diagnostics = run_fact_generation(preset, files, jobs=args.jobs)
        _emit_diagnostics(diagnostics)
        rows.append((str(item), stats))
    if args.json:
        import json  # here, not at the top: only bench --json and match print JSON

        for name, stats in rows:
            print(json.dumps({"corpus": name, **stats.as_dict()}, sort_keys=True))
        return EXIT_OK
    header = f"{'corpus':<28} {'files':>6} {'kloc':>9} {'facts':>8} {'funcs':>7} {'time_s':>7} {'facts/func':>10}"
    print(header)
    for name, stats in rows:
        fpf = stats.facts_per_function
        ratio = f"{fpf:.2f}" if fpf is not None else "-"
        print(
            f"{name:<28} {stats.files:>6} {stats.kloc:>9.3f} {stats.fact_count:>8} "
            f"{stats.function_count:>7} {stats.elapsed_s:>7.2f} {ratio:>10}"
        )
    return EXIT_OK


def cmd_match(args: argparse.Namespace) -> int:
    from .languages import classify, get_language, load_language_file
    from .rewrite import load_fact_spec
    from .templates import compile_template, iter_matches, parse_template

    for path in args.langdef or []:
        load_language_file(path)
    if bool(args.template) == bool(args.spec):
        raise UsageError("match needs exactly one of --template or --spec")
    if not args.lang:
        raise UsageError("match requires --lang")
    lang = get_language(args.lang)
    if args.template:
        template = compile_template(parse_template(args.template), lang)
    else:
        template = load_fact_spec(args.spec, language=args.lang).match
    files = discover_files(args.inputs, args.lang)
    if not files:
        raise FactlogError(f"no {args.lang} source files found under {args.inputs}")
    import json  # here, not at the top: only bench --json and match print JSON

    for path in files:
        source = path.read_text(encoding="utf-8", errors="replace")
        smap = classify(source, lang)
        for m in iter_matches(template, smap):
            line, column = smap.line_col(m.start)
            record = {
                "path": str(path),
                "start": m.start,
                "end": m.end,
                "line": line,
                "column": column,
                "text": source[m.start : m.end],
                "holes": {
                    name: {"text": b.text, "line": b.line, "column": b.column}
                    for name, b in sorted(m.env.bindings.items())
                },
            }
            print(json.dumps(record, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factlog",
        description="Template-driven fact generation and Datalog analysis over source code.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("facts", help="generate facts from source files")
    _add_input_args(sp)
    sp.add_argument("--format", choices=("dl", "tsv"), default="dl")
    sp.add_argument("--out", "-o", default="factlog-out", help="output directory")
    sp.set_defaults(func=cmd_facts)

    sp = sub.add_parser("solve", help="evaluate the Datalog program over facts")
    _add_input_args(sp)
    sp.add_argument("--format", choices=("dl", "tsv"), default="dl")
    sp.add_argument("--out", "-o", default="factlog-out", help="output directory")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("query", help="answer one query over the solved database")
    _add_input_args(sp)
    sp.add_argument("--query", "-q", required=True, help="pattern like 'calls(\"main\", X)'")
    sp.set_defaults(func=cmd_query)

    sp = sub.add_parser("graph", help="export a binary relation as Graphviz dot")
    _add_input_args(sp)
    sp.add_argument("--relation", help="relation to export (default: the preset's edge relation)")
    sp.add_argument("--closure", action="store_true", help="export the preset's computed closure instead")
    sp.add_argument("--out", "-o", help="output file (default: stdout)")
    sp.set_defaults(func=cmd_graph)

    sp = sub.add_parser("bench", help="per-corpus fact-generation statistics")
    _add_input_args(sp)
    sp.add_argument("--json", action="store_true", help="one JSON object per corpus row")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("match", help="print template matches as JSON lines")
    sp.add_argument("inputs", nargs="+", help="source files or directories")
    sp.add_argument("--lang", required=True)
    sp.add_argument("--template", "-t", help="match template text")
    sp.add_argument("--spec", help="take the match template from a spec file")
    sp.add_argument("--langdef", action="append", metavar="FILE")
    sp.set_defaults(func=cmd_match)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"factlog: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatalogError, UnboundHole) as exc:
        if isinstance(exc, UnstratifiableProgram) and getattr(args, "program", None):
            in_file(exc, args.program)  # evaluation, not loading, finds this program error
        print(f"factlog: analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except (FactlogError, OSError) as exc:
        print(f"factlog: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
