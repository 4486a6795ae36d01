"""The subcommands that solve and query never enter: facts, graph, bench
and match.

``cli`` holds the shared plumbing, ``solve`` and ``query``, and imports this
module only when one of these four runs, so a solve or query never compiles
it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .cli import EXIT_OK, UsageError, _file_arg, _generate, _load_edb, _located, _resolve_preset, _sources, _write_db
from .datalog import check_edb, evaluate
from .errors import ArityMismatch, FactlogError, SpecFormatError, TypeMismatch, UnknownRelation

if TYPE_CHECKING:
    from .corpus import RunStats


def _summary_line(stats: RunStats) -> str:
    fpf = stats.facts_per_function
    line = (
        f"files={stats.files} kloc={stats.kloc:.3f} facts={stats.fact_count} "
        f"functions={stats.function_count} elapsed_s={stats.elapsed_s:.2f}"
    )
    if fpf is not None:
        line += f" facts_per_function={fpf:.2f}"
    return line


def cmd_facts(args: argparse.Namespace) -> int:
    out = Path(_file_arg("--out", args.out))
    preset = _resolve_preset(args)
    db, stats = _generate(args, preset, args.inputs)
    written = _write_db(db, out, args.format, sorted(db.relations), "facts.dl")
    print(_summary_line(stats))
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    out = None if args.out is None else Path(_file_arg("--out", args.out))
    preset = _resolve_preset(args)
    if args.relation:
        relation = args.relation
    elif args.closure:
        relation = preset.primary_output
    else:
        relation = preset.graph_relation or "edge"
    if not relation:
        raise UsageError("no graph relation: pass --relation")
    edb = _load_edb(args, preset)
    db = edb
    if preset.program_text.strip():
        # the input is checked against the program's declarations even
        # when it already holds the relation and nothing is evaluated
        try:
            if relation in db.relations:
                check_edb(preset.program(), edb)
            else:
                db = evaluate(preset.program(), edb)
        except (ArityMismatch, TypeMismatch) as exc:
            raise _located(exc, args, preset) from None
    if relation not in db.relations:
        raise UnknownRelation(f"relation {relation!r} is not present in the results")
    tuples = db.sorted_tuples(relation)
    if tuples and len(next(iter(tuples))) != 2:
        raise FactlogError(f"graph export needs a binary relation; {relation!r} is not")
    body = "".join(f'  "{_dot_escape(a)}" -> "{_dot_escape(b)}";\n' for a, b in tuples)
    text = f"digraph {relation} {{\n{body}}}\n"
    if out is not None:
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
    rows = [(item, _generate(args, preset, [item])[1]) for item in args.inputs]
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
    if (args.template is None) == (args.spec is None):
        raise UsageError("match needs exactly one of --template or --spec")
    if not args.lang:
        raise UsageError("match requires --lang")
    lang = get_language(args.lang)
    if args.template is not None:
        template = parse_template(args.template)
        if not template.atoms:
            raise SpecFormatError("--template is empty")
        template = compile_template(template, lang)
    else:
        template = load_fact_spec(_file_arg("--spec", args.spec), language=args.lang).match
    files = _sources(args.inputs, args.lang)
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
