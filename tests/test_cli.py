"""Command-line behavior: exit codes, output formats, and round trips."""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import factlog
from factlog import cli
from factlog.cli import EXIT_ANALYSIS, EXIT_INPUT, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TC_PROGRAM = "calls(X, Y) :- edge(X, Y).\ncalls(X, Y) :- edge(X, K), calls(K, Y).\n"


@pytest.fixture()
def example_go(samples_dir):
    return str(samples_dir / "example.go")


@pytest.fixture()
def arith_sample(samples_dir):
    return str(samples_dir / "liveness.arith")


class TestFacts:
    def test_dl_output(self, capsys, tmp_path, example_go):
        code, out, err = run(
            capsys, "facts", example_go, "--preset", "callgraph-go",
            "--format", "dl", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        text = (tmp_path / "facts.dl").read_text(encoding="utf-8")
        assert text == (
            'edge("incr", "one").\n'
            'edge("main", "fmt.Printf").\n'
            'edge("main", "incr").\n'
            'edge("main", "one").\n'
        )
        assert "files=1" in out and "facts=4" in out and "functions=3" in out

    def test_tsv_output(self, capsys, tmp_path, arith_sample):
        code, out, _ = run(
            capsys, "facts", arith_sample, "--preset", "liveness-arith",
            "--format", "tsv", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        names = sorted(p.name for p in tmp_path.glob("*.facts"))
        assert names == ["next.facts", "read.facts", "write.facts"]
        assert (tmp_path / "next.facts").read_text(encoding="utf-8") == (
            "1\t2\n2\t3\n3\t4\n"
        )

    def test_missing_input_is_input_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "facts", str(tmp_path / "nope.go"), "--preset", "callgraph-go",
            "--out", str(tmp_path),
        )
        assert code == EXIT_INPUT
        assert "factlog:" in err

    def test_preset_and_spec_conflict(self, capsys, tmp_path, example_go):
        code, _, err = run(
            capsys, "facts", example_go, "--preset", "callgraph-go",
            "--spec", "x.spec", "--out", str(tmp_path),
        )
        assert code == EXIT_USAGE
        assert "mutually exclusive" in err

    def test_spec_requires_lang(self, capsys, tmp_path, example_go):
        code, _, err = run(
            capsys, "facts", example_go, "--spec", "x.spec", "--out", str(tmp_path)
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("name", ["in.dl", "edge.facts"])
    def test_fact_file_is_not_a_source(self, capsys, tmp_path, name):
        fact_file = tmp_path / name
        fact_file.write_text('edge("a", "b").\n' if name.endswith(".dl") else "a\tb\n", encoding="utf-8")
        out = tmp_path / "out"
        code, _, err = run(capsys, "facts", str(fact_file), "--preset", "callgraph-c", "--out", str(out))
        assert code == EXIT_USAGE
        assert f"{fact_file} is a fact file" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "rule, rewrite, line",
        [
            ('where nested, rewrite $body { $c(...) -> edge("$zz", "$f"). }', "$body", 6),
            ("", 'edge("$f", "$zz").', 8),
            ('where $zz != "if"', "p(\"$f\").", 6),
        ],
    )
    def test_unbound_spec_hole_fails_at_load(self, capsys, tmp_path, rule, rewrite, line):
        # The source matches nothing, so only a load-time check can see it.
        spec = tmp_path / "bad.spec"
        spec.write_text(
            f"# a hole no template binds\n[match]\nfunc $f(...) {{$body*}}\n\n[rule]\n{rule}\n"
            f"[rewrite]\n{rewrite}\n",
            encoding="utf-8",
        )
        source = tmp_path / "empty.go"
        source.write_text("package main\n", encoding="utf-8")
        code, _, err = run(
            capsys, "facts", str(source), "--lang", "go", "--spec", str(spec), "--out", str(tmp_path / "out")
        )
        assert code == EXIT_INPUT
        assert f"bad.spec:{line}: hole $zz is bound by neither the match nor an inner template" in err

    @pytest.mark.parametrize(
        "match, rule, message",
        [
            ("func $f(...) {$body*}", 'where nested\n$c != "if"',
             "bad.spec:5: expected ',' between rule items at '$c != \"if\"'"),
            ("func $f(...) {$body*}", "where rewrite $body { $c(...) }", "bad.spec:5: rewrite clause for $body lacks '->'"),
            ("func $ f(...) {$body*}", "", "bad.spec:2: '$' at offset 5 is not followed by a hole name"),
            ("func $f($f) {$body*}", "", "bad.spec:2: hole $f is bound more than once"),
            ("func $f(...) {$body*}", 'where $f = "x"', "bad.spec:5: unexpected rule item at '$f = \"x\"'"),
        ],
    )
    def test_spec_errors_name_file_and_line(self, capsys, tmp_path, match, rule, message):
        spec = tmp_path / "bad.spec"
        spec.write_text(f"[match]\n{match}\n\n[rule]\n{rule}\n\n[rewrite]\n$body\n", encoding="utf-8")
        code, _, err = run(capsys, "match", str(tmp_path), "--lang", "go", "--spec", str(spec))
        assert code == EXIT_INPUT
        assert f"{tmp_path}/{message}" in err

    def test_text_before_the_first_header_names_its_line(self, capsys, tmp_path):
        spec = tmp_path / "bad.spec"
        spec.write_text("# a comment\n\nmatch:\n[match]\nf($x)\n[rewrite]\np($x).\n", encoding="utf-8")
        code, _, err = run(capsys, "match", str(tmp_path), "--lang", "go", "--spec", str(spec))
        assert code == EXIT_INPUT
        assert f"{spec}:3: text before the first section header: 'match:'" in err

    def test_nesting_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        # The nested descent keeps its own stack of windows, so a call nested
        # deeper than Python's recursion limit still yields its one edge.
        limit = len(inspect.stack(0)) + 200
        depth = limit + 100
        source = tmp_path / "deep.c"
        source.write_text(
            "int main() {\n  " + "f(" * depth + "1" + ")" * depth + ";\n}\n", encoding="utf-8"
        )
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            code, _, _ = run(
                capsys, "facts", str(source), "--preset", "callgraph-c", "--out", str(tmp_path / "out")
            )
        finally:
            sys.setrecursionlimit(saved)
        assert code == EXIT_OK
        assert (tmp_path / "out" / "facts.dl").read_text(encoding="utf-8") == 'edge("main", "f").\n'


class TestSolve:
    def test_refused_tsv_output_leaves_no_facts_file(self, capsys, tmp_path):
        # q is fine tab-separated, r holds a tab: neither file may be written
        (tmp_path / "in.dl").write_text('a("x", "y").\nedge("p\\tq", "r").\n', encoding="utf-8")
        (tmp_path / "p.dl").write_text("q(X, Y) :- a(X, Y).\nr(X, Y) :- edge(X, Y).\n", encoding="utf-8")
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "solve", str(tmp_path / "in.dl"), "--preset", "callgraph-c",
            "--program", str(tmp_path / "p.dl"), "--format", "tsv", "--out", str(out),
        )
        assert code == EXIT_INPUT
        assert "symbol 'p\\tq' in r cannot be written tab-separated; use the dl format" in err
        assert list(out.glob("*.facts")) == []

    def test_writes_idb_and_counts(self, capsys, tmp_path, example_go):
        code, out, _ = run(
            capsys, "solve", example_go, "--preset", "callgraph-go",
            "--format", "dl", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        assert "calls: 4 tuples" in out
        text = (tmp_path / "idb.dl").read_text(encoding="utf-8")
        assert 'calls("main", "one").' in text
        assert "edge(" not in text  # idb only

    def test_fact_file_among_sources_is_a_usage_error(self, capsys, tmp_path, example_go):
        fact_file = tmp_path / "more.dl"
        fact_file.write_text('edge("a", "b").\n', encoding="utf-8")
        code, _, err = run(
            capsys, "solve", example_go, str(fact_file), "--preset", "callgraph-go", "--out", str(tmp_path / "out")
        )
        assert code == EXIT_USAGE
        assert f"{fact_file} is a fact file" in err

    def test_solve_from_facts_file(self, capsys, tmp_path):
        facts = tmp_path / "in.dl"
        facts.write_text('edge("a", "b").\nedge("b", "c").\n', encoding="utf-8")
        program = tmp_path / "tc.dl"
        program.write_text(
            "calls(X, Y) :- edge(X, Y).\ncalls(X, Y) :- edge(X, K), calls(K, Y).\n",
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "solve", str(facts), "--lang", "go",
            "--program", str(program), "--format", "dl", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        assert "calls: 3 tuples" in out

    def test_solve_from_tsv_dir_with_types(self, capsys, tmp_path):
        (tmp_path / "edb").mkdir()
        (tmp_path / "edb" / "next.facts").write_text("1\t2\n", encoding="utf-8")
        program = tmp_path / "p.dl"
        program.write_text(
            ".decl next(i:number, j:number)\nfollows(J, I) :- next(I, J).\n",
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "solve", str(tmp_path / "edb"), "--lang", "arith",
            "--program", str(program), "--format", "dl",
            "--out", str(tmp_path / "out"),
        )
        assert code == EXIT_OK
        text = (tmp_path / "out" / "idb.dl").read_text(encoding="utf-8")
        assert "follows(2, 1)." in text

    def test_needs_program(self, capsys, tmp_path, example_go):
        spec = tmp_path / "s.spec"
        spec.write_text('[match]\nf($x)\n\n[rewrite]\nseen("$x").\n', encoding="utf-8")
        code, _, err = run(
            capsys, "solve", example_go, "--lang", "go", "--spec", str(spec),
            "--out", str(tmp_path),
        )
        assert code == EXIT_USAGE
        assert "program" in err

    def test_unstratifiable_is_analysis_error(self, capsys, tmp_path):
        facts = tmp_path / "in.dl"
        facts.write_text('q("a").\n', encoding="utf-8")
        program = tmp_path / "bad.dl"
        program.write_text("p(X) :- q(X), !p(X).\n", encoding="utf-8")
        code, _, err = run(
            capsys, "solve", str(facts), "--lang", "go",
            "--program", str(program), "--out", str(tmp_path),
        )
        assert code == EXIT_ANALYSIS
        assert "depends negatively" in err


class TestQuery:
    def test_variable_query_rows(self, capsys, example_go):
        code, out, _ = run(
            capsys, "query", example_go, "--preset", "callgraph-go",
            "-q", 'calls("main", X)',
        )
        assert code == EXIT_OK
        assert out.splitlines() == ["fmt.Printf", "incr", "one"]

    def test_ground_query_prints_boolean(self, capsys, example_go):
        code, out, _ = run(
            capsys, "query", example_go, "--preset", "callgraph-go",
            "-q", 'calls("main", "one")',
        )
        assert (code, out.strip()) == (EXIT_OK, "true")
        code, out, _ = run(
            capsys, "query", example_go, "--preset", "callgraph-go",
            "-q", 'calls("one", "main")',
        )
        assert (code, out.strip()) == (EXIT_OK, "false")

    def test_liveness_spot_checks(self, capsys, arith_sample):
        code, out, _ = run(
            capsys, "query", arith_sample, "--preset", "liveness-arith",
            "-q", 'live("b", L)',
        )
        assert out.split() == ["1", "3", "4"]
        code, out, _ = run(
            capsys, "query", arith_sample, "--preset", "liveness-arith",
            "-q", "live(X, 2)",
        )
        assert out.split() == ["a", "c", "d"]

    @pytest.mark.parametrize("path", [".", "calls.facts"])
    def test_query_over_an_empty_facts_file(self, capsys, tmp_path, path):
        # no calls at all: the written file is empty, yet it names the relation
        source = tmp_path / "a.c"
        source.write_text("int main(void) { return 0; }\n", encoding="utf-8")
        out = tmp_path / "out"
        code, _, _ = run(capsys, "solve", str(source), "--preset", "callgraph-c", "--format", "tsv", "--out", str(out))
        assert code == EXIT_OK
        code, rows, _ = run(capsys, "query", str(out / path), "-q", 'calls("main", X)')
        assert (code, rows) == (EXIT_OK, "")
        code, answer, _ = run(capsys, "query", str(out / path), "-q", 'calls("main", "main")')
        assert (code, answer.strip()) == (EXIT_OK, "false")

    def test_malformed_query_is_analysis_error(self, capsys, example_go):
        code, _, err = run(
            capsys, "query", example_go, "--preset", "callgraph-go", "-q", "calls(",
        )
        assert code == EXIT_ANALYSIS

    def test_wrong_arity_on_empty_relation_is_analysis_error(self, capsys, tmp_path):
        # no tuple to take the arity from: the program's declaration decides
        empty = tmp_path / "empty.dl"
        empty.write_text("", encoding="utf-8")
        code, out, err = run(
            capsys, "query", str(empty), "--preset", "callgraph-c", "-q", 'calls("a", X, Y)',
        )
        assert (code, out) == (EXIT_ANALYSIS, "")
        assert "'calls' has arity 2, query uses 3" in err

    @pytest.mark.parametrize(
        "rules, facts, pattern, message",
        [
            # the unstratifiable pair and the ill-typed relation lie outside calls' reach
            ("p(X) :- edge(X, _), !q(X).\nq(X) :- p(X).\n", "", 'calls("a", X)',
             "'p' depends negatively on 'q' inside a recursive cycle"),
            (".decl w(n:number)\n", 'w("notnum").\n', 'calls("a", X)',
             "'w' column 1 expects a number, got 'notnum'"),
            ("", "", 'nope("a", X)', "unknown relation 'nope'"),
            ("", "", 'calls("a", X, Y)', "'calls' has arity 2, query uses 3"),
            # checks run in the order full evaluation runs them
            ("p(X) :- edge(X, _), !q(X).\nq(X) :- p(X).\n", "", 'calls("a", X, Y)', "depends negatively"),
            (".decl w(n:number)\np(X) :- edge(X, _), !q(X).\nq(X) :- p(X).\n", 'w("notnum").\n',
             'calls("a", X)', "expects a number"),
        ],
    )
    def test_bound_query_fails_as_full_evaluation(self, capsys, tmp_path, rules, facts, pattern, message):
        edges = tmp_path / "in.dl"
        edges.write_text('edge("a", "b").\nedge("b", "c").\n' + facts, encoding="utf-8")
        program = tmp_path / "p.dl"
        program.write_text(TC_PROGRAM + rules, encoding="utf-8")
        code, out, err = run(
            capsys, "query", str(edges), "--lang", "c", "--program", str(program), "-q", pattern,
        )
        assert (code, out) == (EXIT_ANALYSIS, "")
        assert message in err

    def test_constant_of_the_wrong_type_is_analysis_error(self, capsys, tmp_path):
        edges = tmp_path / "edges.dl"
        edges.write_text('edge("a", "b").\nedge("b", "c").\n', encoding="utf-8")
        code, out, err = run(capsys, "query", str(edges), "--preset", "callgraph-c", "-q", "calls(1, X)")
        assert (code, out) == (EXIT_ANALYSIS, "")
        assert "'calls' column 1 expects a symbol, got 1" in err
        code, out, _ = run(capsys, "query", str(edges), "--preset", "callgraph-c", "-q", 'calls("a", X)')
        assert (code, out) == (EXIT_OK, "b\nc\n")

    def test_edb_relation_query(self, capsys, tmp_path):
        edges = tmp_path / "in.dl"
        edges.write_text('edge("a", "b").\nedge("a", "c").\nedge("b", "c").\n', encoding="utf-8")
        code, out, _ = run(capsys, "query", str(edges), "--preset", "callgraph-c", "-q", 'edge("a", X)')
        assert (code, out) == (EXIT_OK, "b\nc\n")


class TestGraph:
    def test_dot_to_stdout(self, capsys, example_go):
        code, out, _ = run(capsys, "graph", example_go, "--preset", "callgraph-go")
        assert code == EXIT_OK
        assert out.startswith("digraph edge {")
        assert '  "incr" -> "one";' in out
        lines = [l for l in out.splitlines() if "->" in l]
        assert lines == sorted(lines)

    def test_closure_uses_primary_output(self, capsys, example_go):
        code, out, _ = run(
            capsys, "graph", example_go, "--preset", "callgraph-go", "--closure",
        )
        assert code == EXIT_OK
        assert out.startswith("digraph calls {")

    def test_relation_override_and_out_file(self, capsys, tmp_path, arith_sample):
        out_file = tmp_path / "g" / "next.dot"
        code, out, _ = run(
            capsys, "graph", arith_sample, "--preset", "liveness-arith",
            "--relation", "next", "--out", str(out_file),
        )
        assert code == EXIT_OK
        text = out_file.read_text(encoding="utf-8")
        assert '"1" -> "2";' in text

    def test_non_binary_relation_rejected(self, capsys, tmp_path):
        facts = tmp_path / "in.dl"
        facts.write_text('t("a", "b", "c").\n', encoding="utf-8")
        code, _, err = run(
            capsys, "graph", str(facts), "--lang", "go", "--relation", "t",
        )
        assert code == EXIT_INPUT
        assert "binary" in err

    def test_unknown_relation_rejected(self, capsys, example_go):
        code, _, err = run(
            capsys, "graph", example_go, "--preset", "callgraph-go",
            "--relation", "nope",
        )
        assert code == EXIT_ANALYSIS


class TestMatch:
    def test_jsonl_records(self, capsys, example_go):
        code, out, _ = run(
            capsys, "match", example_go, "--lang", "go", "-t", "func $f(",
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["holes"]["f"]["text"] for r in records] == ["one", "incr", "main"]
        assert all(r["path"].endswith("example.go") for r in records)

    def test_template_and_spec_conflict(self, capsys, example_go):
        code, _, err = run(
            capsys, "match", example_go, "--lang", "go", "-t", "x", "--spec", "y",
        )
        assert code == EXIT_USAGE


class TestBench:
    def test_table(self, capsys, samples_dir):
        code, out, _ = run(
            capsys, "bench", str(samples_dir / "go"), "--preset", "callgraph-go",
        )
        assert code == EXIT_OK
        header, row = out.splitlines()[:2]
        assert header.split() == [
            "corpus", "files", "kloc", "facts", "funcs", "time_s", "facts/func",
        ]
        assert row.split()[1] == "1"  # one file in samples/go

    def test_json_lines(self, capsys, samples_dir, example_go):
        code, out, _ = run(
            capsys, "bench", example_go, str(samples_dir / "go"),
            "--preset", "callgraph-go", "--json",
        )
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 2
        assert rows[0]["fact_count"] == 4 and rows[0]["function_count"] == 3
        assert rows[1]["function_count"] > 0


class TestDeterminism:
    def test_facts_byte_identical_across_jobs(self, tmp_path, samples_dir, capsys):
        outputs = []
        for jobs in ("1", "2", "3", "1"):
            out_dir = tmp_path / f"run-{len(outputs)}"
            code, _, _ = run(
                capsys, "facts", str(samples_dir), "--preset", "callgraph-go",
                "--format", "dl", "--out", str(out_dir), "--jobs", jobs,
            )
            assert code == EXIT_OK
            outputs.append((out_dir / "facts.dl").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


class TestCollectorPause:
    """main turns the cyclic collector off while the command runs and hands
    the caller back the state it had, whatever the command returns."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (("solve", "{dl}", "--preset", "callgraph-c", "--out", "{out}"), EXIT_OK),
            (("solve", "{dl}", "--out", "{out}"), EXIT_USAGE),
            (("query", "{missing}", "--preset", "callgraph-c", "-q", 'calls("a", X)'), EXIT_INPUT),
            (("query", "{dl}", "--preset", "callgraph-c", "-q", "nope(X)"), EXIT_ANALYSIS),
        ],
        ids=["ok", "usage", "input", "analysis"],
    )
    def test_the_callers_state_comes_back(self, capsys, monkeypatch, tmp_path, argv, code, enabled):
        dl = tmp_path / "x.dl"
        dl.write_text('edge("a", "b").\n', encoding="utf-8")
        argv = [a.format(dl=dl, out=tmp_path / "out", missing=tmp_path / "missing.dl") for a in argv]
        real_evaluate, during = cli.evaluate, []

        def evaluate(*args):
            during.append(gc.isenabled())
            return real_evaluate(*args)

        monkeypatch.setattr(cli, "evaluate", evaluate)
        before = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert run(capsys, *argv)[0] == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()
        assert not any(during)

    def test_the_factlog_process_never_collects(self, tmp_path):
        # the entry of ``python -m factlog`` and of the console script
        dl = tmp_path / "x.dl"
        dl.write_text('edge("a", "b").\n', encoding="utf-8")
        argv = ["factlog", "solve", str(dl), "--preset", "callgraph-c", "--out", str(tmp_path / "out")]
        code = (
            "import gc, sys\n"
            "from factlog.__main__ import run\n"
            "seen = []\n"
            "gc.callbacks.append(lambda phase, info: seen.append(phase))\n"
            f"sys.argv = {argv!r}\n"
            "rc = run()\n"
            "print(rc, len(seen), gc.isenabled(), gc.get_freeze_count() > 0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "0 0 False True"


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            *([command, "--help"] for command in ("facts", "solve", "query", "graph", "bench", "match")),
            ["query", "x.dl"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_help_and_usage_errors_read_as_with_every_command_built(self, capsys, argv):
        # a run builds only its own command's arguments
        def outcome(parser):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        full = cli._build_parser([])
        assert outcome(cli._build_parser(argv)) == outcome(full)
        assert outcome(full)[:1] == (EXIT_USAGE if argv == ["query", "x.dl"] else EXIT_OK,)

    def test_only_the_named_command_gets_arguments(self):
        subparsers = cli._build_parser(["query"])._subparsers._group_actions[0].choices
        assert {name for name, sp in subparsers.items() if len(sp._actions) > 1} == {"query"}


def write_console_script(bin_dir: Path, name: str) -> None:
    """Write a launcher for the `[project.scripts]` entry `name` into `bin_dir`.

    The entry is read from this tree's pyproject.toml, and the launcher has
    the form pip generates, so the command runs the target the project
    declares now rather than one fixed by an earlier install.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, func = target.split(":")
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import re\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({func}())\n",
        encoding="utf-8",
    )
    script.chmod(0o755)


class TestEntryPoint:
    def test_console_script(self, tmp_path, monkeypatch):
        write_console_script(tmp_path, "factlog")
        monkeypatch.setenv("PATH", str(tmp_path), prepend=os.pathsep)
        proc = subprocess.run(
            ["factlog", "--help"], capture_output=True, text=True, check=False
        )
        assert proc.returncode == 0
        assert "facts" in proc.stdout and "solve" in proc.stdout

    def test_cli_import_leaves_out_multiprocessing(self):
        # The worker pool imports it only when it runs, so serial runs skip its cost.
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, factlog.cli; print('multiprocessing' in sys.modules)"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "False"

    def test_cli_import_generates_no_code_and_skips_json(self):
        # dataclasses builds methods with exec at import and pulls in inspect;
        # json is imported by the two subcommands that print it.  The guard
        # counts modules, not milliseconds, so machine noise cannot flake it.
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys; before = set(sys.modules); import factlog.cli; "
                "print(sorted({'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before)))",
            ],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "[]"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "factlog", "--help"],
            capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0


MATCHER = ("factlog.languages", "factlog.rewrite", "factlog.templates")
# What every solve or query over fact files loads.
FACT_FILE_RUN = {
    "factlog", "factlog.cli", "factlog.analyses", "factlog.syntax", "factlog.errors", "factlog.datalog",
    "factlog.facts",
}


def imported_modules(*argv: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """A fresh ``python -X importtime -m factlog argv`` run, and every module
    it imported, read from the import-time lines on stderr."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "factlog", *argv],
        capture_output=True, text=True, check=False,
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    return proc, names


class TestMatcherStaysOffTheDatalogPath:
    """Every CLI run is a fresh process: a run over fact files imports only
    cli, analyses, datalog, facts, syntax and errors, loading a preset's
    program imports only analyses, syntax and errors, and no run imports
    configparser.  The guards count
    modules, not milliseconds, so machine noise cannot flake them."""

    def test_package_import_loads_no_layer(self):
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys; before = set(sys.modules); import factlog; "
                "print(sorted(m for m in set(sys.modules) - before if m.startswith('factlog.')))",
            ],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("preset", ["callgraph-c", "liveness-arith"])
    def test_loading_a_preset_loads_only_the_front_end(self, preset):
        proc = subprocess.run(
            [
                sys.executable, "-c",
                "import sys; before = set(sys.modules); import factlog; "
                f"factlog.load_preset({preset!r}).program(); "
                "print(sorted(m for m in set(sys.modules) - before if m.startswith(('factlog.', 'configparser'))))",
            ],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "['factlog.analyses', 'factlog.errors', 'factlog.syntax']"

    @pytest.mark.parametrize(
        "argv",
        [
            ("query", "{dl}", "--preset", "callgraph-c", "-q", 'calls("a", X)'),
            ("solve", "{dl}", "--preset", "callgraph-c", "--out", "{out}"),
            ("graph", "{dl}", "--preset", "callgraph-c", "--closure"),
        ],
    )
    def test_fact_file_runs_never_load_the_matcher(self, tmp_path, argv):
        dl = tmp_path / "x.dl"
        dl.write_text('edge("a", "b").\nedge("b", "c").\n', encoding="utf-8")
        argv = [a.format(dl=dl, out=tmp_path / "out") for a in argv]
        proc, names = imported_modules(*argv)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "factlog.datalog" in names and "factlog.cli" in names
        assert not set(MATCHER) & names

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (("solve", "{dl}", "--preset", "callgraph-c", "--out", "{out}"), ()),
            (("solve", "{dl}", "--preset", "callgraph-c", "--format", "tsv", "--out", "{out}"), ("factlog.tsv",)),
            (("query", "{dl}", "--preset", "callgraph-c", "-q", 'calls("a", X)'), ("factlog.queries",)),
            (
                ("query", "{facts}", "--preset", "callgraph-c", "-q", 'calls("a", X)'),
                ("factlog.queries", "factlog.tsv"),
            ),
            (("graph", "{dl}", "--preset", "callgraph-c", "--closure"), ("factlog.commands",)),
        ],
        ids=["solve", "solve-tsv", "query", "query-facts", "graph"],
    )
    def test_a_fact_file_run_loads_only_what_it_runs(self, tmp_path, argv, extra):
        # solve never loads the query code, and solve and query never load
        # the other subcommands or the .facts reader and writer
        dl = tmp_path / "x.dl"
        dl.write_text('edge("a", "b").\nedge("b", "c").\n', encoding="utf-8")
        (tmp_path / "edge.facts").write_text("a\tb\nb\tc\n", encoding="utf-8")
        argv = [a.format(dl=dl, facts=tmp_path / "edge.facts", out=tmp_path / "out") for a in argv]
        proc, names = imported_modules(*argv)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert {n for n in names if n.startswith("factlog")} == FACT_FILE_RUN | set(extra)

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "{dl}", "--preset", "callgraph-c", "--out", "{out}"),
            ("query", "{dl}", "--preset", "callgraph-c", "-q", 'calls("a", X)'),
            ("solve", "{go}", "--preset", "callgraph-go", "--out", "{out}"),
            ("match", "{go}", "--lang", "toy", "--langdef", "{langdef}", "-t", "f($x)"),
        ],
        ids=["solve", "query", "source-solve", "match-langdef"],
    )
    def test_no_run_imports_configparser(self, tmp_path, example_go, argv):
        # preset.cfg and language files are read by errors.read_ini
        dl = tmp_path / "x.dl"
        dl.write_text('edge("a", "b").\nedge("b", "c").\n', encoding="utf-8")
        langdef = tmp_path / "toy.lang"
        langdef.write_text("[toy]\nline_comments = //\n", encoding="utf-8")
        argv = [a.format(dl=dl, go=example_go, langdef=langdef, out=tmp_path / "out") for a in argv]
        proc, names = imported_modules(*argv)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "factlog.cli" in names and "configparser" not in names

    def test_a_source_run_loads_it(self, tmp_path, example_go):
        proc, names = imported_modules("facts", example_go, "--preset", "callgraph-go", "--out", str(tmp_path))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert {*MATCHER, "factlog.corpus"} <= names

    def test_a_source_solve_never_loads_the_interpreter(self, tmp_path, example_go):
        # each spec runs as its generated function; the reference
        # interpreter of rules loads only when its names are read
        proc, names = imported_modules("solve", example_go, "--preset", "callgraph-go", "--out", str(tmp_path))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert {*MATCHER, "factlog.corpus"} <= names
        assert "factlog.interpreter" not in names

    def test_a_broken_spec_fails_only_runs_that_read_sources(self, capsys, tmp_path, example_go):
        # Specs are compiled on first use, so a fact-file run never reads a
        # preset's spec files and a broken one does not fail it.
        preset = tmp_path / "presets" / "mine"
        preset.mkdir(parents=True)
        (preset / "preset.cfg").write_text(
            "[preset]\nlanguage = go\nspecs = broken.spec\nprogram = tc.dl\nprimary_output = calls\n",
            encoding="utf-8",
        )
        (preset / "tc.dl").write_text(TC_PROGRAM, encoding="utf-8")
        spec = preset / "broken.spec"
        spec.write_text("[match]\nfunc $f() {$body*}\n\n[rewrite]\nedge(\"$f\", \"$g\").\n", encoding="utf-8")
        dl = tmp_path / "x.dl"
        dl.write_text('edge("a", "b").\nedge("b", "c").\n', encoding="utf-8")
        where = ["--preset", "mine", "--preset-dir", str(tmp_path / "presets")]

        code, out, _ = run(capsys, "query", str(dl), *where, "-q", 'calls("a", X)')
        assert (code, out) == (EXIT_OK, "b\nc\n")
        code, out, _ = run(capsys, "solve", str(dl), *where, "--out", str(tmp_path / "out"))
        assert code == EXIT_OK and "calls: 3 tuples" in out

        for command in ("facts", "solve"):
            code, _, err = run(capsys, command, example_go, *where, "--out", str(tmp_path / "out"))
            assert code == EXIT_INPUT
            assert f"factlog: input error: {spec}:5: hole $g is bound by neither" in err


# What ``factlog`` exported when every layer was imported eagerly: each name
# must still resolve, to the object its module defines.
PACKAGE_EXPORTS = {
    "analyses": (
        "AnalysisPreset RunStats discover_files list_presets load_preset run_analysis run_fact_generation"
    ),
    "datalog": (
        "Atom BodyLiteral DatalogProgram DatalogRule Declaration Variable evaluate parse_program "
        "parse_query query stratify"
    ),
    "errors": (
        "ArityMismatch DatalogError DatalogSyntaxError DuplicateHoleName FactlogError LanguageError "
        "MalformedFact MalformedHole SpecFormatError TypeMismatch UnboundHole UnknownRelation "
        "UnsafeRule UnstratifiableProgram"
    ),
    "facts": "Database Fact format_fact parse_fact_line",
    "languages": (
        "ARITH C GO ZIG LanguageDefinition Region SourceMap classify get_language language_names "
        "load_language_file register_language"
    ),
    "rewrite": (
        "Condition FactSpec NestedRewrite RewriteTemplate RuleSpec apply_rule load_fact_spec "
        "parse_fact_spec parse_rewrite_template parse_rule substitute"
    ),
    "templates": "Binding Hole HoleKind Match MatchEnvironment Template iter_matches parse_template",
}
EXPORTED = sorted((name, module) for module, names in PACKAGE_EXPORTS.items() for name in names.split())


class TestPackageExports:
    @pytest.mark.parametrize("name, module", EXPORTED)
    def test_every_name_resolves_to_its_module(self, name, module):
        assert getattr(factlog, name) is getattr(importlib.import_module(f"factlog.{module}"), name)

    def test_all_and_dir_list_them(self):
        names = {name for name, _ in EXPORTED}
        assert set(factlog.__all__) == names
        assert names <= set(dir(factlog))

    def test_star_import(self):
        namespace: dict[str, object] = {}
        exec("from factlog import *", namespace)
        assert {name for name, _ in EXPORTED} <= set(namespace)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            getattr(factlog, "no_such_name")
        assert not hasattr(factlog, "evaluate_all")


class TestLangdef:
    def test_custom_language_flows_through(self, capsys, tmp_path):
        langdef = tmp_path / "toy.lang"
        langdef.write_text(
            "[toy2]\nline_comments = #\nstrings = \" \" \\\n", encoding="utf-8"
        )
        src = tmp_path / "prog.toy"
        src.write_text("call(alpha)\n# call(skipped)\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "match", str(src), "--lang", "toy2", "-t", "call($x)",
            "--langdef", str(langdef),
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["holes"]["x"]["text"] for r in records] == ["alpha"]

    def test_template_text_is_never_code(self, capsys, tmp_path):
        # quotes, a triple quote, a backslash, braces, '#' and a newline in
        # the literals, and holes named like the generated code's locals,
        # through --template and through a spec: each matches as text
        from oracles import collect_inner
        from test_templates import TRICKY, TRICKY_HOLES

        text, source = TRICKY
        langdef = tmp_path / "plain.lang"
        langdef.write_text("[plain]\n", encoding="utf-8")
        src = tmp_path / "prog.plain"
        src.write_text(source, encoding="utf-8")
        spec = tmp_path / "tricky.spec"
        holes = ", ".join(f'"${h}"' for h in TRICKY_HOLES)
        spec.write_text(f"[match]\n{text}\n\n[rewrite]\nhit({holes}).\n", encoding="utf-8")
        outputs = []
        for how in (["-t", text], ["--spec", str(spec)]):
            code, out, _ = run(capsys, "match", str(src), "--lang", "plain", *how, "--langdef", str(langdef))
            assert code == EXIT_OK
            outputs.append([json.loads(line) for line in out.splitlines()])
        smap = factlog.classify(source, factlog.get_language("plain"))
        want = [
            {"start": m.start, "end": m.end, "holes": {h: b.text for h, b in m.env.bindings.items()}}
            for m in collect_inner(factlog.parse_template(text), smap, 0, len(source), False)
        ]
        assert [m["holes"]["hi"] for m in want] == ["b", "y"]
        for records in outputs:
            got = [
                {"start": r["start"], "end": r["end"], "holes": {h: b["text"] for h, b in r["holes"].items()}}
                for r in records
            ]
            assert got == want


UNDECODABLE = b'edge("a", "b").\n\xff\n'


class TestInputErrors:
    @pytest.mark.parametrize(
        "kind, argv",
        [
            ("dl", ["solve", "{bad}", "--program", "{tc}", "--out", "{out}"]),
            ("dl", ["query", "{bad}", "-q", "edge(X, Y)"]),
            ("dl", ["graph", "{bad}"]),
            ("dl", ["solve", "{good}", "--program", "{bad}", "--out", "{out}"]),
            ("facts", ["query", "{bad}", "-q", "edge(X, Y)"]),
            ("spec", ["match", "{go}", "--lang", "go", "--spec", "{bad}"]),
            ("spec", ["facts", "{go}", "--lang", "go", "--spec", "{bad}", "--out", "{out}"]),
            ("lang", ["match", "{go}", "--lang", "go", "-t", "f($x)", "--langdef", "{bad}"]),
        ],
    )
    def test_undecodable_input_names_the_file(self, capsys, tmp_path, example_go, kind, argv):
        bad = tmp_path / {"dl": "bad.dl", "facts": "edge.facts", "spec": "bad.spec", "lang": "bad.lang"}[kind]
        bad.write_bytes(UNDECODABLE)
        good = tmp_path / "good.dl"
        good.write_text('edge("a", "b").\n', encoding="utf-8")
        tc = tmp_path / "tc.dl"
        tc.write_text(TC_PROGRAM, encoding="utf-8")
        paths = {"bad": bad, "good": good, "tc": tc, "go": example_go, "out": tmp_path / "out"}
        code, _, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == EXIT_INPUT
        assert f"{bad}:2: not UTF-8 text" in err

    @pytest.mark.parametrize(
        "name, content, message",
        [
            ("mine/preset.cfg", b"[preset]\nlanguage = go\xff\n", "preset.cfg:2: not UTF-8 text"),
            ("mine/preset.cfg", b"garbage\n", "File contains no section headers"),
            ("toy.lang", b"garbage\n", "File contains no section headers"),
        ],
    )
    def test_bad_config_file_is_input_error(self, capsys, tmp_path, example_go, name, content, message):
        (tmp_path / "mine").mkdir()
        cfg = tmp_path / name
        cfg.write_bytes(content)
        if cfg.suffix == ".lang":
            argv = ["match", example_go, "--lang", "go", "-t", "f($x)", "--langdef", str(cfg)]
        else:
            argv = ["facts", example_go, "--preset", "mine", "--preset-dir", str(tmp_path)]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert message in err and str(cfg) in err

    @pytest.mark.parametrize(
        "name, text, code, message",
        [
            ("in.dl", 'edge("a", "b").\nedge("b" "c").\n', EXIT_INPUT,
             "in.dl:2: expected ',' or ')' at offset 9 in 'edge(\"b\" \"c\").'"),
            ("in.dl", '// two columns\nedge("a", "b").\n\nedge("c").\n', EXIT_ANALYSIS,
             "in.dl:4: relation edge holds 2-tuples, got 1-tuple"),
            ("edge.facts", "a\tb\nc\n", EXIT_ANALYSIS, "edge.facts:2: relation edge holds 2-tuples, got 1-tuple"),
        ],
    )
    def test_fact_input_errors_name_file_and_line(self, capsys, tmp_path, name, text, code, message):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        got, _, err = run(capsys, "query", str(path), "-q", "edge(X, Y)")
        assert got == code
        assert f"{tmp_path}/{message}" in err

    @pytest.mark.parametrize(
        "rules, line",
        [
            ("calls(X, Y) :- edge(X Y).\n", 3),  # syntax
            ("calls(X) :- edge(X, _).\n", 3),  # arity
            ("p(X, Y) :- edge(X, _).\n", 3),  # safety
            ('w(1).\nw("a").\n', 4),  # type of a fact
            ('w(1).\nv("a").\np(X) :- w(X), v(X).\n', 5),  # type across a join
            ("p(X) :- edge(X, _), !q(X).\nq(X) :- p(X).\n", 3),  # stratification
        ],
    )
    def test_program_errors_name_file_and_line(self, capsys, tmp_path, rules, line):
        edges = tmp_path / "in.dl"
        edges.write_text('edge("a", "b").\n', encoding="utf-8")
        program = tmp_path / "p.dl"
        program.write_text(TC_PROGRAM + rules, encoding="utf-8")
        code, out, err = run(capsys, "solve", str(edges), "--program", str(program), "--out", str(tmp_path / "out"))
        assert (code, out) == (EXIT_ANALYSIS, "")
        assert f"{program}: " in err and f"line {line}" in err

    def test_a_preset_program_error_names_the_file(self, capsys, tmp_path):
        preset = tmp_path / "mine"
        preset.mkdir()
        (preset / "preset.cfg").write_text("[preset]\nlanguage = c\nspecs =\nprogram = tc.dl\n", encoding="utf-8")
        (preset / "tc.dl").write_text(TC_PROGRAM + "p(X, Y) :- edge(X, _).\n", encoding="utf-8")
        edges = tmp_path / "in.dl"
        edges.write_text('edge("a", "b").\n', encoding="utf-8")
        code, _, err = run(capsys, "query", str(edges), "--preset", "mine", "--preset-dir", str(tmp_path), "-q", "p(X, Y)")
        assert code == EXIT_ANALYSIS
        assert f"{preset / 'tc.dl'}: head variable 'Y' at line 3" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--out", "{out}"),
            ("query", "-q", 'calls("a", X)'),
            ("graph", "--relation", "p"),
        ],
    )
    def test_a_preset_program_stratification_error_names_the_file(self, capsys, tmp_path, argv):
        # evaluation, not loading, finds it, yet it names the program's file
        preset = tmp_path / "mine"
        preset.mkdir()
        (preset / "preset.cfg").write_text("[preset]\nlanguage = c\nspecs =\nprogram = tc.dl\n", encoding="utf-8")
        (preset / "tc.dl").write_text(TC_PROGRAM + "p(X) :- q(X), !p(X).\n", encoding="utf-8")
        edges = tmp_path / "in.dl"
        edges.write_text('edge("a", "b").\n', encoding="utf-8")
        command, *rest = (a.format(out=tmp_path / "out") for a in argv)
        code, _, err = run(capsys, command, str(edges), "--preset", "mine", "--preset-dir", str(tmp_path), *rest)
        assert code == EXIT_ANALYSIS
        assert err == (
            f"factlog: analysis error: {preset / 'tc.dl'}: "
            "'p' depends negatively on 'p' inside a recursive cycle (rule at line 3)\n"
        )

    def test_arity_clash_between_inputs_names_the_file(self, capsys, tmp_path):
        (tmp_path / "a.dl").write_text('edge("a", "b").\n', encoding="utf-8")
        (tmp_path / "b.dl").write_text('other("x").\nedge("c").\n', encoding="utf-8")
        code, _, err = run(capsys, "query", str(tmp_path / "a.dl"), str(tmp_path / "b.dl"), "-q", "edge(X, Y)")
        assert code == EXIT_ANALYSIS
        assert err == f"factlog: analysis error: {tmp_path / 'b.dl'}:2: relation edge holds 2-tuples, got 1-tuple\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--out", "{out}"),
            ("query", "-q", 'calls("a", X)'),
            ("graph", "--closure"),
            # the input holds the relation, so graph evaluates nothing
            ("graph",),
        ],
    )
    @pytest.mark.parametrize(
        "files, message",
        [
            ({"good.dl": 'edge("a", "b").\n', "bad.dl": 'edge("a", "b").\nedge(1, 2).\n'},
             "bad.dl:2: 'edge' column 1 expects a symbol, got 1"),
            # files in argument order, then lines in file order
            ({"late.dl": '\n// c\nedge("a", "b").\nedge("c", 3).\n', "bad.dl": 'edge(1, 2).\n'},
             "late.dl:4: 'edge' column 2 expects a symbol, got 3"),
            ({"bad.dl": 'edge("a", "b", "c").\n'}, "bad.dl:1: input relation 'edge' has arity 3, program expects 2"),
            ({"facts/edge.facts": "a\tb\tc\n"}, "facts/edge.facts:1: input relation 'edge' has arity 3, program expects 2"),
        ],
    )
    def test_input_fact_that_breaks_a_declaration_names_its_line(self, capsys, tmp_path, files, message, argv):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text, encoding="utf-8")
        inputs = [str(tmp_path / Path(name).parent if name.endswith(".facts") else tmp_path / name) for name in files]
        command, *rest = (a.format(out=tmp_path / "out") for a in argv)
        code, out, err = run(capsys, command, *inputs, "--preset", "callgraph-c", *rest)
        assert (code, out) == (EXIT_ANALYSIS, "")
        assert err == f"factlog: analysis error: {tmp_path}/{message}\n"

    def test_reported_bad_row_does_not_depend_on_the_hash_seed(self, tmp_path):
        bad = tmp_path / "bad.dl"
        bad.write_text("".join(f'edge({i}, "n{i}").\n' for i in range(12)), encoding="utf-8")
        library = (
            "import sys; from factlog import Database, load_preset, evaluate, parse_query\n"
            "from factlog.datalog import goal_directed\n"
            "db = Database.from_dl_text(open(sys.argv[1]).read()); program = load_preset('callgraph-c').program()\n"
            "pattern = parse_query('calls(\"a\", X)')\n"
            "for run in (lambda: evaluate(program, db), lambda: goal_directed(program, db, pattern)):\n"
            "    try: run()\n"
            "    except Exception as exc: print(exc)\n"
        )
        seen = set()
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            cli_run = subprocess.run(
                [sys.executable, "-m", "factlog", "solve", str(bad), "--preset", "callgraph-c", "--out", str(tmp_path)],
                capture_output=True, text=True, check=False, env=env,
            )
            lib_run = subprocess.run(
                [sys.executable, "-c", library, str(bad)], capture_output=True, text=True, check=True, env=env
            )
            seen.add((cli_run.returncode, cli_run.stderr, lib_run.stdout))
        message = "'edge' column 1 expects a symbol, got 0"
        # the CLI names the first line; a library caller gets the least row
        assert seen == {(EXIT_ANALYSIS, f"factlog: analysis error: {bad}:1: {message}\n", f"{message}\n" * 2)}


def _drawn(fragments):
    return st.lists(fragments | st.binary(max_size=3), max_size=30).map(b"".join)


# Pieces of fact, rule and spec syntax, plus bytes that are not UTF-8.
_FRAGMENTS = st.sampled_from([
    b"edge(", b"calls(", b'"a"', b'"b\\"', b"X", b"_", b"1", b"-2", b", ", b"(", b")", b".", b":-",
    b"!", b"\n", b"\t", b" ", b".decl ", b": symbol", b": number", b"//", b"[match]", b"[rule]",
    b"[rewrite]", b"$x", b"$c", b"...", b"$b*", b"where nested, ", b"rewrite $b { ", b" -> ", b"{", b"}",
    b"\xff", b"\xc3", b"\xe2\x80\xa8", b"\\",
])
# Pieces of go source: calls, brackets, comments, literals of every quote.
_SOURCE_FRAGMENTS = st.sampled_from([
    b"func ", b"main", b"f", b"x.y", b"*p", b"(", b")", b"{", b"}", b"[", b"]", b", ", b'"', b"`", b"'",
    b"\\", b"//", b"/*", b"*/", b"\n", b" ", b"\t", b"\xff", b"\xe2\x80\xa8",
])
# A language file body: a "key = value" line for some of the keys, each
# value pieced together from delimiters, brackets and the separators values
# use, and half the time a last line of drawn fact syntax and bytes.
_LANGDEF_KEYS = st.sampled_from([
    b"line_comments", b"block_comments", b"strings", b"balanced", b"identifier_extra", b"value_prefix",
    b"nest_block_comments", b"name",
])
_VALUE_FRAGMENTS = [
    b"//", b"#", b"/*", b"*/", b"(*", b'"', b"'", b"`", b"\\", b"()", b"[]", b"{}", b"((", b"(", b"_", b".",
    b"*", b"!", b",", b" ", b"true", b"no", b"%(x)s",
]
_LANGDEF_VALUES = st.lists(st.sampled_from(_VALUE_FRAGMENTS), max_size=6).map(b"".join)
# A preset.cfg body: the same values, and a lone '%', under the preset's keys.
_PRESET_KEYS = st.sampled_from([
    b"language", b"specs", b"program", b"primary_output", b"fact_relations", b"graph_relation", b"name",
])
_PRESET_VALUES = st.lists(st.sampled_from([*_VALUE_FRAGMENTS, b"%"]), max_size=6).map(b"".join)


def _ini_body(keys, values):
    return st.builds(
        lambda lines, last: b"\n".join([key + b" = " + value for key, value in lines.items()] + [last]),
        st.dictionaries(keys, values, max_size=6),
        st.just(b"") | _drawn(_FRAGMENTS),
    )


DRAWN_CASES = (
    st.tuples(st.sampled_from(["dl", "facts", "program", "spec"]), _drawn(_FRAGMENTS))
    | st.tuples(st.just("source"), _drawn(_SOURCE_FRAGMENTS))
    | st.tuples(st.just("langdef"), _ini_body(_LANGDEF_KEYS, _LANGDEF_VALUES))
    | st.tuples(st.just("preset"), _ini_body(_PRESET_KEYS, _PRESET_VALUES))
)
DRAWN_FILES = {
    "dl": "in.dl", "facts": "edge.facts", "program": "drawn.dl", "spec": "drawn.spec", "source": "drawn.go",
    "langdef": "drawn.ini", "preset": "mine/preset.cfg",
}
# The section header a drawn body goes under.
DRAWN_HEADERS = {"langdef": b"[drawn]\n", "preset": b"[preset]\n"}


class TestNoTraceback:
    @given(DRAWN_CASES)
    @settings(max_examples=900, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_drawn_input_exits_with_a_code(self, capsys, tmp_path, example_go, case):
        """Whatever bytes a fact file, program, spec, go source, language
        file or preset.cfg holds, main returns an exit code and no exception
        escapes it."""
        kind, data = case
        drawn = tmp_path / DRAWN_FILES[kind]
        drawn.parent.mkdir(exist_ok=True)
        drawn.write_bytes(DRAWN_HEADERS.get(kind, b"") + data)
        tc = tmp_path / "tc.dl"
        tc.write_text(TC_PROGRAM, encoding="utf-8")
        good = tmp_path / "good.dl"
        good.write_text('edge("a", "b").\nedge("b", "c").\n', encoding="utf-8")
        out = str(tmp_path / "out")
        argv = {
            "dl": ["query", str(drawn), "--program", str(tc), "-q", 'calls("a", X)'],
            "facts": ["solve", str(drawn), "--program", str(tc), "--out", out],
            "program": ["solve", str(good), "--program", str(drawn), "--out", out],
            "spec": ["facts", example_go, "--lang", "go", "--spec", str(drawn), "--out", out],
            "source": ["facts", str(drawn), "--preset", "callgraph-go", "--out", out],
            "langdef": ["match", example_go, "--langdef", str(drawn), "--lang", "drawn", "-t", "$f(...)"],
            "preset": ["solve", str(good), "--preset", "mine", "--preset-dir", str(tmp_path), "--out", out],
        }[kind]
        code, _, _ = run(capsys, *argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_ANALYSIS)
