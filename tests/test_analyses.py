"""Preset loading, file discovery, and analysis runs."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from factlog import (
    Database,
    FactlogError,
    evaluate,
    list_presets,
    load_preset,
    run_analysis,
    run_fact_generation,
)
from factlog.datalog import goal_directed, query
from factlog.syntax import parse_query

EXPECTED_PRESETS = {
    "callgraph-c",
    "callgraph-go",
    "callgraph-go-methods",
    "callgraph-zig",
    "liveness-arith",
    "liveness-arith-classical",
}

# Per bundled preset: spec names, then sha256 prefixes of repr(fact_specs)
# (the parsed [match], [rule] and [rewrite] of every spec) and of
# program_text.  Presets share files through relative paths in preset.cfg;
# these pins show that sharing changed nothing a preset loads.
PRESET_CONTENT = {
    "callgraph-c": (["functions"], "d596791d145a9d91", "a830cbbe3e857c87"),
    "callgraph-go": (["functions"], "b7ed702acd02509c", "a830cbbe3e857c87"),
    "callgraph-go-methods": (["functions", "methods"], "b9f188866ca8d280", "12ca70040ef3dac7"),
    "callgraph-zig": (["functions"], "1ddc18d336106135", "a830cbbe3e857c87"),
    "liveness-arith": (["add", "sub"], "b163e801e85dd3bb", "7873fda97c61b12f"),
    "liveness-arith-classical": (["add", "sub"], "b163e801e85dd3bb", "c4ec607572299616"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class TestPresets:
    def test_bundled_presets_listed(self):
        assert EXPECTED_PRESETS <= set(list_presets())

    def test_load_known_preset(self):
        preset = load_preset("callgraph-go")
        assert preset.language == "go"
        assert preset.fact_specs
        assert preset.primary_output == "calls"
        assert preset.program() is not None

    def test_unknown_preset(self):
        with pytest.raises(FactlogError, match="unknown preset"):
            load_preset("no-such-preset")

    def test_custom_preset_dir(self, tmp_path):
        d = tmp_path / "mine"
        d.mkdir()
        (d / "preset.cfg").write_text(
            "[preset]\nlanguage = go\nspecs = calls.spec\n", encoding="utf-8"
        )
        (d / "calls.spec").write_text(
            '[match]\nf($x)\n\n[rewrite]\nseen("$x").\n', encoding="utf-8"
        )
        preset = load_preset("mine", base=tmp_path)
        assert preset.language == "go"
        assert preset.program_text == ""

    def test_preset_dir_env_override(self, tmp_path, monkeypatch):
        (tmp_path / "alt").mkdir()
        (tmp_path / "alt" / "preset.cfg").write_text(
            "[preset]\nlanguage = c\nspecs =\n", encoding="utf-8"
        )
        monkeypatch.setenv("FACTLOG_PRESET_DIR", str(tmp_path))
        assert "alt" in list_presets()

    def test_bundled_preset_content_pinned(self):
        assert set(PRESET_CONTENT) == EXPECTED_PRESETS
        for name, (spec_names, specs_digest, program_digest) in PRESET_CONTENT.items():
            preset = load_preset(name)
            assert [s.name for s in preset.fact_specs] == spec_names, name
            assert _digest(repr(preset.fact_specs)) == specs_digest, name
            assert _digest(preset.program_text) == program_digest, name

    def test_specs_compile_on_first_read_and_are_kept(self):
        preset = load_preset("callgraph-go-methods")
        assert all(isinstance(s, Path) for s in preset.specs)
        assert preset.fact_specs is preset.fact_specs
        assert isinstance(preset.fact_specs, tuple)

    def test_program_is_parsed_once(self):
        preset = load_preset("callgraph-c")
        assert preset.program() is preset.program()
        changed = preset._replace(program_text="p(X) :- q(X).\n")
        assert changed.program() is not preset.program()
        assert changed.program().idb_relations() == {"p"}

    @pytest.mark.parametrize(
        "name, pattern, rows",
        [
            ("callgraph-c", 'calls("a", X)', {"edge": [("a", "b"), ("b", "c")]}),
            ("callgraph-c", "calls(X, Y)", {"edge": [("a", "b"), ("b", "c")]}),
            (
                "liveness-arith",
                'live("x", X)',
                {"next": [(1, 2), (2, 3)], "read": [("x", 3)], "write": [("x", 2)]},
            ),
        ],
    )
    def test_evaluation_leaves_the_shared_program_as_it_was(self, name, pattern, rows):
        preset = load_preset(name)
        program = preset.program()
        before = (dict(program.declarations), list(program.facts), list(program.rules))
        edb = Database({rel: set(tuples) for rel, tuples in rows.items()})
        goal = goal_directed(program, edb, parse_query(pattern))
        assert query(evaluate(goal.program, goal.edb), goal.pattern)
        evaluate(program, edb)
        assert preset.program() is program
        assert (program.declarations, program.facts, program.rules) == before

    def test_every_bundled_program_parses(self):
        for name in EXPECTED_PRESETS:
            preset = load_preset(name)
            if preset.program_text is not None:
                preset.program()


class TestDiscoverFiles:
    def test_directory_filtered_by_extension(self, tmp_path):
        from factlog import discover_files

        (tmp_path / "a.go").write_text("", encoding="utf-8")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.go").write_text("", encoding="utf-8")
        (tmp_path / "c.txt").write_text("", encoding="utf-8")
        got = discover_files([tmp_path], "go")
        assert [p.name for p in got] == ["a.go", "b.go"]

    def test_explicit_file_kept_regardless_of_extension(self, tmp_path):
        from factlog import discover_files

        odd = tmp_path / "weird.txt"
        odd.write_text("", encoding="utf-8")
        assert discover_files([odd], "go") == [odd]

    def test_missing_path_raises(self, tmp_path):
        from factlog import discover_files

        with pytest.raises(FactlogError):
            discover_files([tmp_path / "nope.go"], "go")


class TestRunFactGeneration:
    def test_example_go(self, samples_dir):
        preset = load_preset("callgraph-go")
        db, stats, diagnostics = run_fact_generation(preset, [samples_dir / "example.go"])
        assert db.tuples("edge") == {
            ("incr", "one"),
            ("main", "fmt.Printf"),
            ("main", "incr"),
            ("main", "one"),
        }
        assert stats.files == 1
        assert stats.function_count == 3
        assert stats.fact_count == 4
        assert diagnostics == []

    def test_jobs_do_not_change_result(self, samples_dir):
        preset = load_preset("callgraph-go")
        paths = sorted((samples_dir / "go").glob("*.go")) + [samples_dir / "example.go"]
        db1, s1, _ = run_fact_generation(preset, paths, jobs=1)
        db2, s2, _ = run_fact_generation(preset, paths, jobs=3)
        assert db1 == db2
        assert s1.fact_count == s2.fact_count
        assert s1.function_count == s2.function_count

    def test_stats_properties(self, samples_dir):
        preset = load_preset("callgraph-go")
        _, stats, _ = run_fact_generation(preset, [samples_dir / "example.go"])
        assert stats.kloc == pytest.approx(stats.line_count / 1000.0)
        assert stats.facts_per_function == pytest.approx(4 / 3)
        d = stats.as_dict()
        assert d["files"] == 1 and d["function_count"] == 3
        assert d["spec_matches"] == {"functions": 3}

    def test_facts_per_function_none_when_no_functions(self, tmp_path):
        preset = load_preset("callgraph-go")
        empty = tmp_path / "empty.go"
        empty.write_text("package main\n", encoding="utf-8")
        _, stats, _ = run_fact_generation(preset, [empty])
        assert stats.function_count == 0
        assert stats.facts_per_function is None


class TestRunAnalysis:
    def test_solves_primary_output(self, samples_dir):
        preset = load_preset("liveness-arith")
        solved, stats, _ = run_analysis(preset, [samples_dir / "liveness.arith"])
        assert stats.fact_count == 12
        assert len(solved.tuples("live")) == 13

    def test_matches_generation_plus_evaluate(self, samples_dir):
        preset = load_preset("callgraph-go")
        solved, _, _ = run_analysis(preset, [samples_dir / "example.go"])
        db, _, _ = run_fact_generation(preset, [samples_dir / "example.go"])
        assert solved == evaluate(preset.program(), db)
