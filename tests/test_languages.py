"""Region classification, the bracket table, and language registry tests."""

from __future__ import annotations

import pytest

from factlog import (
    GO,
    LanguageError,
    Region,
    classify,
    get_language,
    language_names,
    load_language_file,
    load_preset,
)
from factlog.errors import read_ini
from factlog.languages import LanguageDefinition
from factlog.rewrite import facts_for_smap
from factlog.templates import compile_template, match_at, parse_template


def regions_of(source: str, lang=GO):
    smap = classify(source, lang)
    return [(source[a:b], r) for a, b, r in smap.intervals]


class TestClassify:
    def test_plain_code_is_one_interval(self):
        assert regions_of("x := 1\n") == [("x := 1\n", Region.CODE)]

    def test_line_comment_ends_before_newline(self):
        got = regions_of("a // note\nb")
        assert got == [
            ("a ", Region.CODE),
            ("// note", Region.COMMENT),
            ("\nb", Region.CODE),
        ]

    def test_block_comment(self):
        got = regions_of("a /* x */ b")
        assert ("/* x */", Region.COMMENT) in got

    def test_string_splits_into_delimiters_and_body(self):
        got = regions_of('f("hi")')
        assert got == [
            ("f(", Region.CODE),
            ('"', Region.STRING_DELIMITER),
            ("hi", Region.STRING_BODY),
            ('"', Region.STRING_DELIMITER),
            (")", Region.CODE),
        ]

    def test_escape_does_not_close_string(self):
        got = regions_of(r'"a\"b"')
        assert (r"a\"b", Region.STRING_BODY) in got

    def test_raw_string_ignores_backslash(self):
        # backtick strings have no escape character
        got = regions_of('`a\\` + "x"')
        assert ("a\\", Region.STRING_BODY) in got
        assert ("x", Region.STRING_BODY) in got

    def test_comment_marker_inside_string_is_text(self):
        smap = classify('s := "// not a comment"', GO)
        assert all(r is not Region.COMMENT for _, _, r in smap.intervals)

    def test_string_marker_inside_comment_is_text(self):
        smap = classify('// say "hi"\nx', GO)
        assert all(r is not Region.STRING_BODY for _, _, r in smap.intervals)

    def test_unterminated_string_is_lenient(self):
        smap = classify('x = "oops', GO)
        assert smap.warnings
        assert smap.intervals[-1][2] is Region.STRING_BODY

    def test_unterminated_block_comment_is_lenient(self):
        smap = classify("a /* oops", GO)
        assert smap.warnings
        assert smap.intervals[-1][2] is Region.COMMENT

    def test_empty_source(self):
        smap = classify("", GO)
        assert not smap.intervals
        assert smap.line_count() == 0

    def test_rune_literal(self):
        got = regions_of("c := 'x'")
        assert ("x", Region.STRING_BODY) in got

    def test_zig_has_no_block_comments(self):
        smap = classify("a /* b\n", get_language("zig"))
        assert all(r is Region.CODE for _, _, r in smap.intervals)

    def test_arith_has_no_comments_or_strings(self):
        smap = classify('a = b + c // "text"\n', get_language("arith"))
        assert [r for _, _, r in smap.intervals] == [Region.CODE]


class TestSourceMap:
    def test_line_col_are_one_based(self):
        smap = classify("ab\ncd\n", GO)
        assert smap.line_col(0) == (1, 1)
        assert smap.line_col(3) == (2, 1)
        assert smap.line_col(4) == (2, 2)

    def test_region_at(self):
        smap = classify('x"y"', GO)
        assert smap.region_at(0) is Region.CODE
        assert smap.region_at(2) is Region.STRING_BODY

    def test_line_count_counts_newlines(self):
        assert classify("a\nb\nc", GO).line_count() == 2
        assert classify("a\nb\n", GO).line_count() == 2

    def test_line_table_is_built_on_first_read(self, samples_dir):
        # callgraph-c reads no position, so its fact generation never
        # builds the table; line_count does not need it either
        smap = classify((samples_dir / "c" / "scheduler.c").read_text(encoding="utf-8"), get_language("c"))
        db, _, _ = facts_for_smap(load_preset("callgraph-c").fact_specs, smap, "scheduler.c")
        assert db.fact_count() > 0 and smap.line_count() > 0
        assert "line_starts" not in vars(smap)
        assert smap.line_col(len(smap.source)) == (smap.line_count() + 1, 1)
        assert "line_starts" in vars(smap)

    def test_identifier_run_keeps_an_offset_a_group_also_opens(self):
        # With "(" an identifier character, offset 5 starts both the run
        # "(b" and the group "(b c)"; the run is the unit there.
        lang = LanguageDefinition(name="paren-ident", identifier_extra="_(")
        source = "f(a) (b c) x"
        smap = classify(source, lang)
        assert smap.group_ends[5] == 10
        assert smap.unit_ends[5] == 7
        m = match_at(compile_template(parse_template("$x"), lang), smap, 5, len(source))
        assert m.env.bindings["x"].text == "(b"


class TestScanBalanced:
    """The bracket table pairs each open with its close by kind; an open
    without a partner has no entry."""

    def group_end(self, source: str, start: int = 0, lang=GO) -> int | None:
        return classify(source, lang).group_ends.get(start)

    def test_simple_group(self):
        assert self.group_end("(a, b) rest") == len("(a, b)")

    def test_nested_mixed_groups(self):
        src = "{a[(1)]{2}}"
        assert self.group_end(src) == len(src)

    def test_ignores_brackets_in_strings(self):
        src = '("(((")'
        assert self.group_end(src) == len(src)

    def test_ignores_brackets_in_comments(self):
        src = "(/* ) */)"
        assert self.group_end(src) == len(src)

    def test_mismatched_closer_raises(self):
        assert self.group_end("(a]") is None

    def test_unclosed_raises(self):
        assert self.group_end("(a") is None

    def test_not_an_opener_raises(self):
        assert classify("abc", GO).group_ends == {}


class TestRegistry:
    def test_builtins_present(self):
        assert {"go", "c", "zig", "arith"} <= set(language_names())

    def test_unknown_language(self):
        with pytest.raises(LanguageError, match="unknown language"):
            get_language("cobol")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(LanguageError, match="already registered"):
            from factlog.languages import register_language

            register_language(GO)


class TestLoadLanguageFile:
    def test_ini_round_trip(self, tmp_path):
        cfg = tmp_path / "toy.lang"
        cfg.write_text(
            "[toy]\n"
            "line_comments = ;;\n"
            "strings = ' ' \\\n"
            "identifier_extra = _\n",
            encoding="utf-8",
        )
        (lang,) = load_language_file(cfg)
        assert lang.name == "toy"
        got = [(r) for _, _, r in classify("x ;; c\n'd'", lang).intervals]
        assert Region.COMMENT in got and Region.STRING_BODY in got

    def test_bad_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.lang"
        cfg.write_text("[bad]\nfrobnicate = 1\n", encoding="utf-8")
        with pytest.raises(LanguageError):
            load_language_file(cfg)

    def test_nested_block_comments(self, tmp_path):
        cfg = tmp_path / "nest.lang"
        cfg.write_text(
            "[nest]\nblock_comments = (* *)\nnest_block_comments = true\n",
            encoding="utf-8",
        )
        (lang,) = load_language_file(cfg)
        smap = classify("a (* x (* y *) z *) b", lang)
        assert ("(* x (* y *) z *)", Region.COMMENT) in [
            (smap.source[a:b], r) for a, b, r in smap.intervals
        ]


class TestReadIni:
    @pytest.mark.parametrize(
        "text, want",
        [
            # '=' and ':', the first of them ends the key, keys lower-cased
            ("[a]\nKey = 1\nother: x = y\nm = a:b\n", {"a": {"key": "1", "other": "x = y", "m": "a:b"}}),
            # continuation lines; blank and comment lines inside them are skipped
            ("[a]\nk = one\n  two\n\n  # c\n\tthree\nj = 2\n", {"a": {"k": "one\ntwo\nthree", "j": "2"}}),
            # full-line comments only; a ';' or '#' inside a value is kept
            ("# top\n; top\n\n[a]\n  ; note\nk = ;; # x\n", {"a": {"k": ";; # x"}}),
            # no interpolation, and [DEFAULT] lends nothing
            ("[DEFAULT]\nk = 50%\n[b]\nj = %(k)s\n", {"DEFAULT": {"k": "50%"}, "b": {"j": "%(k)s"}}),
            ("[a]\n[B]\n", {"a": {}, "B": {}}),
            ("k = v\n", "cfg.ini:1: File contains no section headers"),
            ("[a]\nk = 1\n\n[a]\n", "cfg.ini:4: section [a] given twice"),
            ("[a]\nk = 1\nK: 2\n", "cfg.ini:3: key 'k' given twice in [a]"),
            ("[a]\nk = 1\nstray\n", "cfg.ini:3: expected '[section]', 'key = value' or 'key: value', got 'stray'"),
            ("[a]\n  indented\n", "cfg.ini:2: expected '[section]'"),
            ("[a]\n= v\n", "cfg.ini:2: expected '[section]'"),
            ("[]\n", "cfg.ini:1: File contains no section headers"),
        ],
    )
    def test_read_ini(self, tmp_path, text, want):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text, encoding="utf-8")
        if isinstance(want, dict):
            assert read_ini(cfg, LanguageError) == want
        else:
            with pytest.raises(LanguageError) as exc:
                read_ini(cfg, LanguageError)
            assert str(exc.value).startswith(f"{tmp_path}/{want}")


class TestLanguageDefinition:
    def test_overlapping_string_openers_rejected(self):
        with pytest.raises(LanguageError):
            LanguageDefinition(
                name="dup",
                string_delimiters=(('"', '"', None), ('""', '""', None)),
            )
