"""Template parsing and matching semantics for every hole kind."""

from __future__ import annotations

import gc
import time

import pytest

from factlog import (
    GO,
    DuplicateHoleName,
    HoleKind,
    LanguageDefinition,
    MalformedHole,
    classify,
    get_language,
    iter_matches,
    parse_template,
)
from factlog import templates
from factlog.analyses import load_preset
from factlog.rewrite import facts_for_smap, parse_fact_spec
from factlog.templates import Hole, Literal, compile_template, iter_nested_matches, match_at
from oracles import collect_inner, interpret_at


def go_match(template: str, source: str):
    return next(iter_matches(parse_template(template), classify(source, GO)), None)


def go_all(template: str, source: str):
    return list(iter_matches(parse_template(template), classify(source, GO)))


def binding(template: str, source: str, hole: str | None = None) -> str:
    parsed = parse_template(template)
    if hole is None:
        (hole,) = parsed.hole_names()
    m = next(iter_matches(parsed, classify(source, GO)), None)
    assert m is not None, f"{template!r} found no match in {source!r}"
    return m.env[hole].text


class TestParseTemplate:
    def test_kinds(self):
        t = parse_template('f($a, $b*, $c?) "$s" ...')
        kinds = [a.kind for a in t.atoms if isinstance(a, Hole)]
        assert kinds == [
            HoleKind.EXPRESSION,
            HoleKind.EVERYTHING,
            HoleKind.OPTIONAL,
            HoleKind.STRING_BODY,
            HoleKind.ANONYMOUS,
        ]

    def test_literals_preserved(self):
        t = parse_template("func $f(")
        assert isinstance(t.atoms[0], Literal) and t.atoms[0].text == "func "
        assert t.atoms[-1].text == "("

    def test_duplicate_names_rejected(self):
        with pytest.raises(DuplicateHoleName):
            parse_template("$x + $x")

    def test_anonymous_may_repeat(self):
        parse_template("f(..., ...)")

    def test_bad_hole_syntax(self):
        with pytest.raises(MalformedHole):
            parse_template("$")

    def test_dollar_must_name_a_hole(self):
        with pytest.raises(MalformedHole):
            parse_template("$1")

    def test_hole_names(self):
        assert parse_template("$a b $c*").hole_names() == ("a", "c")


class TestExpressionHole:
    def test_identifier_run(self):
        assert binding("x := $v", "x := alpha7 ;") == "alpha7"

    def test_dotted_name_is_one_unit(self):
        assert binding("$f()", "fmt.Println()") == "fmt.Println"

    def test_balanced_group_unit(self):
        assert binding("x := $v", "x := (a + b) ;") == "(a + b)"

    def test_adjacent_units_chain(self):
        assert binding("x := $v;", "x := f(a)[0];") == "f(a)[0]"

    def test_chain_may_start_with_group(self):
        assert binding("$f(url)", "[]byte(url)") == "[]byte"

    def test_string_literal_unit(self):
        assert binding("x := $v", 'x := "hi there"') == '"hi there"'

    def test_sigil_prefix(self):
        assert binding("x := $v", "x := *ptr") == "*ptr"

    def test_sigil_only_leads_the_chain(self):
        # a second sigil ends the chain, so only the last viable start works
        assert binding("$v;", "*ab;") == "*ab"
        assert binding("$v;", "*a*b;") == "b"

    def test_whitespace_does_not_extend(self):
        assert binding("x := $v", "x := a b") == "a"

    def test_backtracks_to_satisfy_next_literal(self):
        # longest chain is f(a)(b); the trailing literal forces giving back
        assert binding("$f(b)", "f(a)(b)") == "f(a)"

    def test_does_not_match_empty(self):
        assert go_match("x := $v", "x := ;") is None

    def test_anchors_exactly_after_literal(self):
        # the hole starts right where the literal ends; whitespace next to a
        # hole must be written in the template to be tolerated
        assert binding("f($a)", "f(g(x))") == "g(x)"
        assert go_match("f($a)", "f( g(x) )") is None
        assert binding("f( $a )", "f( g(x) )") == "g(x)"

    def test_no_crossing_comment(self):
        assert binding("x := $v", "x := a/*stop*/b") == "a"

    def test_no_unit_starts_at_a_closing_delimiter(self):
        # the window starts inside the string "b ": a closing quote starts no
        # unit, so $c cannot bind the quote at offset 4 before (x)
        smap = classify('a"b "(x) ;', GO)
        assert list(iter_matches(parse_template("$c(...)"), smap, 2, 10)) == []

    def test_identifier_chars_are_the_languages_own(self):
        # Without '_' in identifier_extra, '_' ends a run and does not keep
        # the next run from being a left-maximal start.
        bare = LanguageDefinition(name="bare", identifier_extra=".")
        template = parse_template("$c(...)")
        assert [m.env["c"].text for m in iter_matches(template, classify("a_b.c(x)", bare))] == ["b.c"]
        assert [m.env["c"].text for m in iter_matches(template, classify("a_b.c(x)", GO))] == ["a_b.c"]


class TestEverythingHole:
    def test_lazy_up_to_literal(self):
        assert binding("f($args*)", "f(a, b, c)") == "a, b, c"

    def test_empty_allowed(self):
        assert binding("f($args*)", "f()") == ""

    def test_depth_zero_atom(self):
        # the closing paren inside the nested group does not terminate it
        assert binding("f($args*)", "f(g(x), y)") == "g(x), y"

    def test_crosses_comments(self):
        assert binding("{$body*}", "{a; /* } */ b;}") == "a; /* } */ b;"

    def test_stops_at_first_atom_occurrence(self):
        assert binding("$pre* stop", "a b stop c stop") == "a b"

    def test_anchor_at_a_string_delimiter(self):
        # the quote is a string delimiter, not code, yet the anchor starts there
        m = go_match('f($a*"$s")', 'f(x, "y")')
        assert (m.env["a"].text, m.env["s"].text) == ("x, ", "y")

    def test_starts_at_end_of_source(self):
        m = go_match("a$x* ", "a")
        assert (m.start, m.end, m.env["x"].text) == (0, 1, "")

    RAW = LanguageDefinition(name="raw", string_delimiters=(('r"', '"', None), ('"', '"', "\\")))

    @pytest.mark.parametrize(
        "template, source, want",
        [
            ("$x* b", 'r"s" b', [(0, 6, 'r"s"')]),
            ("$x* b", "for b", [(0, 5, "for")]),
            ("$x* b", "a\u3000b", [(0, 3, "a")]),  # U+3000 is whitespace, as str.isspace says
            ("$x* r", ";r", []),  # an r in code is no whitespace anchor, though r" opens a string
            ("$x* r", "x r", [(0, 3, "x")]),
        ],
    )
    def test_whitespace_anchor_with_an_identifier_string_opener(self, template, source, want):
        ms = iter_matches(parse_template(template), classify(source, self.RAW))
        assert [(m.start, m.end, m.env["x"].text) for m in ms] == want


class TestBracketRules:
    """Groups pair brackets by kind and a mismatched close is plain text, but
    $x* and ... take any close against any open.  Unifying the two rules
    changes these outputs."""

    def test_group_pairs_past_a_mismatched_close(self):
        assert classify("f(a])", GO).group_ends[1] == 5

    def test_anonymous_hole_stops_at_a_mismatched_close(self):
        assert go_all("$c(...)", "f(a]) x") == []

    def test_everything_hole_spans_an_unpaired_open(self):
        m = go_match("{$b*}", "{ ( ] }")
        assert (m.start, m.end, m.env["b"].text) == (0, 7, " ( ] ")

    @pytest.mark.parametrize(
        "template, source, spans, bound",
        [
            # no literal after the hole: it runs to the first close at depth zero
            ("g(...", "g( ( ] ) x", [(0, 7)], None),
            ("g($b*", "g(a [ ) ] b) c", [(0, 8)], "a [ ) "),
            ("[$b*", "[ x ) y ]", [(0, 4)], " x "),
            ("{...}", "{ ( ] } }", [(0, 7)], None),
            # brackets inside strings and comments count for neither rule
            ("$c(...)", 'f("(", g(h(x]) y)', [(0, 17)], "f"),
            ("$c(...)", "f(a /* ) */ (b)) z", [(0, 16)], None),
            # a match that ends inside a group it opened: the walk steps over
            # that group's open and still visits the groups after it
            ("$c(...", "h(g(f(x)), y)", [(0, 12), (4, 7)], "h"),
            ("(...", "((a) (b (c)) d)", [(0, 14), (8, 10)], None),
        ],
    )
    def test_any_close_rule_edge_cases(self, template, source, spans, bound):
        parsed = parse_template(template)
        matches = list(iter_nested_matches(parsed, classify(source, GO), 0, len(source)))
        assert [(m.start, m.end) for m in matches] == spans
        if bound is not None:
            (hole,) = parsed.hole_names()
            assert matches[0].env[hole].text == bound


class TestOptionalHole:
    def test_absent(self):
        m = go_match("func f() $r? {", "func f() {")
        assert m is not None and m.env["r"].text == ""

    def test_present(self):
        assert binding("func f() $r? {", "func f() error {") == "error"

    def test_prefers_empty_when_next_literal_follows(self):
        # "error" would also parse as an expression; empty wins because the
        # open brace is immediately reachable
        m = go_match("f() $r? error", "f() error")
        assert m is not None and m.env["r"].text == ""

    @pytest.mark.parametrize("template, want", [("$r? (", (8, 9, "(")), ("$r? foo", (17, 20, "foo"))])
    def test_leading_hole_never_starts_inside_a_comment(self, template, want):
        # empty, $r could start anywhere the literal after it is reachable,
        # which a comment's own text must not be
        source = "/* x */ (\n// bar\nfoo\n"
        assert [(m.start, m.end, source[m.start : m.end]) for m in go_all(template, source)] == [want]


class TestStringBodyHole:
    def test_binds_body_without_quotes(self):
        assert binding('f("$s")', 'f("hello %d")') == "hello %d"

    def test_requires_string_at_position(self):
        assert go_match('f("$s")', "f(x)") is None

    def test_empty_string(self):
        assert binding('f("$s")', 'f("")') == ""


class TestAnonymousHole:
    def test_skips_without_binding(self):
        m = go_match("f(...)", "f(a, b)")
        assert m is not None
        assert "a" not in m.env


class TestMatchAll:
    def test_multiple_matches_in_order(self):
        ms = go_all("f($x)", "f(a); f(b); f(c)")
        assert [m.env["x"].text for m in ms] == ["a", "b", "c"]

    def test_matches_do_not_overlap(self):
        ms = go_all("$a b", "x b y b")
        assert [m.env["a"].text for m in ms] == ["x", "y"]

    def test_ignores_comment_and_string_copies(self):
        src = 'f(a) // f(b)\ns := "f(c)"\nf(d)'
        ms = go_all("f($x)", src)
        assert [m.env["x"].text for m in ms] == ["a", "d"]


class TestPositions:
    def test_match_span_and_line_col(self):
        src = "x := 1\ny := incr(2)\n"
        m = go_match("incr($n)", src)
        assert src[m.start : m.end] == "incr(2)"
        b = m.env["n"]
        assert (b.line, b.column) == (2, 11)
        assert src[b.start : b.end] == "2"

    def test_literal_whitespace_is_elastic(self):
        assert go_match("a  :=  1", "a := 1") is not None
        assert go_match("a := 1", "a   :=\n\t1") is not None

    def test_literal_whitespace_required(self):
        # template spaces need at least one source whitespace character
        assert go_match("func $f(", "funcmain(") is None


class TestZigSigils:
    def test_error_union_prefix(self):
        smap = classify("fn f() !void {", get_language("zig"))
        m = next(iter_matches(parse_template("fn f() $r? {"), smap), None)
        assert m is not None and m.env["r"].text == "!void"


class TestNestedDescentGrowth:
    @staticmethod
    def descent(text: str):
        """The count of iter_nested_matches over a whole file."""
        template = parse_template(text)
        return lambda smap: sum(1 for _ in iter_nested_matches(template, smap, 0, len(smap.source)))

    @staticmethod
    def total_ratio(count, opener: str, closer: str, per_level: int) -> float:
        # Depth 2d against d: linear growth reads 2, quadratic 4.  The two
        # depths run alternately, nine times each, and the ratio is taken
        # of their total times.  A shared machine's speed moves both ways,
        # by up to 2x between runs, so a minimum over runs picks a lucky
        # fast run on one side; interleaved totals see the same mix of
        # speeds on both sides.  Dropping each match as it comes keeps page
        # faults on a large list out.  As in timeit, the cyclic collector is
        # off while a walk is timed: a full collection costs time in
        # proportion to everything the test process holds, not to the walk.
        def run(depth: int) -> float:
            source = opener * depth + "x" + closer * depth
            smap = classify(source, GO)
            gc.disable()
            try:
                t0 = time.perf_counter()
                found = count(smap)
                elapsed = time.perf_counter() - t0
            finally:
                gc.enable()
            assert found == depth // per_level
            return elapsed

        depth = 3000
        totals = {depth: 0.0, 2 * depth: 0.0}
        for _ in range(9):
            for d in totals:
                totals[d] += run(d)
        return totals[2 * depth] / totals[depth]

    def test_deep_nesting_grows_near_linearly(self):
        assert self.total_ratio(self.descent("[$x]"), "[", "]", 1) <= 2.5

    def test_fact_generation_over_deep_nesting_grows_near_linearly(self):
        # the generated spec function's written-out descent, rows and all
        spec = parse_fact_spec(
            "[match]\n$all*\n\n[rule]\nwhere nested, rewrite $all { [$x] -> hit($x.column). }\n\n[rewrite]\n$all\n",
            language="go",
        )

        def hits(smap) -> int:
            db, matches, _ = facts_for_smap((spec,), smap, "m.go")
            assert matches == {"spec": 1}
            return len(db.tuples("hit"))

        assert self.total_ratio(hits, "[", "]", 1) <= 2.5

    @pytest.mark.parametrize(
        "text, opener, per_level",
        [
            ("$c(...)", "f(", 1),
            ("(...", "(", 2),  # each match ends at the close of the level outside it
        ],
    )
    def test_anonymous_hole_jumps_over_deep_nesting(self, text, opener, per_level):
        # ... steps over each inner group to its partner instead of rescanning it
        assert self.total_ratio(self.descent(text), opener, ")", per_level) <= 2.5


class TestCandidateTables:
    @pytest.mark.parametrize(
        "text, strategy",
        [
            ("f(...)", "find"),
            (" (...)", "find"),
            ("$c(...)", "anchor"),
            ("$l = $a + $b", "anchor"),
            ("$x", "units"),
            ("$x $y*", "units"),
            ("...)", "scan"),
            ("$b* }", "scan"),
            (" $x", "scan"),
            ("", "none"),
        ],
    )
    def test_each_template_has_its_strategy(self, text, strategy):
        assert compile_template(parse_template(text), GO).compiled.strategy == strategy

    def test_the_empty_template_matches_nowhere(self):
        template, smap = parse_template(""), classify("f(x) { g(y) }", GO)
        assert list(iter_matches(template, smap)) == []
        assert list(iter_nested_matches(template, smap, 0, len(smap.source))) == []
        assert smap.candidate_tables == {("none", ""): []}

    @staticmethod
    def count_builds(monkeypatch) -> list[str]:
        builds: list[str] = []
        build = templates._anchor_candidates

        def counted(t, smap):
            builds.append(t.key)
            return build(t, smap)

        monkeypatch.setattr(templates, "_anchor_candidates", counted)
        return builds

    def test_specs_that_share_an_anchor_share_one_table(self, monkeypatch, samples_dir):
        builds = self.count_builds(monkeypatch)
        preset = load_preset("liveness-arith")
        assert sorted(spec.match.text for spec in preset.fact_specs) == ["$l = $a + $b", "$l = $a - $b"]
        smap = classify((samples_dir / "liveness.arith").read_text(encoding="utf-8"), preset.language_def())
        _, matches, _ = facts_for_smap(preset.fact_specs, smap, "liveness.arith")
        assert sorted(matches.values()) == [1, 2]
        assert list(smap.candidate_tables) == [("anchor", " =")]
        assert builds == [" ="]

    def test_the_nested_descent_builds_one_table_for_all_its_windows(self, monkeypatch):
        # the outer $f(...) and the inner $c(...) share the "(" anchor, and
        # every function body is one more window of the nested descent
        builds = self.count_builds(monkeypatch)
        preset = load_preset("callgraph-c")
        source = "".join(f"int f{i}(int x) {{ g(h(x), k[x]); if (x) {{ m(x); }} }}\n" for i in range(40))
        smap = classify(source, preset.language_def())
        db, matches, _ = facts_for_smap(preset.fact_specs, smap, "a.c")
        assert sum(matches.values()) == 40
        assert len(db.tuples("edge")) == 40 * 3
        assert list(smap.candidate_tables) == [("anchor", "(")]
        assert builds == ["("]


# ---------------------------------------------------------------------------
# Generated matchers: template text stays data, and no template is too long


PLAIN = LanguageDefinition(name="plain-text")  # no comments, no strings: every character is code

# Literals holding quotes, a triple quote, a backslash, braces, '#' and a
# newline, and holes named like the generated code's locals and constants.
TRICKY = (
    '$src "x" \'\'\'$hi\'\'\' \\ {$start} # $kinds\n$env {} $p $s0 {C0} $C0 """;',
    'a "x" \'\'\'b\'\'\' \\ {c} # d\ne {} f g {C0} h """;\nz "x" \'\'\'y\'\'\' \\ {w} # v\nu {} t s {C0} r """;\n',
)
TRICKY_HOLES = ("src", "hi", "start", "kinds", "env", "p", "s0", "C0")


def _key(m) -> tuple | None:
    return None if m is None else (m.start, m.end, sorted(m.env.bindings.items()))


def _agrees_with_interpreter(template, smap) -> list:
    """The matches, after checking match_at against the interpreter and
    the offset form against match_at at every offset, and the scan against
    the oracle's first-match scan."""
    n = len(smap.source)
    offsets = templates._compiled_for(template, smap).make_matcher(smap)
    for start in range(n + 1):
        m = match_at(template, smap, start)
        assert _key(m) == _key(interpret_at(template, smap, start, n)), start
        spans = None if m is None else (m.end,) + tuple(x for h in template.hole_names() for x in m.env[h][1:3])
        assert offsets(start, n) == spans, start
    found = list(iter_matches(template, smap))
    assert [_key(m) for m in found] == [_key(m) for m in collect_inner(template, smap, 0, n, False)]
    return found


class TestGeneratedCode:
    def test_template_text_is_never_code(self):
        text, source = TRICKY
        found = _agrees_with_interpreter(parse_template(text), classify(source, PLAIN))
        assert [[m.env[h].text for h in TRICKY_HOLES] for m in found] == [
            ["a", "b", "c", "d", "e", "f", "g", "h"],
            ["z", "y", "w", "v", "u", "t", "s", "r"],
        ]

    @pytest.mark.parametrize(
        "lang, text, source, want",
        [
            ("c", 'printf("%s\\n", $src);', 'printf("%s\\n", name); printf("%d\\n", n);', ["name"]),
            ("c", "#define $hi '\\\\'", "#define BS '\\\\'\n", ["BS"]),
            ("go", 'fmt.Println("$start", $env)', 'fmt.Println("{}", x)\nfmt.Println("", y)\n', ["{}", ""]),
        ],
    )
    def test_quotes_and_backslashes_match_as_text(self, lang, text, source, want):
        template = parse_template(text)
        found = _agrees_with_interpreter(template, classify(source, get_language(lang)))
        assert [m.env[template.hole_names()[0]].text for m in found] == want

    @pytest.mark.parametrize(
        "text, source, want",
        [
            ("$x($y)", "fooREM (x)\nbar(y)\nbazq'(a)'(b)", [("bar", "y"), ("bazq'(a)'", "b")]),
            ("$x = $y", "aREM\n= b\nc = dq's' = e\n", [("a", "b"), ("c", "dq's'")]),
            ("$x", "abREMcd\nq'r'st", ["ab", "q'r'st"]),
        ],
    )
    def test_an_identifier_run_ends_where_a_comment_or_string_starts(self, text, source, want):
        # a comment opener and a string delimiter that start with identifier
        # characters cut the run before them
        lang = LanguageDefinition(name="words", line_comment_prefixes=("REM",), string_delimiters=(("q'", "'", None),))
        template = parse_template(text)
        found = _agrees_with_interpreter(template, classify(source, lang))
        values = [tuple(m.env[h].text for h in template.hole_names()) for m in found]
        assert [v[0] if len(v) == 1 else v for v in values] == want

    @pytest.mark.parametrize(
        "text, source",
        [
            ("(...)" * 25, "(a)" * 24 + "(b, (c))" + "(d)"),
            (" ".join(f"$v{i}" for i in range(25)), " ".join(f"f{i}(x)" for i in range(26))),
            (",".join(f"$v{i}?" for i in range(25)) + ";", ",".join(f"a{i}" for i in range(0, 25, 2)) + ",,,,,,,,,,,,;"),
            ("".join(f"[$v{i}*]" for i in range(25)), "[a][]" * 12 + "[b [c] d][e]"),
            # at the unpaired "(" every hole binds empty: an empty match is none
            ("".join(f"$v{i}?" for i in range(25)), "( a (b)"),
        ],
    )
    def test_more_backtracking_holes_than_nested_loops_allow(self, text, source):
        # CPython compiles at most 20 nested loops in one function
        template = parse_template(text)
        assert _agrees_with_interpreter(template, classify(source, GO))

    def test_one_generated_matcher_per_template(self, monkeypatch):
        # match_at, both walks and a spec's generated function all run the
        # one matcher the template compiles
        built = []
        build = templates._MatcherSource.build

        def counting_build(source, *args):
            built.append(source.atoms)
            return build(source, *args)

        monkeypatch.setattr(templates._MatcherSource, "build", counting_build)
        text = "oneMatcherPerTemplate($x)"  # atoms that no other test compiles
        source = "oneMatcherPerTemplate(a); oneMatcherPerTemplate((b));\n"
        smap = classify(source, GO)
        template = parse_template(text)
        spec = parse_fact_spec(f'[match]\n{text}\n\n[rewrite]\nhit("$x").\n', "one", "go")
        assert match_at(template, smap, 0).env["x"].text == "a"
        assert [m.env["x"].text for m in iter_matches(template, smap)] == ["a", "(b)"]
        assert [m.env["x"].text for m in iter_nested_matches(template, smap, 0, len(source))] == ["a", "(b)"]
        db, matches, _ = facts_for_smap((spec,), smap, "one.go")
        assert matches == {"one": 2} and db.to_dl_text() == 'hit("(b)").\nhit("a").\n'
        assert built == [template.atoms]
