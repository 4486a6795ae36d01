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
from factlog.templates import Hole, Literal, iter_nested_matches


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
    def total_ratio(text: str, opener: str, closer: str, per_level: int) -> float:
        # Depth 2d against d: linear growth reads 2, quadratic 4.  The two
        # depths run alternately, nine times each, and the ratio is taken
        # of their total times.  A shared machine's speed moves both ways,
        # by up to 2x between runs, so a minimum over runs picks a lucky
        # fast run on one side; interleaved totals see the same mix of
        # speeds on both sides.  Dropping each match as it comes keeps page
        # faults on a large list out.  As in timeit, the cyclic collector is
        # off while a walk is timed: a full collection costs time in
        # proportion to everything the test process holds, not to the walk.
        template = parse_template(text)

        def run(depth: int) -> float:
            source = opener * depth + "x" + closer * depth
            smap = classify(source, GO)
            gc.disable()
            try:
                t0 = time.perf_counter()
                count = sum(1 for _ in iter_nested_matches(template, smap, 0, len(source)))
                elapsed = time.perf_counter() - t0
            finally:
                gc.enable()
            assert count == depth // per_level
            return elapsed

        depth = 3000
        totals = {depth: 0.0, 2 * depth: 0.0}
        for _ in range(9):
            for d in totals:
                totals[d] += run(d)
        return totals[2 * depth] / totals[depth]

    def test_deep_nesting_grows_near_linearly(self):
        assert self.total_ratio("[$x]", "[", "]", 1) <= 2.5

    @pytest.mark.parametrize(
        "text, opener, per_level",
        [
            ("$c(...)", "f(", 1),
            ("(...", "(", 2),  # each match ends at the close of the level outside it
        ],
    )
    def test_anonymous_hole_jumps_over_deep_nesting(self, text, opener, per_level):
        # ... steps over each inner group to its partner instead of rescanning it
        assert self.total_ratio(text, opener, ")", per_level) <= 2.5
