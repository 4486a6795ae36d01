"""Fact specs: rewrite templates, rule clauses, and end-to-end emission."""

from __future__ import annotations

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factlog import (
    GO,
    AnalysisPreset,
    Database,
    FactlogError,
    MalformedFact,
    SpecFormatError,
    UnboundHole,
    classify,
    iter_matches,
    load_fact_spec,
    parse_fact_line,
    parse_fact_spec,
    parse_rewrite_template,
    parse_rule,
    parse_template,
    run_fact_generation,
)
from factlog.rewrite import (
    Condition,
    CondOp,
    NestedRewrite,
    Property,
    RewriteTemplate,
    RuleSpec,
    SubstLiteral,
    Substitution,
    facts_for_smap,
    substitute,
)
from factlog.templates import Binding, MatchEnvironment, iter_nested_matches


def env_with(**holes: Binding) -> MatchEnvironment:
    return MatchEnvironment(dict(holes))


def bind(text: str, line: int = 1, column: int = 1) -> Binding:
    return Binding(text, 0, len(text), line, column)


class TestRewriteTemplate:
    def test_value_substitution(self):
        t = parse_rewrite_template('edge("$f", "$c").')
        out = substitute(t, env_with(f=bind("main"), c=bind("incr")))
        assert out == 'edge("main", "incr").'

    def test_property_access(self):
        t = parse_rewrite_template("at($x.line, $x.column)")
        out = substitute(t, env_with(x=bind("v", line=4, column=9)))
        assert out == "at(4, 9)"

    def test_offset_folding(self):
        t = parse_rewrite_template("next($l.line, $l.line + 1)")
        subs = [a for a in t.atoms if isinstance(a, Substitution)]
        assert [s.offset for s in subs] == [0, 1]
        out = substitute(t, env_with(l=bind("stmt", line=3)))
        assert out == "next(3, 4)"

    def test_negative_offset(self):
        t = parse_rewrite_template("prev($l.line - 1)")
        assert substitute(t, env_with(l=bind("s", line=3))) == "prev(2)"

    def test_offset_not_folded_for_value(self):
        # "+ 1" after a value substitution is literal text
        t = parse_rewrite_template("f($x + 1)")
        assert substitute(t, env_with(x=bind("a"))) == "f(a + 1)"

    def test_dollar_name_longest_match(self):
        t = parse_rewrite_template("$ab$a")
        out = substitute(t, env_with(ab=bind("X"), a=bind("Y")))
        assert out == "XY"

    def test_unbound_hole_raises(self):
        t = parse_rewrite_template("edge($missing)")
        with pytest.raises(UnboundHole):
            substitute(t, env_with())

    def test_property_suffix_requires_word_break(self):
        t = parse_rewrite_template("$x.liner")
        out = substitute(t, env_with(x=bind("v", line=7)))
        assert out == "v.liner"


def cond(hole: str, op: str, value: str) -> RuleSpec:
    return RuleSpec(conditions=(Condition(hole, CondOp(op), value),))


def inner(target: str, match: str, rewrite: str) -> RuleSpec:
    return RuleSpec(nested_rewrites=(NestedRewrite(target, parse_template(match), parse_rewrite_template(rewrite)),))


# The [rule] grammar: each clause with the RuleSpec it parses to, or the
# exception class it raises.
RULE_GRAMMAR = [
    ("", RuleSpec()),
    ("where", RuleSpec()),
    ("where nested", RuleSpec(nested=True)),
    ("where nested,", RuleSpec(nested=True)),
    ("where nested , ", RuleSpec(nested=True)),
    ("where nested, nested", RuleSpec(nested=True)),
    ("where,", SpecFormatError),
    ("where nested,,", SpecFormatError),
    ("where , nested", SpecFormatError),
    ("where nestedx", SpecFormatError),
    ("wherenested", SpecFormatError),
    ("x where", SpecFormatError),
    ('where nested $c != "if"', SpecFormatError),
    ('where nested\n$c != "if"', SpecFormatError),
    ('where "x"', SpecFormatError),
    ('where $c != "x"', cond("c", "!=", "x")),
    ('where $ c != "x"', cond("c", "!=", "x")),
    ('where$c!="x"', cond("c", "!=", "x")),
    ('where $c == "a\\"b"', cond("c", "==", 'a"b')),
    ('where $c == "a\\\\b"', cond("c", "==", "a\\b")),
    ('where $c == "a\\nb"', cond("c", "==", "anb")),
    ('where $c == "a\\\nb"', cond("c", "==", "a\nb")),
    ('where $c == "->{}"', cond("c", "==", "->{}")),
    ('where $c == ""', cond("c", "==", "")),
    ('where $c == "abc', SpecFormatError),
    ('where $c == "ab\\', SpecFormatError),
    ('where $f = "x"', SpecFormatError),
    ("where $c != x", SpecFormatError),
    ("where $c ==", SpecFormatError),
    ("where $c", SpecFormatError),
    ("where $", SpecFormatError),
    ('where $1 == "x"', SpecFormatError),
    ("where rewrite $b { $c(...) -> e($c). }", inner("b", "$c(...)", "e($c).")),
    ("where rewrite$b{f($x)->g($x)}", inner("b", "f($x)", "g($x)")),
    ("where rewrite $ b {f->g}", inner("b", "f", "g")),
    ('where rewrite $b { f("->") -> g("}{"). }', inner("b", 'f("->")', 'g("}{").')),
    ('where rewrite $b { f("\\"->") -> g }', inner("b", 'f("\\"->")', "g")),
    ("where rewrite $b { {$x} -> e({$x}) }", inner("b", "{$x}", "e({$x})")),
    ("where rewrite $b {{->x}}", inner("b", "{", "x}")),
    ("where rewrite $b { a -> b -> c }", inner("b", "a", "b -> c")),
    ("where rewrite $b {{->x}", SpecFormatError),
    ("where rewrite $b { f($x) }", SpecFormatError),
    ("where rewrite $b { f($x) -> g", SpecFormatError),
    ('where rewrite $b { a "x -> b }', SpecFormatError),
    ("where rewrite $b { a -> b \\", SpecFormatError),
    ("where rewrite b { x -> y }", SpecFormatError),
    ("where rewrite $b  x -> y }", SpecFormatError),
    ("where rewrite", SpecFormatError),
    ("where rewritex $b { x -> y }", SpecFormatError),
    ("where rewrite $b { x -> y } extra", SpecFormatError),
    ('where nested\x1c,\x1c$c != "if"', RuleSpec(True, cond("c", "!=", "if").conditions)),
    ('where nested\u2028,\u2028$c != "if"', RuleSpec(True, cond("c", "!=", "if").conditions)),
    ('where nested , $c != "if"', RuleSpec(True, cond("c", "!=", "if").conditions)),
    (
        'where nested,\n  $c != "if", $d == "x",\n  rewrite $body { $c(...) -> "$c}" },',
        RuleSpec(
            True,
            (Condition("c", CondOp.NEQ, "if"), Condition("d", CondOp.EQ, "x")),
            inner("body", "$c(...)", '"$c}"').nested_rewrites,
        ),
    ),
]


class TestRuleGrammar:
    @pytest.mark.parametrize("clause, want", RULE_GRAMMAR)
    def test_clause(self, clause, want):
        if isinstance(want, RuleSpec):
            assert parse_rule(clause) == want
        else:
            with pytest.raises(want):
                parse_rule(clause)


SPEC = """\
# emits one edge per call inside a function body
[match]
func $f(...) $r? {$body*}

[rule]
where nested, $c != "if", rewrite $body { $c(...) -> edge("$f", "$c"). }

[rewrite]
$body
"""


class TestParseFactSpec:
    def test_sections(self):
        spec = parse_fact_spec(SPEC, name="calls", language="go")
        assert spec.name == "calls"
        assert spec.match.hole_names() == ("f", "r", "body")
        assert len(spec.rule.conditions) == 1
        assert len(spec.rule.nested_rewrites) == 1

    def test_missing_match_section(self):
        with pytest.raises(SpecFormatError, match="match"):
            parse_fact_spec("[rewrite]\nx\n")

    def test_duplicate_section(self):
        with pytest.raises(SpecFormatError, match="duplicate"):
            parse_fact_spec("[match]\na\n[match]\nb\n[rewrite]\nc\n")

    def test_rule_section_optional(self):
        spec = parse_fact_spec("[match]\nf($x)\n\n[rewrite]\ncall(\"$x\").\n")
        assert spec.rule.conditions == ()

    def test_unknown_section(self):
        with pytest.raises(SpecFormatError):
            parse_fact_spec("[match]\na\n[bogus]\nb\n")

    def test_condition_on_unknown_hole_fails_at_apply_time(self):
        bad = '[match]\nf($x)\n\n[rule]\nwhere $nope == "y"\n\n[rewrite]\np("$x").\n'
        spec = parse_fact_spec(bad, name="t", language="go")
        with pytest.raises(UnboundHole):
            facts_for_smap((spec,), classify("f(a)\n", GO), "mem.go")


    def test_a_rewrite_may_hold_a_line_separator(self):
        spec = parse_fact_spec('[match]\nf($x)\n\n[rewrite]\np("$x", "a\u2028b").\n', language="go")
        assert spec.rewrite.text == 'p("$x", "a\u2028b").'
        db, _, diagnostics = facts_for_smap((spec,), classify("f(c)\n", GO), "mem.go")
        assert diagnostics == []
        assert db.tuples("p") == {("c", "a\u2028b")}

    def test_a_leading_comment_may_hold_a_line_separator(self):
        spec = parse_fact_spec('# one\u2028two\x85three\n[match]\nf($x)\n[rewrite]\np("$x").\n')
        assert spec.match.text == "f($x)"

    def test_crlf_and_cr_end_lines(self):
        text = '[match]\nf($x)\n\n[rewrite]\np("$x").\n'
        assert parse_fact_spec(text.replace("\n", "\r\n")) == parse_fact_spec(text)
        assert parse_fact_spec(text.replace("\n", "\r")) == parse_fact_spec(text)

    def test_error_line_after_a_form_feed_is_the_editors(self, tmp_path):
        # An editor shows the form feed as a character of line 1, so the
        # empty [match] header is on line 2, not 3.
        path = tmp_path / "ff.spec"
        path.write_text("# page one\fpage two\n[match]\n\n[rewrite]\np(1).\n", encoding="utf-8")
        with pytest.raises(SpecFormatError, match=rf"^{re.escape(str(path))}:2: \[match\] section is empty"):
            load_fact_spec(path)


class TestEmission:
    def run(self, spec_text: str, source: str):
        """(facts, outer match count, diagnostics) of spec "t" over source."""
        spec = parse_fact_spec(spec_text, name="t", language="go")
        db, matches, diagnostics = facts_for_smap((spec,), classify(source, GO), "mem.go")
        return db, matches["t"], diagnostics

    def test_flat_emission(self):
        facts, match_count, _ = self.run(
            '[match]\nf($x)\n\n[rewrite]\nseen("$x", $x.line).\n',
            "f(a)\nf(b)\n",
        )
        assert facts.tuples("seen") == {("a", 1), ("b", 2)}
        assert match_count == 2

    def test_nested_walk_descends_into_groups(self):
        # b() sits inside a's argument list and must still be found
        facts, _, _ = self.run(SPEC, "func main() {\n\ta(b())\n\tc()\n}\n")
        assert facts.tuples("edge") == {
            ("main", "a"),
            ("main", "b"),
            ("main", "c"),
        }

    def test_condition_filters_inner_matches(self):
        facts, _, _ = self.run(SPEC, "func f() {\n\tif (x) {}\n\tg()\n}\n")
        assert facts.tuples("edge") == {("f", "g")}

    def test_inner_bindings_hide_outer_ones(self):
        # inner $x? is empty, then "k", then empty again: each inner match
        # sees its own $x, neither the outer "outer" nor the previous match's
        spec_text = (
            "[match]\nfunc $f($x) {$body*}\n\n[rule]\n"
            'where nested, $x != "drop", rewrite $body { $x?($c) -> arg("$f", "$x", "$c"). }\n\n'
            "[rewrite]\n$body\n"
        )
        facts, _, _ = self.run(spec_text, "func main(outer) {\n\t(a)\n\tk(b)\n\t(c)\n\tdrop(d)\n}\n")
        assert facts.tuples("arg") == {("main", "", "a"), ("main", "k", "b"), ("main", "", "c")}

    def test_outer_condition_gates_rule(self):
        spec_text = '[match]\nf($x)\n\n[rule]\nwhere $x == "keep"\n\n[rewrite]\nk("$x").\n'
        facts, match_count, _ = self.run(spec_text, "f(keep)\nf(drop)\n")
        assert facts.tuples("k") == {("keep",)}
        assert match_count == 2

    def test_multi_line_rewrite_emits_multiple_facts(self):
        spec_text = (
            "[match]\n$l = $a + $b\n\n[rewrite]\n"
            'read("$a", $l.line)\nread("$b", $l.line)\nwrite("$l", $l.line)\n'
        )
        spec = parse_fact_spec(spec_text, name="t", language="arith")
        from factlog import get_language

        facts, _, _ = facts_for_smap((spec,), classify("a = b + c\n", get_language("arith")), "m.arith")
        assert facts.tuples("read") == {("b", 1), ("c", 1)}
        assert facts.tuples("write") == {("a", 1)}

    def test_bad_fact_line_becomes_diagnostic(self):
        facts, _, diagnostics = self.run("[match]\nf($x)\n\n[rewrite]\noops $x\n", "f(a)\n")
        assert facts.fact_count() == 0
        assert diagnostics and "mem.go:1" in diagnostics[0]

    def test_separators_in_a_bound_string_stay_in_one_fact(self):
        # fact text splits on "\n" only, as a .dl file does
        spec_text = '[match]\nprintln("$s")\n\n[rewrite]\nprinted("$s").\n'
        for sep in ("\f", "\u2028"):
            facts, _, diagnostics = self.run(spec_text, f'println("a{sep}b")\n')
            assert facts.tuples("printed") == {(f"a{sep}b",)}
            assert diagnostics == []

    def test_comments_and_strings_not_matched(self):
        facts, _, _ = self.run(
            '[match]\nf($x)\n\n[rewrite]\nseen("$x").\n',
            '// f(no)\ns := "f(nope)"\nf(yes)\n',
        )
        assert facts.tuples("seen") == {("yes",)}


class TestGenerateFacts:
    def test_merges_files_and_reports_diagnostics(self, tmp_path):
        spec = parse_fact_spec(
            '[match]\nf($x)\n\n[rewrite]\nseen("$x").\n', name="t", language="go"
        )
        preset = AnalysisPreset("t", "go", (spec,), "", "", ())
        (tmp_path / "a.go").write_text("f(one)\n", encoding="utf-8")
        (tmp_path / "b.go").write_text("f(two)\nf(one)\n", encoding="utf-8")
        db, _, diagnostics = run_fact_generation(preset, [tmp_path / "a.go", tmp_path / "b.go"])
        assert db.tuples("seen") == {("one",), ("two",)}
        assert diagnostics == []


# ---------------------------------------------------------------------------
# Rows against the text path


def text_facts_for_smap(specs, smap, path):
    """facts_for_smap by substitute and parse_fact_line alone: each kept
    match's rewrite becomes fact text, split at "\\n" and parsed line by
    line."""
    db = Database()
    matches: dict[str, int] = {}
    diagnostics = [f"{path}: {w}" for w in smap.warnings]
    for spec in specs:
        count = 0
        for m in iter_matches(spec.match, smap):
            count += 1
            env = text_apply_rule(spec.rule, m.env, smap)
            if env is None:
                continue
            for raw in substitute(spec.rewrite, env).split("\n"):
                line = raw.strip()
                if not line:
                    continue
                try:
                    db.add_fact(parse_fact_line(line))
                except MalformedFact as exc:
                    diagnostics.append(f"{path}:{smap.line_of(m.start)}: dropped bad fact line: {exc}")
        matches[spec.name] = matches.get(spec.name, 0) + count
    return db, matches, diagnostics


def text_apply_rule(rule, env, smap):
    """The rule with each nested target rebound to the text of its inner
    rewrites, one per kept inner match, joined by newlines."""
    inner_names = rule.inner_hole_names()
    for cond in rule.conditions:
        if cond.hole in env:
            if not cond.holds(env[cond.hole].text):
                return None
        elif cond.hole not in inner_names:
            raise UnboundHole(f"condition names unbound hole ${cond.hole}")
    bindings = dict(env.bindings)
    inner_matches = iter_nested_matches if rule.nested else iter_matches
    for nr in rule.nested_rewrites:
        target = env[nr.target]
        names = set(nr.inner_match.hole_names())
        conditions = [c for c in rule.conditions if c.hole in names]
        # outer holes that the inner match does not bind are substituted first
        atoms = []
        for atom in nr.inner_rewrite.atoms:
            if isinstance(atom, Substitution) and atom.name not in names and atom.name in bindings:
                atom = SubstLiteral(substitute(RewriteTemplate("", (atom,), ()), MatchEnvironment(bindings)))
            atoms.append(atom)
        rewrite = RewriteTemplate(nr.inner_rewrite.text, tuple(atoms), ())
        lines = [
            substitute(rewrite, m.env)
            for m in inner_matches(nr.inner_match, smap, target.start, target.end)
            if all(c.holds(m.env.bindings[c.hole].text) for c in conditions)
        ]
        bindings[nr.target] = Binding("\n".join(lines), target.start, target.end, target.line, target.column)
    return MatchEnvironment(bindings)


def outcome(generate, specs, smap):
    """What generate gives, or the exception it raises, as comparable data."""
    try:
        db, matches, diagnostics = generate(specs, smap, "m.go")
    except FactlogError as exc:
        return type(exc), str(exc)
    return db.relations, matches, diagnostics


# Bound text: quotes, backslashes, newlines and other separators, empty runs
SOURCE_PIECES = (
    "x", "y1", " ", "\n", "u\nv", "\r", "\f", "\u2028", '"q"', '"a\\"b"', '"\\\\"', "`r\nw`", "`a\\b`", "\\n",
    "12", "-", "$", ",", "[p]", '["s\\"t"]', "[]", "[\r]", "(u)",
)
# Argument forms that plan as row arguments: literals, a hole inside quotes,
# a position outside them
ROW_ARGS = (
    '"lit"', '"a\\"b"', '"\\\\"', '"x\\ny"', '""', '"a b\fc"', "7", "-3",
    '"$a"', '"p$a"', '"$a.s"', '"$b.line"', '"L$b.column + 1"', '"$c"', '"<$body>"',
    "$a.line", "$a.line - 5", "$b.column+2", "$c.line", "$c.column - 9", "$body.line",
)
# and forms only the text path reads: a hole in an unquoted value, two holes
# in one quoted argument, a hole after a backslash, a sign or a digit
TEXT_ARGS = ('"$a$b"', '"\\$a"', "-$a.line", "0$a.line - 5", "1$b.line", "$a", "$c", "$body", '"open', ")", '"$zz"')
LONE = ("$body", "  $a  ", "$c", "$b.value", "$zz")


@st.composite
def rewrite_lines(draw, lines: int, inner: bool):
    """Rewrite text of 1 to lines lines; $c, bound only by the inner
    template, appears only in an inner rewrite."""
    def pool(forms):
        return st.sampled_from([a for a in forms if inner or "$c" not in a])

    arg = st.one_of(pool(ROW_ARGS), pool(ROW_ARGS), pool(ROW_ARGS), pool(TEXT_ARGS))
    out = []
    for _ in range(draw(st.integers(1, lines))):
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(st.sampled_from([a for a in LONE if inner or "$c" not in a] + ["", "oops $a", "   "])))
            continue
        args = draw(st.lists(arg, max_size=3))
        # mostly one relation per arity, so that few cases end in ArityMismatch
        relation = draw(st.sampled_from((f"r{len(args)}",) * 4 + ("e", "$a", "9x")))
        sep = draw(st.sampled_from((", ", ",", " , ")))
        end = draw(st.sampled_from((".", "", " . ", ". ")))
        out.append(f"{relation}({sep.join(args)}){end}")
    return "\n".join(out)


@st.composite
def row_cases(draw):
    """Spec text over the holes $a, $b and $body, with nested rewrites of
    $body and of $a in some cases, and a GO source it matches."""
    rule = []
    if draw(st.booleans()):
        rule.append("nested")
    if draw(st.booleans()):
        rule.append('$c != "p"')
    rule.append(f"rewrite $body {{ [$c*] -> {draw(rewrite_lines(2, True))} }}")
    if draw(st.booleans()):
        rule.append(f"rewrite $a {{ [$c*] -> {draw(rewrite_lines(2, True))} }}")
    rule_section = f"[rule]\nwhere {', '.join(rule)}\n\n" if draw(st.booleans()) else ""
    spec_text = f"[match]\nzz($a*;$b*;$body*)\n\n{rule_section}[rewrite]\n{draw(rewrite_lines(4, False))}\n"
    pieces = st.lists(st.sampled_from(SOURCE_PIECES), max_size=5).map("".join)
    source = "".join(
        "\n" * draw(st.integers(0, 2)) + f"zz({draw(pieces)};{draw(pieces)};{draw(pieces)})\n"
        for _ in range(draw(st.integers(1, 3)))
    )
    return spec_text, source


class TestRowsAgainstTextPath:
    @settings(max_examples=600, deadline=None)
    @given(row_cases())
    def test_same_facts_diagnostics_and_errors(self, case):
        spec_text, source = case
        try:
            spec = parse_fact_spec(spec_text, name="t", language="go")
        except FactlogError:
            assume(False)
        smap = classify(source, GO)
        assert outcome(facts_for_smap, (spec,), smap) == outcome(text_facts_for_smap, (spec,), smap)
