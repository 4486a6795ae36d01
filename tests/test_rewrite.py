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
    get_language,
    iter_matches,
    load_fact_spec,
    parse_fact_line,
    parse_fact_spec,
    parse_rewrite_template,
    parse_rule,
    parse_template,
    run_fact_generation,
)
from factlog.interpreter import _emit, apply_rule
from factlog.rewrite import (
    Condition,
    CondOp,
    NestedRewrite,
    Property,
    RewriteTemplate,
    RuleSpec,
    SubstLiteral,
    Substitution,
    _generated,
    facts_for_smap,
    substitute,
)
from factlog.templates import Binding, MatchEnvironment, iter_nested_matches
from test_properties import INNER_TEMPLATES


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
    inner_names = {name for nr in rule.nested_rewrites for name in nr.inner_match.hole_names()}
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
                atom = SubstLiteral(substitute(RewriteTemplate("", (atom,)), MatchEnvironment(bindings)))
            atoms.append(atom)
        rewrite = RewriteTemplate(nr.inner_rewrite.text, tuple(atoms))
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


# Conditions on the outer holes, on the inner $c and on $zz, which no
# template binds, with values the drawn sources hold
CONDITION_HOLES = ("a", "a", "b", "c", "c", "zz")
CONDITION_VALUES = ("", "x", "p")


@st.composite
def conditions(draw):
    """Up to seven conditions, up to four of them on one drawn hole."""
    def on(holes):
        return st.builds(
            '${} {} "{}"'.format, holes, st.sampled_from(("==", "!=")), st.sampled_from(CONDITION_VALUES)
        )

    focus = draw(st.sampled_from(CONDITION_HOLES))
    return draw(st.lists(on(st.just(focus)), max_size=4)) + draw(
        st.lists(on(st.sampled_from(CONDITION_HOLES)), max_size=3)
    )


@st.composite
def row_cases(draw):
    """Spec text over the holes $a, $b and $body, with nested rewrites of
    $body and of $a in some cases, conditions in any order among the rule's
    items, and a GO source it matches.  The inner template binds $c, or $a
    in some cases, which then hides the outer $a."""
    rule = draw(conditions())
    if draw(st.booleans()):
        rule.append("nested")
    if draw(st.integers(0, 3)) == 0:  # a pair no text satisfies
        rule += draw(st.sampled_from((['$a == "x"', '$a == "y"'], ['$a == ""', '$a != ""'], ['$c != "p"', '$c == "p"'])))
    inner = draw(st.sampled_from(("c", "a")))
    rule.append(f"rewrite $body {{ [${inner}*] -> {draw(rewrite_lines(2, True)).replace('$c', '$' + inner)} }}")
    if draw(st.booleans()):
        rule.append(f"rewrite $a {{ [$c*] -> {draw(rewrite_lines(2, True))} }}")
    rule = draw(st.permutations(rule))
    rule_section = f"[rule]\nwhere {', '.join(rule)}\n\n" if draw(st.integers(0, 3)) else ""
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


# ---------------------------------------------------------------------------
# The generated spec functions against the reference interpreter


def interpreted_facts_for_smap(specs, smap, path):
    """facts_for_smap by the reference interpreter, one match at a time:
    apply_rule, then each match's items built by _emit before any is
    added, rows as they are and text through parse_fact_line."""
    db = Database()
    matches: dict[str, int] = {}
    diagnostics = [f"{path}: {w}" for w in smap.warnings]
    for spec in specs:
        rule, lines = spec.rule, spec.rewrite.lines
        has_rule = bool(rule.conditions or rule.nested_rewrites)
        count = 0
        for m in iter_matches(spec.match, smap):
            count += 1
            bindings, inner = m.env.bindings, None
            if has_rule:
                out = apply_rule(rule, m.env, smap)
                if out is None:
                    continue
                bindings, inner = out.env.bindings, out.inner
            items: list = []
            _emit(lines, bindings, items, inner)
            for item in items:
                if type(item) is tuple:
                    db.add(*item)
                    continue
                for raw in item.split("\n"):
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        db.add_fact(parse_fact_line(line))
                    except MalformedFact as exc:
                        diagnostics.append(f"{path}:{smap.line_of(m.start)}: dropped bad fact line: {exc}")
        matches[spec.name] = matches.get(spec.name, 0) + count
    return db, matches, diagnostics


# Inner templates of every candidate strategy, their hole renamed to the
# one the drawn rewrites read; those with a brace would end the clause.
CLAUSE_TEMPLATES = INNER_TEMPLATES.map(lambda t: t.text).filter(lambda text: "{" not in text and "}" not in text)


@st.composite
def generated_cases(draw):
    """A row_cases spec whose inner template may be any of the inner
    templates, with a second nested rewrite of $body in some cases, and
    in some cases a second spec over the same source, so that rows of two
    specs meet in one Database."""
    spec_text, source = draw(row_cases())
    for hole in ("c", "a"):
        if f"[${hole}*]" in spec_text and draw(st.booleans()):
            text = draw(CLAUSE_TEMPLATES)
            for name in ("$x", "$b", "$c"):
                text = text.replace(name, f"${hole}")
            spec_text = spec_text.replace(f"[${hole}*]", text, 1)
    if "where " in spec_text and draw(st.integers(0, 3)) == 0:
        extra = f"rewrite $body {{ [$c*] -> {draw(rewrite_lines(2, True))} }}, "
        spec_text = spec_text.replace("where ", "where " + extra, 1)
    texts = [spec_text]
    if draw(st.integers(0, 3)) == 0:
        texts.append(draw(row_cases())[0])
    return texts, source


class TestGeneratedAgainstInterpreter:
    @settings(max_examples=800, deadline=None)
    @given(generated_cases())
    def test_same_facts_counts_diagnostics_and_errors(self, case):
        texts, source = case
        try:
            specs = tuple(parse_fact_spec(text, name=f"t{k}", language="go") for k, text in enumerate(texts))
        except FactlogError:
            assume(False)
        smap = classify(source, GO)
        assert outcome(facts_for_smap, specs, smap) == outcome(interpreted_facts_for_smap, specs, smap)

    @pytest.mark.parametrize(
        "rule, rewrite",
        [
            # an unbound target, an inner rewrite and an outer rewrite that
            # read an unbound hole, each after rows that clash in arity
            ('where rewrite $zz { [$c*] -> e("$c"). }', 'e("x", "y").\n$zz'),
            ('where rewrite $body { [$c*] -> e("$c").\ne($zz.line). }', 'e("x", "y").\n$body'),
            ('where rewrite $body { [$c*] -> e("$c"). }', '$body\ne("x", "y").\nf("$zz")'),
            # rows of one relation in two arities, in the outer and the
            # inner rewrite, and through the text path
            ('where rewrite $body { [$c*] -> e("$c"). }', '$body\ne("$a", 1).'),
            ('where rewrite $body { [$c*] -> e("$c"). }', 'e($a, 1).\n$body'),
            ("", 'e("$a").\ne($a.line, 2).'),
            # a veto before the unbound condition, and after it
            ('where $a == "x", $zz == "y"', 'e("$a").'),
            ('where $zz == "y", $a == "x"', 'e("$a").'),
        ],
    )
    @pytest.mark.parametrize("source", ["zz(x;y;[p][q])\n", "zz(w;y;[p])\nzz(x;y;)\n"])
    def test_errors_come_in_the_interpreters_order(self, rule, rewrite, source):
        rule_section = f"[rule]\n{rule}\n\n" if rule else ""
        spec = parse_fact_spec(f"[match]\nzz($a*;$b*;$body*)\n\n{rule_section}[rewrite]\n{rewrite}\n", "t", "go")
        smap = classify(source, GO)
        want = outcome(interpreted_facts_for_smap, (spec,), smap)
        assert outcome(facts_for_smap, (spec,), smap) == want


# Inner templates that bind $c and $d, and sources whose groups they match
# with the condition values drawn (x, p, u and the empty run), quotes and
# newlines among them
PAIR_TEMPLATES = ("$c $d", "$c($d*)", "[$c $d*]", "$c $d*", "$c(...) $d", "$c($d)", "[$d $c]")
SHAPE_PIECES = (
    "x", "p", " ", "\n", "u\nv", "p(u)", "p(x)", "[p x]", "[x p]", '"q"', '"a\\"b"', "(p)", "12", "[]", "$", "x(p)",
)
_DRAWN_HOLE_RE = re.compile(r"\$(?:body|zz|a|b|c)(?![A-Za-z0-9_])")


@st.composite
def generated_shape_cases(draw):
    """A spec over zz($a*;$b*;$body*) of the shape that is generated, with
    conditions on $a and $b, and a GO source it matches.  Its rewrite is
    flat, over $a and $b (and $body when nothing rewrites it), or the lone
    line $body.  Its nested rewrites of $body share an inner template that
    binds $c and $d, or $c alone, with conditions on each; their inner
    rewrites read those holes, $a and $b."""
    def on(holes):
        ops, values = st.sampled_from(("==", "!=")), st.sampled_from(CONDITION_VALUES + ("u",))
        return st.builds('${} {} "{}"'.format, st.sampled_from(holes), ops, values)

    def renamed(text, holes):
        return _DRAWN_HOLE_RE.sub(lambda m: "$" + draw(st.sampled_from(holes)), text)

    lone = draw(st.integers(0, 2)) > 0
    if draw(st.integers(0, 3)):
        inner, templates = ("c", "d"), st.sampled_from(PAIR_TEMPLATES)
    else:
        one = CLAUSE_TEMPLATES.filter(lambda t: "$" in t)
        inner, templates = ("c",), one.map(lambda t: re.sub(r"\$[xbc](?![A-Za-z0-9_])", "$c", t))
    rule = draw(st.lists(on(("a", "b")), max_size=3))
    rewrites = draw(st.integers(1 if lone else 0, 2))
    least = int(draw(st.integers(0, 3)) > 0)
    for hole in inner * bool(rewrites):
        rule += draw(st.lists(on((hole,)), min_size=least, max_size=2))
    template = draw(templates)
    for _ in range(rewrites):
        # an unclosed quote would run on into the rest of the rule
        lines = renamed(draw(rewrite_lines(2, True).filter(lambda t: '"open' not in t)), (*inner, "a", "b"))
        rule.append(f"rewrite $body {{ {template} -> {lines} }}")
    if draw(st.booleans()):
        rule.append("nested")
    rule = draw(st.permutations(rule))
    if lone:
        rewrite = draw(st.sampled_from(("$body", "  $body  ", "$body.value")))
    else:
        free = ("a", "b") if rewrites else ("a", "b", "body")
        rewrite = renamed(draw(rewrite_lines(4, False)), free)
    rule_section = f"[rule]\nwhere {', '.join(rule)}\n\n" if rule else ""
    pieces = st.lists(st.sampled_from(SHAPE_PIECES), max_size=6).map("".join)
    source = "".join(
        "\n" * draw(st.integers(0, 2)) + f"zz({draw(pieces)};{draw(pieces)};{draw(pieces)})\n"
        for _ in range(draw(st.integers(1, 3)))
    )
    return f"[match]\nzz($a*;$b*;$body*)\n\n{rule_section}[rewrite]\n{rewrite}\n", source


class TestGeneratedShape:
    @settings(max_examples=600, deadline=None)
    @given(generated_shape_cases(), st.data())
    def test_generated_specs_give_the_interpreters_facts(self, case, data):
        spec_text, source = case
        texts = [spec_text] + [data.draw(generated_shape_cases())[0] for _ in range(data.draw(st.integers(0, 1)))]
        try:
            specs = tuple(parse_fact_spec(text, name=f"t{k}", language="go") for k, text in enumerate(texts))
        except FactlogError:
            assume(False)
        assert all(_generated(spec) for spec in specs)
        smap = classify(source, GO)
        assert outcome(facts_for_smap, specs, smap) == outcome(interpreted_facts_for_smap, specs, smap)

    @pytest.mark.parametrize(
        "rule, rewrite",
        [
            # the rewrite reads a nested target, or an unbound hole, or is
            # not the target's line alone
            ('where rewrite $body { $c(...) -> e("$c"). }', 'e("$body").'),
            ('where rewrite $body { $c(...) -> e("$c"). }', "$body\ne(1)."),
            ("", 'e("$zz").'),
            # a condition or an inner rewrite reads an unbound hole or a target
            ('where $zz != "x"', 'e("$a").'),
            ('where rewrite $body { $c(...) -> e("$c", "$zz"). }', "$body"),
            ('where rewrite $a { $c(...) -> e("$c"). }, rewrite $body { $c(...) -> e("$a"). }', "$body"),
            # a target no match binds
            ('where rewrite $zz { $c(...) -> e("$c"). }', 'e("$a").'),
        ],
    )
    def test_any_other_spec_runs_the_interpreter(self, rule, rewrite):
        rule_section = f"[rule]\n{rule}\n\n" if rule else ""
        spec = parse_fact_spec(f"[match]\nzz($a*;$b*;$body*)\n\n{rule_section}[rewrite]\n{rewrite}\n", "t", "go")
        assert not _generated(spec)
        smap = classify("zz(x;y;p(u) x(p))\n", GO)
        assert outcome(facts_for_smap, (spec,), smap) == outcome(interpreted_facts_for_smap, (spec,), smap)


# Spec text that is Python code where the generated function's own code
# would be: hole names of its locals, quotes, backslashes and newlines in
# a literal, a condition value and the rewrite's literal arguments, and a
# relation named like one of its locals.  Each is two specs of the
# generated shape: a flat rewrite, and the lone line of a nested target.
TRICKY_SPECS = tuple(
    "[match]\n"
    'f($src, $count) "); import os; os._exit(3) #\\n\n\n'
    "[rule]\n"
    'where $count != "\'); os._exit(4) #", $src != "\\"\\\\n}", nested,\n'
    '  rewrite $count { $db(...) -> start("$src", "$db", "{C0}\\"\\\\", $db.line). }\n\n'
    f"[rewrite]\n{rewrite}\n"
    for rewrite in ('count("$src", "\'\'\'", $src.column).', "$count")
)
PLAIN_SPECS = tuple(
    "[match]\n"
    'f($a, $b) "xxxxxxxxxxxxxxxxxxxxxxxxxxxx\n\n'
    "[rule]\n"
    'where $b != "yyyyyyyyyyyyyyyyyyy", $a != "zzzzz", nested,\n'
    '  rewrite $b { $c(...) -> p("$a", "$c", "www", $c.line). }\n\n'
    f"[rewrite]\n{rewrite}\n"
    for rewrite in ('q("$a", "v", $a.column).', "$b")
)


def _code_shape(code) -> tuple:
    """A code object's instructions, names and constants, nested ones too."""
    consts = tuple(_code_shape(c) if hasattr(c, "co_code") else c for c in code.co_consts)
    return code.co_code, code.co_names, code.co_varnames, consts


class TestGeneratedSpecCode:
    def test_spec_text_reaches_the_code_only_as_constants(self):
        from factlog.rewrite import _spec_function

        tricky = tuple(parse_fact_spec(text, f"t{k}", "arith") for k, text in enumerate(TRICKY_SPECS))
        plain = tuple(parse_fact_spec(text, f"p{k}", "arith") for k, text in enumerate(PLAIN_SPECS))
        assert tricky[0].match.hole_names() == ("src", "count")
        assert tricky[0].rule.conditions[0].value == "'); os._exit(4) #"
        for t, p in zip(tricky, plain):
            # generated, so that the comparison is of generated code: the
            # same code as for the plain spec of the same shape, the text
            # differing only in the namespace
            assert _generated(t) and _generated(p)
            assert _code_shape(_spec_function(t).__code__) == _code_shape(_spec_function(p).__code__)
        source = 'f(a, {g(b); h()}) "); import os; os._exit(3) #\\n\nf(x, ()) "); import os; os._exit(3) #\\n\n'
        smap = classify(source, get_language("arith"))
        db, matches, diagnostics = facts_for_smap(tricky, smap, "m.go")
        assert (db.relations, matches, diagnostics) == outcome(interpreted_facts_for_smap, tricky, smap)
        assert db.tuples("count") == {("a", "'''", 3), ("x", "'''", 3)}
        assert db.tuples("start") == {("a", name, '{C0}"\\', 1) for name in ("g", "h")}

    @pytest.mark.parametrize(
        "preset, sample, walks",
        [("callgraph-c", "c/scheduler.c", 2), ("liveness-arith", "liveness.arith", 1)],
    )
    def test_every_match_comes_from_offset_walk(self, monkeypatch, samples_dir, preset, sample, walks):
        # one walk for the outer matches, and one for a nested descent
        from factlog import load_preset, rewrite
        from factlog.rewrite import _SpecSource

        walk = rewrite.offset_walk
        calls = []

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(rewrite, "offset_walk", counted)
        loaded = load_preset(preset)
        smap = classify((samples_dir / sample).read_text(encoding="utf-8"), loaded.language_def())
        for spec in loaded.fact_specs:
            calls.clear()
            db = Database()
            count = _SpecSource(spec).build()(smap, db, [], sample)
            assert len(calls) == walks and calls[0][0] == spec.match
            assert (db.relations, {spec.name: count}) == outcome(interpreted_facts_for_smap, (spec,), smap)[:2]
