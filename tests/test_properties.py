"""Property-based checks: the engine against independent oracles, and
round-trip invariants for the text formats."""

from __future__ import annotations

import ast
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factlog import (
    GO,
    C,
    ZIG,
    Database,
    FactlogError,
    HoleKind,
    LanguageDefinition,
    Region,
    classify,
    evaluate,
    format_fact,
    iter_matches,
    parse_program,
    parse_query,
    parse_template,
    query,
)
from factlog.datalog import goal_directed
from factlog.facts import Fact, format_value, parse_fact_line
from factlog.templates import Hole, Literal, _Matcher, compile_template, iter_nested_matches
from oracles import (
    collect_inner,
    count_depth_zero_extent,
    interval_at,
    naive_evaluate,
    reachability,
    rescan_balanced,
    unit_chain_ends,
)

# ---------------------------------------------------------------------------
# Random Datalog programs

RELS = ("p", "q", "r", "s")
VARS = ("X", "Y", "Z", "W")
CONSTS = ('"a"', '"b"', '"c"', '"d"')


@st.composite
def programs(draw, negation: bool = False):
    """A safe program as text.  With negation=True relations are layered so
    the result is stratifiable by construction."""
    arity = {rel: draw(st.integers(1, 2)) for rel in RELS}
    layer = {rel: i for i, rel in enumerate(RELS)}
    lines = []
    for rel in RELS[:2]:
        for tup in draw(
            st.sets(
                st.tuples(*[st.sampled_from(CONSTS)] * arity[rel]), max_size=4
            )
        ):
            lines.append(f"{rel}({', '.join(tup)}).")
    n_rules = draw(st.integers(1, 5))
    for _ in range(n_rules):
        head_rel = draw(st.sampled_from(RELS))
        n_body = draw(st.integers(1, 3))
        body = []
        body_vars: list[str] = []
        for _ in range(n_body):
            rel = draw(st.sampled_from(RELS))
            if negation and layer[rel] > layer[head_rel]:
                rel = head_rel
            terms = [
                draw(st.sampled_from(VARS + CONSTS + ("_",)))
                for _ in range(arity[rel])
            ]
            body.append(f"{rel}({', '.join(terms)})")
            body_vars.extend(t for t in terms if t in VARS)
        if negation and body_vars and draw(st.booleans()):
            rel = draw(st.sampled_from(RELS[: layer[head_rel]] or RELS[:1]))
            if layer[rel] < layer[head_rel]:
                terms = [
                    draw(st.sampled_from(tuple(body_vars) + CONSTS))
                    for _ in range(arity[rel])
                ]
                body.append(f"!{rel}({', '.join(terms)})")
        head_pool = tuple(body_vars) + CONSTS
        head_terms = [
            draw(st.sampled_from(head_pool)) for _ in range(arity[head_rel])
        ]
        lines.append(f"{head_rel}({', '.join(head_terms)}) :- {', '.join(body)}.")
    return "\n".join(lines) + "\n"


def normalized(db: Database) -> dict[str, set[tuple]]:
    return {rel: set(rows) for rel, rows in db.relations.items() if rows}


class TestEngineAgainstOracle:
    @given(programs())
    @settings(max_examples=120, deadline=None)
    def test_negation_free_matches_naive(self, text):
        prog = parse_program(text)
        engine = normalized(evaluate(prog))
        oracle = {rel: rows for rel, rows in naive_evaluate(prog).items() if rows}
        assert engine == oracle

    @given(programs(negation=True))
    @settings(max_examples=120, deadline=None)
    def test_stratified_negation_matches_naive(self, text):
        prog = parse_program(text)
        engine = normalized(evaluate(prog))
        oracle = {rel: rows for rel, rows in naive_evaluate(prog).items() if rows}
        assert engine == oracle

    @given(programs())
    @settings(max_examples=50, deadline=None)
    def test_rule_order_is_irrelevant(self, text):
        lines = text.strip().splitlines()
        prog = parse_program(text)
        reordered = parse_program("\n".join(reversed(lines)) + "\n")
        assert normalized(evaluate(prog)) == normalized(evaluate(reordered))

    @given(programs(), st.sampled_from(RELS[:2]))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_the_edb(self, text, rel):
        prog = parse_program(text)
        assume(rel in prog.declarations)
        arity = prog.declarations[rel].arity
        base = normalized(evaluate(prog))
        extra = Database()
        extra.add(rel, tuple("zz" for _ in range(arity)))
        grown = normalized(evaluate(prog, extra))
        for name, rows in base.items():
            assert rows <= grown.get(name, set())


# Typed programs: integer and symbol columns side by side, awkward symbols,
# wildcards, 0-arity relations, repeated variables and EDB-seeded IDB.

SYM_VALUES = ("1", "a", '"', "\\", "\n", '")', "é", "日本 x")
INT_VALUES = (1, 0, -7, 12)
POOLS = {"number": INT_VALUES, "symbol": SYM_VALUES, None: INT_VALUES + SYM_VALUES}
TYPED_VARS = {"number": ("I", "J"), "symbol": ("X", "Y", "Z")}
# query term text -> the constant it denotes (None for variables and _)
QUERY_TERMS = {"X": None, "Y": None, "_": None, '"1"': "1", "1": 1, format_value('")'): '")'}


@st.composite
def typed_programs(draw):
    """A safe, stratified, well-typed program as text, and EDB rows drawn
    for every relation it uses, IDB relations included.

    Each column is a number or a symbol column and each variable name has
    one type, so a program such as ``p(1, "1")`` type-checks by
    construction.  Relations are layered as in ``programs(negation=True)``.
    A column no constant reaches stays untyped, and its EDB rows mix
    ``1`` and ``"1"``.
    """
    columns = {
        rel: draw(st.lists(st.sampled_from(("number", "symbol")), max_size=3)) for rel in RELS
    }
    layer = {rel: i for i, rel in enumerate(RELS)}

    def const(kind):
        return format_value(draw(st.sampled_from(POOLS[kind])))

    lines = []
    for _ in range(draw(st.integers(1, 5))):
        head_rel = draw(st.sampled_from(RELS))
        body = []
        bound: dict[str, str] = {}
        for _ in range(draw(st.integers(1, 3))):
            rel = draw(st.sampled_from(RELS))
            if layer[rel] > layer[head_rel]:
                rel = head_rel
            terms = []
            for kind in columns[rel]:
                how = draw(st.sampled_from(("var", "var", "const", "_")))
                if how == "var":
                    name = draw(st.sampled_from(TYPED_VARS[kind]))
                    bound[name] = kind
                    terms.append(name)
                else:
                    terms.append(const(kind) if how == "const" else "_")
            body.append(f"{rel}({', '.join(terms)})")

        def bound_or_const(kind):
            names = tuple(v for v, k in bound.items() if k == kind)
            return draw(st.sampled_from(names)) if names and draw(st.booleans()) else const(kind)

        lower = RELS[: layer[head_rel]]
        if lower and draw(st.booleans()):
            rel = draw(st.sampled_from(lower))
            body.append(f"!{rel}({', '.join(bound_or_const(k) for k in columns[rel])})")
        head = ", ".join(bound_or_const(k) for k in columns[head_rel])
        lines.append(f"{head_rel}({head}) :- {', '.join(body)}.")
    text = "\n".join(lines) + "\n"
    edb = Database()
    for rel, decl in parse_program(text).declarations.items():
        pools = [st.sampled_from(POOLS[kind]) for kind in decl.column_types()]
        for row in draw(st.sets(st.tuples(*pools), max_size=4)):
            edb.add(rel, row)
    return text, edb


class TestCompiledPlansAgainstOracle:
    @given(typed_programs())
    @settings(max_examples=300, deadline=None)
    def test_typed_programs_match_naive(self, case):
        text, edb = case
        prog = parse_program(text)
        engine = normalized(evaluate(prog, edb))
        oracle = {rel: rows for rel, rows in naive_evaluate(prog, edb).items() if rows}
        assert engine == oracle

    @given(typed_programs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_query_matches_a_filter(self, case, data):
        text, edb = case
        solved = evaluate(parse_program(text), edb)
        nonempty = sorted(rel for rel, rows in solved.relations.items() if rows)
        assume(nonempty)
        rel = data.draw(st.sampled_from(nonempty))
        rows = solved.relations[rel]
        arity = len(next(iter(rows)))
        term = st.one_of(st.sampled_from(("X", "Y")), st.sampled_from(sorted(QUERY_TERMS)))
        terms = data.draw(st.lists(term, min_size=arity, max_size=arity))
        want = set()
        for row in rows:
            env: dict[str, object] = {}
            for t, v in zip(terms, row):
                if t in ("X", "Y"):
                    if env.setdefault(t, v) != v:
                        break
                elif t != "_" and QUERY_TERMS[t] != v:
                    break
            else:
                want.add(tuple(env.values()))
        assert query(solved, f"{rel}({', '.join(terms)})") == want

    @given(typed_programs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_goal_directed_query_matches_full_evaluation(self, case, data):
        text, edb = case
        prog = parse_program(text)
        solved = evaluate(prog, edb)
        rel = data.draw(st.sampled_from(sorted(prog.declarations)))
        # constants from a stored row, so that most answers are not empty
        row = data.draw(st.sampled_from(sorted(solved.relations[rel], key=repr) or [None]))
        variable = st.sampled_from(("X", "Y", "_"))
        terms = [
            data.draw(variable | st.just(format_value(row[i])) if row else st.sampled_from(sorted(QUERY_TERMS)))
            for i in range(prog.declarations[rel].arity)
        ]
        pattern = parse_query(f"{rel}({', '.join(terms)})")
        goal = goal_directed(prog, edb, pattern)
        if goal.program is prog:
            negated = {lit.atom.relation for rule in prog.rules for lit in rule.body if not lit.positive}
            assert all(t in ("X", "Y", "_") for t in terms) or negated & prog.idb_relations()
        assert query(evaluate(goal.program, goal.edb), goal.pattern) == query(solved, pattern)


EDGES = st.sets(
    st.tuples(st.sampled_from("abcdefgh"), st.sampled_from("abcdefgh")),
    max_size=24,
)

TC = (
    "calls(X, Y) :- edge(X, Y).\n"
    "calls(X, Y) :- edge(X, K), calls(K, Y).\n"
)


class TestTransitiveClosure:
    @given(EDGES)
    @settings(max_examples=120, deadline=None)
    def test_calls_equals_bfs_reachability(self, edges):
        db = Database()
        for pair in edges:
            db.add("edge", pair)
        got = evaluate(parse_program(TC), db).tuples("calls")
        assert got == reachability(edges)

    @given(EDGES, st.sampled_from("abcdefgh"))
    @settings(max_examples=40, deadline=None)
    def test_query_projects_closure(self, edges, src):
        db = Database()
        for pair in edges:
            db.add("edge", pair)
        solved = evaluate(parse_program(TC), db)
        got = query(solved, f'calls("{src}", X)')
        want = {(b,) for (a, b) in reachability(edges) if a == src}
        assert got == want

    @given(EDGES, st.sampled_from("abcdefgh"), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_goal_directed_query_equals_bfs(self, edges, node, bound_source):
        db = Database()
        for pair in edges:
            db.add("edge", pair)
        if bound_source:
            pattern, want = f'calls("{node}", X)', {(b,) for (a, b) in reachability(edges) if a == node}
        else:
            pattern, want = f'calls(X, "{node}")', {(a,) for (a, b) in reachability(edges) if b == node}
        goal = goal_directed(parse_program(TC), db, parse_query(pattern))
        assert query(evaluate(goal.program, goal.edb), goal.pattern) == want


SYMBOLS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
VALUES = st.one_of(SYMBOLS, st.integers(-10**9, 10**9))
# a letter, the tab and every character str.splitlines() breaks at
LINE_BREAKERS = st.text(st.sampled_from("a\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"), max_size=4)
CELLS = {"symbol": st.one_of(SYMBOLS, LINE_BREAKERS), "number": st.integers(-10**12, 10**12)}


@st.composite
def typed_databases(draw):
    """A Database whose every column holds one type, with those types as
    from_facts_dir takes them."""
    db = Database()
    column_types = {}
    for rel in draw(st.sets(st.sampled_from(("p", "q", "r")), max_size=3)):
        types = tuple(draw(st.lists(st.sampled_from(("symbol", "number")), max_size=3)))
        column_types[rel] = types
        for row in draw(st.sets(st.tuples(*(CELLS[t] for t in types)), max_size=5)):
            db.add(rel, row)
    return db, column_types


class TestFormatRoundTrips:
    @given(st.tuples(VALUES, VALUES))
    @settings(max_examples=200)
    def test_fact_line_round_trip(self, args):
        fact = Fact("rel", args)
        assert parse_fact_line(format_fact(fact)) == fact

    @given(st.sets(st.tuples(VALUES, VALUES), max_size=8))
    @settings(max_examples=100)
    def test_dl_text_round_trip(self, rows):
        db = Database()
        for row in rows:
            db.add("m", row)
        assert Database.from_dl_text(db.to_dl_text()) == db

    @given(typed_databases())
    @settings(max_examples=200)
    def test_facts_dir_round_trip(self, case):
        db, column_types = case
        cells = [str(v) for tuples in db.relations.values() for tup in tuples for v in tup]
        empty_row = any(tup in ((), ("",)) for tuples in db.relations.values() for tup in tuples)
        writable = not empty_row and not any(c in cell for cell in cells for c in "\t\n\r")
        with tempfile.TemporaryDirectory() as directory:
            if not writable:
                with pytest.raises(FactlogError, match="use the dl format"):
                    db.write_facts_dir(directory)
                return
            db.write_facts_dir(directory)
            assert Database.from_facts_dir(directory, column_types) == db


SOURCE = st.text(alphabet='abc ()"`\'/*\\\n{};', max_size=60)

# Langdefs whose openers are words, brackets or runs of one character, and
# whitespace that is not ASCII (U+00A0, U+3000, U+2028 count as whitespace).
REGION_LANGS = (
    GO,
    C,
    ZIG,
    LanguageDefinition(
        name="raw", line_comment_prefixes=("//",), string_delimiters=(('r"', '"', None), ('"', '"', "\\"))
    ),
    LanguageDefinition(name="brackets", line_comment_prefixes=("--",), string_delimiters=(("[[", "]]", None),)),
    LanguageDefinition(
        name="triple", line_comment_prefixes=("#",), string_delimiters=(('"""', '"""', None), ("'", "'", "\\"))
    ),
    LanguageDefinition(
        name="rem", line_comment_prefixes=("rem",), block_comment_pairs=(("(*", "*)"),), nest_block_comments=True
    ),
)
REGION_SOURCE = st.lists(
    st.sampled_from(
        ("a", "r", "rem", "x1", " ", "\t", "\n", "\u00a0", "\u3000", "\u2028", '"', "'", "`", "\\", "/", "*", "-", "#",
         "(", ")", "[", "]", "[[", "]]", '"""', "(*", "*)", "/*", "*/", "//", "--", 'r"s"', '"\\""', "é")
    ),
    max_size=24,
).map("".join)


class TestClassifierInvariants:
    @given(SOURCE)
    @settings(max_examples=200)
    def test_intervals_partition_the_source(self, source):
        smap = classify(source, GO)
        pos = 0
        for start, end, region in smap.intervals:
            assert start == pos and end > start
            assert isinstance(region, Region)
            pos = end
        assert pos == len(source)

    @given(REGION_SOURCE, st.sampled_from(REGION_LANGS))
    @settings(max_examples=400, deadline=None)
    def test_kinds_spell_out_the_intervals(self, source, lang):
        smap = classify(source, lang)
        kinds = smap.kinds
        assert len(kinds) == len(source)
        for offset in range(len(source)):
            start, _, region = interval_at(smap, offset)
            assert smap.region_at(offset) is region
            if region is Region.CODE:
                assert kinds[offset] == ("w" if source[offset].isspace() else "c")
            elif region is Region.STRING_DELIMITER:
                assert kinds[offset] == ("d" if offset == start else "e")
        for offset in (-1, len(source)):
            with pytest.raises(IndexError):
                smap.region_at(offset)

    @given(SOURCE)
    @settings(max_examples=100)
    def test_line_col_roundtrip(self, source):
        smap = classify(source, GO)
        for offset in range(len(source)):
            line, col = smap.line_col(offset)
            lines = source.splitlines(keepends=True) or [""]
            assert source[offset] == (lines[line - 1] + "\n")[col - 1]


# ---------------------------------------------------------------------------
# Template text against its atoms

TEMPLATE_TEXT = st.lists(
    st.sampled_from(("$", "a", "b", "_", "1", ".", "...", "*", "?", '"', '"$a"', '"$b', '$c"', " ", "(", ")", "\n")), max_size=16
).map("".join)
SUFFIX = {HoleKind.EVERYTHING: "*", HoleKind.OPTIONAL: "?"}


class TestTemplateAtoms:
    @given(TEMPLATE_TEXT)
    @settings(max_examples=500)
    def test_atoms_render_back_to_the_text(self, text):
        try:
            atoms = parse_template(text).atoms
        except FactlogError:
            assume(False)
        rendered = [
            a.text if isinstance(a, Literal) else "..." if a.name is None else f"${a.name}{SUFFIX.get(a.kind, '')}"
            for a in atoms
        ]
        assert "".join(rendered) == text
        for before, atom, after in zip((None,) + atoms, atoms, atoms[1:] + (None,)):
            assert not (isinstance(before, Literal) and isinstance(atom, Literal))
            if isinstance(atom, Hole) and atom.name:
                quoted = (
                    atom.kind not in SUFFIX
                    and isinstance(before, Literal) and before.text.endswith('"')
                    and isinstance(after, Literal) and after.text.startswith('"')
                )
                assert (atom.kind is HoleKind.STRING_BODY) == quoted


# ---------------------------------------------------------------------------
# Inner matches of a rewrite rule against the recursive descent

def _bracketed(children):
    return st.builds(
        lambda callee, pair, args: callee + pair[0] + ", ".join(args) + pair[1],
        st.sampled_from(("", "f", "g")),
        st.sampled_from(("()", "[]", "{}")),
        st.lists(children, max_size=3),
    )


# Balanced calls and groups of all three bracket kinds, brackets inside
# strings and comments, and loose noise: unclosed opens and mismatched closes.
NESTED_LEAVES = st.sampled_from(("f", "x1", "1", '"(]"', '"a)"', "'('", "`[`", "/* [ ) */", "// (x\n"))
NESTED_NOISE = st.sampled_from(("(", "[", "{", ")", "]", "}", "(]", "[)", " ", "\n"))
NESTED_SOURCE = st.lists(
    st.one_of(st.recursive(NESTED_LEAVES, _bracketed, max_leaves=12), NESTED_NOISE), max_size=6
).map("".join)
INNER_TEMPLATES = st.sampled_from(("$c(...)", "($x)", "[$x]")).map(parse_template)


def _match_keys(matches) -> list[tuple]:
    return [(m.start, m.end, sorted(m.env.bindings.items())) for m in matches]


def _assert_walks_equal_oracle(template, smap, data):
    """Plain and nested matches in a drawn window equal the oracle's."""
    n = len(smap.source)
    lo, hi = data.draw(st.one_of(st.just((0, n)), st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted)))
    nested = list(iter_nested_matches(template, smap, lo, hi))
    plain = list(iter_matches(template, smap, lo, hi))
    assert _match_keys(nested) == _match_keys(collect_inner(template, smap, lo, hi, True))
    assert _match_keys(plain) == _match_keys(collect_inner(template, smap, lo, hi, False))


class TestInnerMatchesAgainstOracle:
    @given(NESTED_SOURCE, INNER_TEMPLATES, st.data())
    @settings(max_examples=300, deadline=None)
    def test_walk_equals_recursive_descent(self, source, template, data):
        _assert_walks_equal_oracle(template, classify(source, GO), data)


# Sources for templates that start with a hole, whose candidates come from
# the per-file anchor tables: prefixed, chained, indexed, string and
# qualified callees, comments between a unit and its anchor, anchors inside
# strings and comments, mismatched brackets, and assignments for the
# whitespace-anchored "$l = $a + $b".
CHAIN_FRAGMENTS = st.sampled_from((
    "*f(x)", "**p(y)", "f(a)(b)", "a[i + 1](x)", '"s"(x)', "'c'(x)", "`r`(x)", "pkg.F(x)",
    "f/*c*/(x)", "f /* c */ (x)", "g // c\n(x)", '"f(x)"', "/* f(x) */", "// g(y)\n", "(]", "[)",
    "x = y + z", "x /* c */ = y + z", "x\n= y + z", "x=y+z", "(a) = b + c", '"s" = t + u', "*x = y + z",
    "f()", "_g(x)", "h.i()(j)", "(f)(x)", "f", "(", ")", "[", "]", "=", "+", " ", "\n",
))
CHAIN_SOURCE = st.lists(CHAIN_FRAGMENTS, max_size=8).map("".join)
LEADING_HOLE_TEMPLATES = st.sampled_from(("$c(...)", "$l = $a + $b", "$x?(...)")).map(parse_template)


class TestCandidatesAgainstEveryOffset:
    @given(CHAIN_SOURCE, LEADING_HOLE_TEMPLATES, st.sampled_from((GO, C)), st.data())
    @settings(max_examples=400, deadline=None)
    def test_candidates_miss_no_match(self, source, template, lang, data):
        _assert_walks_equal_oracle(template, classify(source, lang), data)


# ---------------------------------------------------------------------------
# The per-file bracket table against a stack scan from each open


class TestBracketTableAgainstOracle:
    @given(NESTED_SOURCE, st.sampled_from((GO, C)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_scan_balanced_equals_rescan(self, source, lang, data):
        smap = classify(source, lang)
        n = len(source)
        for limit in (n, data.draw(st.integers(0, n))):
            for start in range(n):
                got = smap.group_ends.get(start)
                try:
                    want = rescan_balanced(smap, start, limit)
                except FactlogError:  # no entry, or an entry past the limit
                    assert got is None or got > limit
                else:
                    assert got == want


class TestAnyCloseTableAgainstOracle:
    @given(NESTED_SOURCE, st.sampled_from((GO, C)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_table_walk_equals_depth_counter(self, source, lang, data):
        smap = classify(source, lang)
        n = len(source)
        for hi in (n, data.draw(st.integers(0, n))):
            for pos in range(hi + 1):  # the matcher never scans from past its window
                assert smap.depth_zero_extent(pos, hi) == count_depth_zero_extent(smap, pos, hi)


# Chains plus loose value prefixes (go's *, zig's !?*@, also before groups
# and strings) and lone delimiters, which leave literals unterminated.
UNIT_EXTRAS = st.sampled_from(("*", "!", "?@", "*(x)", '@"s"', '"', "'", "`"))
UNIT_SOURCE = st.one_of(
    CHAIN_SOURCE, NESTED_SOURCE, st.lists(st.one_of(CHAIN_FRAGMENTS, UNIT_EXTRAS), max_size=8).map("".join)
)


class TestUnitTableAgainstOracle:
    @given(UNIT_SOURCE, st.sampled_from((GO, C, ZIG)), st.data())
    @settings(max_examples=400, deadline=None)
    def test_table_walk_equals_region_walk(self, source, lang, data):
        smap = classify(source, lang)
        n = len(source)
        # the reference still takes a closing delimiter as a one-character
        # unit, which the table deliberately does not
        delimiters = [s for s, _, kind in smap.intervals if kind is Region.STRING_DELIMITER]
        closes = set(delimiters[1::2])
        template = compile_template(parse_template("$x"), lang)
        for hi in (n, data.draw(st.integers(0, n))):
            matcher = _Matcher(template, smap, hi)
            for pos in range(hi):
                if pos not in closes:
                    got = matcher._unit_chain_ends(pos) if matcher._left_maximal_ok(pos) else []
                    assert got == unit_chain_ends(smap, pos, hi), pos


class TestOracleIndependence:
    # The references must not become the code they check.
    CHECKED = {
        "scan_balanced",
        "iter_nested_matches",
        "next_group",
        "group_ends",
        "brackets",
        "any_close",
        "depth_zero_extent",
        "iter_matches",
        "next_candidate",
        "candidate_tables",
        "_anchor_candidates",
        "unit_ends",
        "kinds",
        "region_at",
    }

    def test_oracles_do_not_use_the_bracket_table(self):
        tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("factlog"):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                used.update(alias.name for alias in node.names if alias.name.startswith("factlog"))
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        assert not used & self.CHECKED
