"""Property-based checks: the engine against independent oracles, and
round-trip invariants for the text formats."""

from __future__ import annotations

import ast
import re
import tempfile
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from factlog import (
    GO,
    C,
    ZIG,
    ArityMismatch,
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
from factlog import facts
from factlog.datalog import goal_directed
from factlog.facts import Fact, format_value, parse_fact_line
from factlog.languages import _line_start_table, _string_end
from factlog.templates import Hole, Literal, compile_template, iter_nested_matches, match_at
from oracles import (
    collect_inner,
    count_depth_zero_extent,
    dl_text,
    facts_texts,
    interpret_at,
    interval_at,
    line_start_table,
    naive_evaluate,
    reachability,
    read_dl_text,
    rescan_balanced,
    sorted_rows,
    string_end,
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


# Few distinct values, so rows share prefixes and columns mix types often
WRITER_INTS = st.integers(-3, 3) | st.integers(-10**12, 10**12)
WRITER_SYMBOLS = st.text(st.sampled_from('ab"\\\t\n\r\u2028 '), max_size=3)  # "" included
WRITER_COLUMNS = {"number": WRITER_INTS, "symbol": WRITER_SYMBOLS, "both": WRITER_INTS | WRITER_SYMBOLS}


@st.composite
def writer_databases(draw):
    """Several relations of arity 0 to 4, each column of integers, symbols
    or both, some relations empty."""
    db = Database()
    for rel in draw(st.sets(st.sampled_from(("p", "q", "r_1", "S")), max_size=4)):
        kinds = draw(st.lists(st.sampled_from(tuple(WRITER_COLUMNS)), max_size=4))
        db.relations[rel] = draw(st.sets(st.tuples(*(WRITER_COLUMNS[k] for k in kinds)), max_size=16))
    return db


class TestWritersAgainstOracle:
    # The writers group rows by all but their last value and format each
    # distinct value once; the oracles sort whole rows and format each.

    @given(writer_databases())
    @settings(max_examples=400)
    def test_dl_text(self, db):
        assert db.to_dl_text() == dl_text(db)

    @given(writer_databases())
    @settings(max_examples=400)
    def test_sorted_tuples(self, db):
        for rel, rows in db.relations.items():
            assert db.sorted_tuples(rel) == sorted_rows(rows)

    @given(writer_databases())
    @settings(max_examples=400)
    def test_facts_dir(self, db):
        try:
            want = {f"{rel}.facts": text.encode("utf-8") for rel, text in facts_texts(db).items()}
        except FactlogError as exc:
            want = str(exc)
        with tempfile.TemporaryDirectory() as directory:
            out = Path(directory) / "out"
            if isinstance(want, str):
                with pytest.raises(FactlogError) as raised:
                    db.write_facts_dir(out)
                assert str(raised.value) == want
                assert not out.exists()
            else:
                db.write_facts_dir(out)
                assert {path.name: path.read_bytes() for path in out.iterdir()} == want


# Fact lines the writer never gives: other separators and spacing, symbols
# with a comma, an escape or a raw separator, integers in other digits, no
# values, and broken ones.  Values are as they appear in the text.  The
# writer's own spacing is drawn most often, so that a changed value often sits
# in a line of the bulk shape.
EXTRA_VALUES = (
    '"a"', '"a,b"', '"a, b"', r'"\,"', r'"a\"b"', r'"\\"', r'"\n"', r'"\q"', '"x y"', '"\u2028"', '"\r"', '"\f"',
    "12", "-3", "007", "-0", "\u0663", "-\u0661\u0662", '"', "x", "",
)
EXTRA_LINES = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(("", "", "", " ", "\u00a0", "\t")),
        st.sampled_from(("p", "q", "r_1", "S", "1x", "")),
        st.just("("),
        st.builds(
            str.join,
            st.sampled_from((", ", ", ", ", ", ",", " , ", ",\u3000", ",\t")),
            st.lists(st.sampled_from(EXTRA_VALUES), max_size=3),
        ),
        st.sampled_from((").", ").", ").", ")", ") .", ").\r", ").\u2028", ").  ", "). x", "")),
    ),
) | st.sampled_from(("", "  ", "// a comment", " // c", "\r", "\u2028", "/ x"))
SPACES = st.sampled_from(("", " ", "\r", "\u2028", "\u00a0", "\t"))
OTHER_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


@st.composite
def fact_texts(draw):
    """The writer's text of a drawn database, changed by a few edits: a line
    inserted, one character of a line replaced or deleted, spacing around a
    line, or a line's digits made Arabic-Indic."""
    lines = draw(writer_databases()).to_dl_text().split("\n")
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(("insert", "corrupt", "space", "digits")))
        if kind == "insert":
            lines.insert(at, draw(EXTRA_LINES))
        elif at < len(lines):
            line = lines[at]
            if kind == "corrupt":
                i = draw(st.integers(0, len(line)))
                lines[at] = line[:i] + draw(st.sampled_from(("", *'"(),.\\ a1'))) + line[i + 1 :]
            elif kind == "space":
                lines[at] = draw(SPACES) + line + draw(SPACES)
            else:
                lines[at] = line.translate(OTHER_DIGITS)
    return "\n".join(lines)


def read_outcome(read, text: str, path):
    """The relations read, or the error's class and message."""
    try:
        return read(text, path).relations
    except FactlogError as exc:
        return type(exc), str(exc)


class TestBulkReaderAgainstOracle:
    # The package reads the writer's line shape in bulk and every other line
    # with parse_fact_line; the oracle parses and adds line by line.

    @given(fact_texts(), st.sampled_from((None, "in.dl")))
    @example('p("a, b", 1).\np("c", 2).\n', "in.dl")
    @example('p(1).\nbad\np(1, 2).\np().\n', "in.dl")
    @example('p(1).\nq().\nq(1).\n\u3000p(1, 2)\n', "in.dl")
    @settings(max_examples=600)
    def test_same_relations_or_same_error(self, text, path):
        outcome = read_outcome(Database.from_dl_text, text, path)
        assert outcome == read_outcome(read_dl_text, text, path)
        if isinstance(outcome, dict):
            # later adds check each relation's arity against its rows
            db = Database.from_dl_text(text)
            for rel, rows in outcome.items():
                row = next(iter(rows))
                db.add(rel, row)
                with pytest.raises(ArityMismatch):
                    db.add(rel, (*row, 0))

    @pytest.mark.parametrize("bad", ['p("x").', 'p("x", 1', 'p("x",, 1).', 'p("x", 1) y'])
    def test_first_bad_line_after_a_thousand_good_ones(self, bad):
        text = "".join(f'p("n{i}", {i}).\n' for i in range(1000)) + bad + '\nq(1).\np("y").\nbad\n'
        outcome = read_outcome(Database.from_dl_text, text, "in.dl")
        assert outcome == read_outcome(read_dl_text, text, "in.dl")
        assert outcome[1].startswith("in.dl:1001: ")

    @given(writer_databases())
    @settings(max_examples=200)
    def test_the_writers_lines_are_read_in_bulk(self, db):
        # only a row of no values is written in a shape the bulk pattern leaves out
        calls = []

        def counted(line):
            calls.append(line)
            return parse_fact_line(line)

        facts.parse_fact_line = counted
        try:
            assert Database.from_dl_text(db.to_dl_text()) == db
        finally:
            facts.parse_fact_line = parse_fact_line
        assert len(calls) == sum(() in rows for rows in db.relations.values())


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


# ---------------------------------------------------------------------------
# Drawn lexical profiles, each with a source built from its own tokens

LINE_COMMENTS = ("//", "#", "--", ";")
BLOCK_COMMENTS = (("/*", "*/"), ("(*", "*)"), ("{-", "-}"), ("<!", "!>"))
STRING_QUOTES = (('"', '"'), ("'", "'"), ("`", "`"), ('"""', '"""'), ("[[", "]]"), ('r"', '"'), ("<<", ">>"))
BALANCED = (("(", ")"), ("[", "]"), ("{", "}"), ("<", ">"))
# with "(" an identifier character, a run and a group may start at the same
# offset, also after a value prefix
PAREN_IDENT = LanguageDefinition(name="paren-ident", identifier_extra="_(", value_prefix_chars="*")


def _prefix_free(items: list, opener) -> list:
    """The items whose opener neither extends nor is a prefix of an earlier
    kept one's."""
    kept: list = []
    for item in items:
        if not any(opener(item).startswith(opener(k)) or opener(k).startswith(opener(item)) for k in kept):
            kept.append(item)
    return kept


@st.composite
def drawn_languages(draw):
    """A source and a LanguageDefinition drawn from line comments, block
    pairs that nest or not, multi-character string delimiters with and
    without an escape, a subset of the balanced pairs, an identifier_extra
    that may hold a bracket, and value prefixes."""

    def subset(options):
        return draw(st.lists(st.sampled_from(options), unique=True, max_size=3))

    first = itemgetter(0)
    lines = _prefix_free(subset(LINE_COMMENTS), str)
    blocks = _prefix_free(subset(BLOCK_COMMENTS), first)
    escapes = st.sampled_from((None, "\\", "^"))
    strings = [(o, c, draw(escapes)) for o, c in _prefix_free(subset(STRING_QUOTES), first)]
    lang = LanguageDefinition(
        name="drawn",
        line_comment_prefixes=tuple(lines),
        block_comment_pairs=tuple(blocks),
        string_delimiters=tuple(strings),
        balanced_pairs=tuple(subset(BALANCED)),
        identifier_extra="".join(subset("_.'$")) + draw(st.sampled_from(("", "(", "[", "()"))),
        value_prefix_chars="".join(subset("*&!@")),
        nest_block_comments=draw(st.booleans()),
    )
    tokens = [*lines, *(t for pair in blocks for t in pair), *(t for d in strings for t in d if t)]
    tokens += [*"()[]{}<>*&!@_.$'\\^", "a", "b1", "x.y", " ", "\n", "\t", "\u00a0", "é", "f(a)", " (b c)", "*(b)", "@[x]"]
    source = "".join(draw(st.lists(st.sampled_from(tokens), max_size=24)))
    return source, lang


# Sources for the bundled languages and the drawn ones
REGION_CASES = st.tuples(REGION_SOURCE, st.sampled_from(REGION_LANGS)) | drawn_languages()


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

    @given(REGION_CASES)
    @settings(max_examples=600, deadline=None)
    def test_kinds_spell_out_the_intervals(self, case):
        source, lang = case
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

    @given(st.lists(st.sampled_from(("a", " ", "\n", "\r\n", "\r", "\u2028", "\f", "é"))).map("".join))
    @example("")
    @example("a\r\nb")
    @settings(max_examples=300)
    def test_line_start_table_finds_every_newline(self, source):
        # with and without a final newline
        assert _line_start_table(source) == line_start_table(source)
        assert _line_start_table(source + "a") == line_start_table(source + "a")

    @given(
        st.lists(st.sampled_from(("a", "'", '"', "\\", "\\\\", "*/", "*", "/", "``", "\n", "é"))).map("".join),
        st.integers(0, 4),
        st.sampled_from(("'", '"', "*/", '"""', "``", "\\", "\\'")),
        st.sampled_from(("\\", "'", "*", "`", "é", None)),
    )
    @example("ab\\", 0, '"', "\\")  # a lone escape at the end of the input
    @example("a\\", 0, "\\", "\\")  # an escape that is the close
    @settings(max_examples=500)
    def test_string_end_equals_stepping(self, source, pos, close, escape):
        pos = min(pos, len(source))
        assert _string_end(source, pos, close, escape) == string_end(source, pos, close, escape)

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
# "(..." and "$c(..." end inside the group they open, so a match window
# holds opens that close past its end, which the walk steps over.  Every
# candidate table is drawn: found from a leading literal, also after
# leading whitespace (" (..."), anchored ("$c(..."), every unit start
# ("$x", "$x $y*") and every offset ("...)", "$b* }", " $x").
INNER_TEMPLATES = st.sampled_from((
    "$c(...)", "($x)", "[$x]", "(...", "$c(...", "{$b*", " (...", "$x", "$x $y*", "...)", "$b* }", " $x",
)).map(parse_template)


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


# Sources for templates that start with a hole or with whitespace, whose
# candidates come from the per-file tables of every strategy but "none"
# (test_templates.py checks that one): prefixed, chained, indexed, string
# and qualified callees, comments between a unit and its anchor, anchors inside
# strings and comments, mismatched brackets, and assignments for the
# whitespace-anchored "$l = $a + $b".
CHAIN_FRAGMENTS = st.sampled_from((
    "*f(x)", "**p(y)", "f(a)(b)", "a[i + 1](x)", '"s"(x)', "'c'(x)", "`r`(x)", "pkg.F(x)",
    "f/*c*/(x)", "f /* c */ (x)", "g // c\n(x)", '"f(x)"', "/* f(x) */", "// g(y)\n", "(]", "[)",
    "x = y + z", "x /* c */ = y + z", "x\n= y + z", "x=y+z", "(a) = b + c", '"s" = t + u', "*x = y + z",
    "f()", "_g(x)", "h.i()(j)", "(f)(x)", "f", "(", ")", "[", "]", "=", "+", " ", "\n",
))
CHAIN_SOURCE = st.lists(CHAIN_FRAGMENTS, max_size=8).map("".join)
LEADING_HOLE_TEMPLATES = st.sampled_from(
    ("$c(...)", "$l = $a + $b", "$x?(...)", "$x", "$x $y*", "...)", " $c(...)", " = $a", " ($x)")
).map(parse_template)


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
    @given(st.tuples(NESTED_SOURCE, st.sampled_from((GO, C))) | drawn_languages(), st.data())
    @settings(max_examples=450, deadline=None)
    def test_table_walk_equals_depth_counter(self, case, data):
        source, lang = case
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


def _table_chain_ends(smap, pos: int, hi: int) -> list[int]:
    """The unit chain from pos read from the unit table, as a generated
    matcher walks it: empty unless pos is a left-maximal start."""
    src, lang, units, kinds = smap.source, smap.language, smap.unit_ends, smap.kinds
    ident, prefix = lang.is_identifier_char, lang.value_prefix_chars
    if (ident(src[pos]) or src[pos] in prefix) and pos > 0 and ident(src[pos - 1]):
        return []
    p = pos
    while p < hi and src[p] in prefix:
        p += 1
    if p > pos and (p not in units or not ident(src[p]) or any(k not in "cw" for k in kinds[pos : p + 1])):
        return []
    ends = []
    while p < hi and p in units:
        end = units[p]
        if end > hi:
            if kinds[p] not in "cw" or not ident(src[p]):
                break
            end = hi
        ends.append(end)
        p = end
    return ends


class TestUnitTableAgainstOracle:
    @given(st.tuples(UNIT_SOURCE, st.sampled_from((GO, C, ZIG))) | drawn_languages())
    @example(("f(a) (b c) x", PAREN_IDENT))
    @settings(max_examples=600, deadline=None)
    def test_table_walk_equals_region_walk(self, case):
        source, lang = case
        smap = classify(source, lang)
        n = len(source)
        # the reference still takes a closing delimiter as a one-character
        # unit, which the table deliberately does not
        delimiters = [s for s, _, kind in smap.intervals if kind is Region.STRING_DELIMITER]
        closes = set(delimiters[1::2])
        for hi in range(n + 1):
            for pos in range(hi):
                if pos not in closes:
                    assert _table_chain_ends(smap, pos, hi) == unit_chain_ends(smap, pos, hi), pos


# ---------------------------------------------------------------------------
# Generated matchers against the interpreter

# Every hole kind among brackets, strings, comments, operators and
# identifiers; each $H gets a name of its own.
MATCH_PIECES = st.sampled_from((
    "$H", "$H*", "$H?", '"$H"', "...", "(", ")", "[", "]", "{", "}", " ", "\n", ",", "=", "+", "*",
    "f", "x", "g(", '"', "'", "`", "/*", "*/", "//", ";",
))
MATCH_TEMPLATES = st.lists(MATCH_PIECES, min_size=1, max_size=7).map(
    lambda parts: "".join(part.replace("H", f"h{k}") for k, part in enumerate(parts))
)
HOLES = ("$H", "$H*", "$H?", '"$H"', "...")
SOURCE_TOKEN = re.compile(r"[A-Za-z0-9_.]+|\s+|.", re.S)
# empty strings and spaced groups, which the fragments above lack
MATCH_EXTRAS = st.sampled_from(('""', 'f("")', "''", "(a, b)", " (x) ", "a /* c */ b", "x\t= y"))
MATCH_SOURCE = st.one_of(
    NESTED_SOURCE,
    CHAIN_SOURCE,
    st.lists(st.one_of(CHAIN_FRAGMENTS, NESTED_LEAVES, UNIT_EXTRAS, MATCH_EXTRAS), max_size=8).map("".join),
)


@st.composite
def sources_and_templates(draw):
    """A source, and a template that is mostly a piece of it: a run of its
    tokens, holes of every kind standing for none to three of them, and
    spaces put in, so that most templates match somewhere and many have to
    backtrack."""
    source = draw(MATCH_SOURCE)
    tokens = SOURCE_TOKEN.findall(source)
    if not tokens or draw(st.integers(0, 3)) == 0:
        return source, draw(MATCH_TEMPLATES)
    k = draw(st.integers(0, len(tokens) - 1))
    end = draw(st.integers(k + 1, min(len(tokens), k + 10)))
    parts: list[str] = []
    while k < end and len(parts) < 16:
        action = draw(st.sampled_from(("keep", "keep", "keep", "space", *HOLES)))
        if action == "keep":
            parts.append(tokens[k])
        elif action == "space":
            parts.append(" " + tokens[k])
        else:
            parts.append(action.replace("$H", f"$h{len(parts)}"))
            k += draw(st.integers(-1, 2))
        k += 1
    return source, "".join(parts)


def _one_match_key(m) -> tuple | None:
    return None if m is None else (m.start, m.end, sorted(m.env.bindings.items()))


class TestGeneratedMatcherAgainstInterpreter:
    @given(sources_and_templates(), st.sampled_from((GO, C, ZIG, PAREN_IDENT)), st.integers(0, 200))
    # paths that drawn templates reach rarely: an empty string body, an
    # optional hole that binds empty first and then more, whitespace after
    # an empty ..., a chain cut by the window, a literal quote, a leading
    # optional hole inside a string, a value prefix before a group, a value
    # prefix right after an identifier, a literal inside an identifier, and
    # a run that a group also opens, cut by the window or after a prefix
    @example(('x ""', 'x "$h0"'), GO, 200)
    @example(("f*p", "f$h0"), GO, 200)
    @example(("(ax)", "(...x)"), C, 200)
    @example(('"abc" x', "$h0?$h1*"), GO, 200)
    @example(("*(x) = *y", "$h0 = $h1"), GO, 200)
    @example(("f(a)(b)", "f$h1?(...)"), GO, 200)
    @example(("()", "(... )"), C, 200)
    @example(("abc(x)", "$h0"), C, 2)
    @example(('f(")", \')\')', "f($h0*)"), GO, 200)
    @example(("(bc)", "$h0"), PAREN_IDENT, 1)
    @example(("x *(b c)", "x $h0"), PAREN_IDENT, 200)
    @settings(max_examples=600, deadline=None)
    def test_match_at_equals_interpreter_at_every_offset(self, source_and_template, lang, cut):
        source, text = source_and_template
        try:
            template = compile_template(parse_template(text), lang)
        except FactlogError:
            assume(False)
        smap = classify(source, lang)
        n = len(source)
        # the offset form: the end and each named hole's span, in order
        offsets = template.compiled.make_matcher(smap)
        for hi in sorted({n, min(cut, n)}):
            for start in range(hi + 1):
                got = match_at(template, smap, start, hi)
                assert _one_match_key(got) == _one_match_key(interpret_at(template, smap, start, hi)), start
                spans = None if got is None else (got.end,) + tuple(
                    x for name in template.hole_names() for x in got.env[name][1:3]
                )
                assert offsets(start, hi) == spans, start


class TestOracleIndependence:
    # The references must not become the code they check.
    CHECKED = {
        "iter_nested_matches",
        "group_opens",
        "group_ends",
        "brackets",
        "any_close",
        "depth_zero_extent",
        "iter_matches",
        "offset_walk",
        "_match_from_offsets",
        "candidate_tables",
        "_candidates",
        "_anchor_candidates",
        "unit_ends",
        "kinds",
        "region_at",
        "match_at",
        "make_matcher",
        "to_dl_text",
        "from_dl_text",
        "write_facts_dir",
        "sorted_tuples",
        "_groups",
        "_lines",
        "_line_start_table",
        "_string_end",
        "_string_body_re",
    }
    # records, and the parser that makes them, are all the oracles may take
    # from templates
    TEMPLATE_NAMES = {
        "parse_template", "Template", "Literal", "Hole", "HoleKind", "Binding", "MatchEnvironment", "Match",
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

    def test_oracles_take_only_records_from_templates(self):
        tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "factlog.templates":
                assert {alias.name for alias in node.names} <= self.TEMPLATE_NAMES
            elif isinstance(node, ast.Import):
                assert all(alias.name != "factlog.templates" for alias in node.names)
