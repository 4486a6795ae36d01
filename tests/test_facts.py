"""Fact-line parsing, formatting, and Database behavior."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factlog import ArityMismatch, Database, Fact, FactlogError, MalformedFact, format_fact, parse_fact_line
from factlog.facts import _tuple_key


class TestParseFactLine:
    def test_symbols_and_numbers(self):
        f = parse_fact_line('edge("main", "incr").')
        assert f == Fact("edge", ("main", "incr"))
        assert parse_fact_line("next(1, 2).") == Fact("next", (1, 2))

    def test_trailing_dot_optional(self):
        assert parse_fact_line('read("b", 1)') == parse_fact_line('read("b", 1).')

    def test_negative_number(self):
        assert parse_fact_line("delta(-3).") == Fact("delta", (-3,))

    def test_zero_arity(self):
        assert parse_fact_line("flag().") == Fact("flag", ())

    def test_escapes_in_symbols(self):
        f = parse_fact_line(r'name("a\"b\\c").')
        assert f.args == ('a"b\\c',)

    def test_bare_identifier_rejected(self):
        with pytest.raises(MalformedFact):
            parse_fact_line("edge(main, incr).")

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "edge",
            "edge(",
            'edge("a"',
            'edge("a",).',
            'edge("a") trailing',
            '1edge("a").',
        ],
    )
    def test_malformed(self, line):
        with pytest.raises(MalformedFact):
            parse_fact_line(line)

    @pytest.mark.parametrize(
        "line, message",
        [
            (' 1edge("a").', 'expected relation name in \' 1edge("a").\''),
            ('edge', "expected '(' after relation name in 'edge'"),
            ('  edge("a\\\\", 1 ;', 'expected \',\' or \')\' at offset 14 in \'  edge("a\\\\\\\\", 1 ;\''),
            ('edge("a") trailing', 'trailing text after fact in \'edge("a") trailing\''),
            ('edge("a\\"', 'unterminated quoted symbol in \'edge("a\\\\"\''),
            ('edge("\\n", a)', 'expected quoted symbol or integer at offset 11 in \'edge("\\\\n", a)\''),
        ],
    )
    def test_malformed_messages(self, line, message):
        # offsets count from the stripped line; the "dropped bad fact line" diagnostics quote these
        with pytest.raises(MalformedFact) as exc:
            parse_fact_line(line)
        assert str(exc.value) == message

    def test_round_trip(self):
        for line in ['edge("a", "b").', "next(1, 2).", 'mix("x", -7).']:
            assert format_fact(parse_fact_line(line)) == line


class TestDatabase:
    def test_add_deduplicates(self):
        db = Database()
        db.add("e", ("a", "b"))
        db.add("e", ("a", "b"))
        assert db.fact_count() == 1

    def test_sorted_tuples_orders_ints_before_strings(self):
        db = Database()
        db.add("m", ("b",))
        db.add("m", (2,))
        db.add("m", (10,))
        db.add("m", ("a",))
        assert db.sorted_tuples("m") == [(2,), (10,), ("a",), ("b",)]

    def test_merge_and_eq_ignore_empty_relations(self):
        a = Database()
        a.add("e", ("x", "y"))
        b = Database()
        b.add("e", ("x", "y"))
        b.tuples("unused")  # creates nothing persistent
        assert a == b
        c = Database()
        c.merge(a)
        assert c == a

    def test_merge_checks_arity_and_copies(self):
        a = Database()
        a.add("e", ("x", "y"))
        c = Database()
        c.merge(a)
        c.add("e", ("p", "q"))
        assert a.tuples("e") == {("x", "y")}  # the merged set is c's own
        c.merge(Database({"e": set(), "f": set()}))
        assert sorted(c.relations) == ["e"]
        with pytest.raises(ArityMismatch, match=r"^relation e holds 2-tuples, got 1-tuple$"):
            c.merge(Database({"e": {("z",)}}))

    def test_add_checks_the_arity_it_recorded(self):
        db = Database()
        db.add("e", ("x", "y"))
        db.merge(Database({"f": {(1,)}}))
        db.relations["g"] = {("p", "q", "r")}  # filled directly: sampled on the next add
        for relation, row, message in (
            ("e", ("z",), "holds 2-tuples, got 1-tuple"),
            ("f", (1, 2), "holds 1-tuples, got 2-tuple"),
            ("g", ("p", "q"), "holds 3-tuples, got 2-tuple"),
        ):
            with pytest.raises(ArityMismatch, match=rf"^relation {relation} {message}$"):
                db.add(relation, row)
        db.relations["e"].clear()  # an empty relation takes any arity, as before
        db.add("e", ("z",))
        with pytest.raises(ArityMismatch, match=r"^relation e holds 1-tuples, got 2-tuple$"):
            db.add("e", ("x", "y"))

    @settings(max_examples=300)
    @given(st.lists(st.tuples(*[st.integers(-3, 3) | st.sampled_from(["", "a", "b"])] * 3), max_size=12))
    def test_sorted_tuples_is_the_order_of_whole_tuples(self, rows):
        # per-column sorts agree with _tuple_key, also where a column mixes
        # symbols and integers
        db = Database({"t": set(rows)} if rows else None)
        assert db.sorted_tuples("t") == sorted(set(rows), key=_tuple_key)

    def test_fact_count_subset(self):
        db = Database()
        db.add("e", ("a", "b"))
        db.add("f", (1,))
        assert db.fact_count(["e"]) == 1
        assert db.fact_count() == 2

    def test_dl_text_round_trip(self):
        db = Database()
        db.add("edge", ("a", "b"))
        db.add("next", (1, 2))
        text = db.to_dl_text()
        assert text == 'edge("a", "b").\nnext(1, 2).\n'
        assert Database.from_dl_text(text) == db

    def test_dl_text_sorted_and_stable(self):
        db = Database()
        for tup in [("z", "a"), ("a", "z"), ("a", "b")]:
            db.add("edge", tup)
        lines = db.to_dl_text().splitlines()
        assert lines == sorted(lines)

    def test_facts_dir_round_trip(self, tmp_path):
        db = Database()
        db.add("edge", ("a", "b"))
        db.add("next", (1, 2))
        db.add("next", (2, 3))
        paths = db.write_facts_dir(tmp_path)
        assert sorted(p.name for p in paths) == ["edge.facts", "next.facts"]
        back = Database.from_facts_dir(tmp_path)
        assert back == db

    def test_facts_dir_round_trip_keeps_an_empty_relation(self, tmp_path):
        db = Database()
        db.relations["calls"] = set()
        db.add("edge", ("a", "b"))
        db.write_facts_dir(tmp_path)
        assert (tmp_path / "calls.facts").read_text(encoding="utf-8") == ""
        for back in (Database.from_facts_dir(tmp_path), Database.from_facts_file(tmp_path / "calls.facts")):
            assert back.relations["calls"] == set()
        merged = Database()
        merged.merge(Database.from_facts_dir(tmp_path))
        assert merged.relations == {"calls": set(), "edge": {("a", "b")}}
        merged.add("calls", ("a", "b"))  # the empty relation takes its arity from its first row
        with pytest.raises(ArityMismatch):
            merged.add("calls", ("a",))

    def test_facts_dir_respects_declared_types(self, tmp_path):
        (tmp_path / "port.facts").write_text("8080\n", encoding="utf-8")
        as_symbol = Database.from_facts_dir(tmp_path, {"port": ("symbol",)})
        assert as_symbol.tuples("port") == {("8080",)}
        as_number = Database.from_facts_dir(tmp_path, {"port": ("number",)})
        assert as_number.tuples("port") == {(8080,)}

    def test_facts_dir_bad_number_cell(self, tmp_path):
        (tmp_path / "port.facts").write_text("not-a-number\n", encoding="utf-8")
        with pytest.raises(MalformedFact, match="port.facts:1"):
            Database.from_facts_dir(tmp_path, {"port": ("number",)})

    @pytest.mark.parametrize("symbol", ["a\u2028b", "x\fy", "v\vw", "s\x1ct", "n\x85m", "p\u2029q"])
    def test_facts_dir_keeps_symbols_that_splitlines_breaks(self, tmp_path, symbol):
        db = Database()
        db.add("p", (symbol, "c"))
        db.add("p", ("z", "c"))
        db.write_facts_dir(tmp_path)
        assert Database.from_facts_dir(tmp_path) == db

    @pytest.mark.parametrize("tup", [("a\rb", "c"), ("a\r\nb", "c"), ("",), ()])
    def test_facts_dir_refuses_what_it_cannot_read_back(self, tmp_path, tup):
        db = Database()
        db.add("p", tup)
        with pytest.raises(FactlogError, match=r"in p .*use the dl format"):
            db.write_facts_dir(tmp_path)

    def test_refused_database_writes_no_file(self, tmp_path):
        db = Database({"a": {("x", "y")}, "b": {("p\tq", "r")}})
        with pytest.raises(FactlogError, match=r"symbol 'p\\tq' in b cannot be written tab-separated"):
            db.write_facts_dir(tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_tab_in_symbol_survives_dl_not_tsv(self):
        db = Database()
        db.add("s", ("a\tb",))
        assert Database.from_dl_text(db.to_dl_text()) == db
