"""Ground facts and fact databases, and the ``.dl`` fact text.

A fact line looks like ``edge("incr", "one").`` or ``next(1, 2).``: arguments
are double-quoted symbols (backslash escapes for the quote and the backslash)
or signed integers.  ``parse_fact_line`` is the one grammar of a fact line.
A Database maps relation names to sets of ground tuples; serialization is
always sorted so equal databases produce identical bytes.

The writers build that order by groups.  One dict pass groups a relation's
rows by all but their last value.  The groups are ordered once, and each
group's last values are sorted as integer ranks among the relation's
distinct last values.  Each distinct value is formatted once, each group's
prefix text is built once and each group's lines are joined in one call.
The order is that of comparing whole tuples; where a column mixes integers
and symbols, integers come first (``_tuple_key``).

The reader takes the lines in the writer's shape in bulk: one regular
expression splits the whole text into lines, each distinct value text is
decoded once, and each relation's rows are made at once.  Only the other
lines go through ``parse_fact_line``.

Two on-disk formats are supported: a single ``.dl`` text of fact lines, and a
directory of per-relation ``<name>.facts`` files with tab-separated columns
and unquoted symbols (the layout Datalog engines such as Souffle consume).
The second one's reader and writer live in ``tsv``, which the ``Database``
methods for it import when they are called.
"""

from __future__ import annotations

import re
import sys
from collections import defaultdict, namedtuple
from itertools import groupby, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import ArityMismatch, DatalogError, MalformedFact, TypeMismatch
from .syntax import decode_symbol

_RELATION_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?\d+")


Fact = namedtuple("Fact", "relation args")
Fact.__doc__ = "Fact(relation: str, args: tuple[str | int, ...]): one ground fact."


def parse_fact_line(line: str) -> Fact:
    """Parse one ``relation(arg, ...)`` line into a Fact (trailing '.' optional)."""
    text = line.strip()
    pos = 0
    m = _RELATION_RE.match(text, pos)
    if m is None:
        raise MalformedFact(f"expected relation name in {line!r}")
    relation = sys.intern(m.group(0))
    pos = m.end()
    if pos >= len(text) or text[pos] != "(":
        raise MalformedFact(f"expected '(' after relation name in {line!r}")
    pos += 1
    args: list[str | int] = []
    while True:
        pos = _skip_spaces(text, pos)
        if pos < len(text) and text[pos] == ")" and not args:
            pos += 1
            break
        arg, pos = _parse_arg(text, pos, line)
        args.append(arg)
        pos = _skip_spaces(text, pos)
        if pos < len(text) and text[pos] == ",":
            pos += 1
            continue
        if pos < len(text) and text[pos] == ")":
            pos += 1
            break
        raise MalformedFact(f"expected ',' or ')' at offset {pos} in {line!r}")
    pos = _skip_spaces(text, pos)
    if pos < len(text) and text[pos] == ".":
        pos += 1
    if text[pos:].strip():
        raise MalformedFact(f"trailing text after fact in {line!r}")
    return Fact(relation, tuple(args))


def _skip_spaces(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


_ENCODE_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_QUOTED_RE = re.compile(r'"((?:[^"\\]|\\.)*)"', re.DOTALL)


def _parse_arg(text: str, pos: int, line: str) -> tuple[str | int, int]:
    if pos < len(text) and text[pos] == '"':
        m = _QUOTED_RE.match(text, pos)
        if m is None:
            raise MalformedFact(f"unterminated quoted symbol in {line!r}")
        return decode_symbol(m[1]), m.end()
    m = _INT_RE.match(text, pos)
    if m is None:
        raise MalformedFact(f"expected quoted symbol or integer at offset {pos} in {line!r}")
    return int(m.group(0)), m.end()


def format_value(value: str | int) -> str:
    if isinstance(value, int):
        return str(value)
    escaped = "".join(_ENCODE_ESCAPES.get(ch, ch) for ch in value)
    return f'"{escaped}"'


def format_fact(fact: Fact) -> str:
    return f"{fact.relation}({', '.join(format_value(a) for a in fact.args)})."


# A line in the shape the writer gives each row of arity one or more,
# ``rel("sym", 12).``: nothing around it, ", " between the values, symbols
# without a comma or a raw quote, and ASCII integers.  No value holds a comma,
# so ", " splits a line's values exactly.  Each line of a text is one match,
# (relation, values, "") in that shape and ("", "", line) otherwise.
# The pattern is compiled on the first read (``re`` keeps it), so a run that
# reads no fact text never pays for that.
_VALUE = r'(?:"(?:[^"\\\n,]|\\[^\n,])*"|-?[0-9]+)'
_LINE = rf"^(?:([A-Za-z_][A-Za-z0-9_]*)\(({_VALUE}(?:, {_VALUE})*)\)\.$|(.*))"


def _decode_value(text: str) -> str | int:
    """The value of a value text of that shape."""
    return decode_symbol(text[1:-1]) if text[0] == '"' else int(text)


def _arity_mismatch(relation: str, held: int, got: int) -> ArityMismatch:
    return ArityMismatch(f"relation {relation} holds {held}-tuples, got {got}-tuple")


def row_error(relation: str, types: tuple[str | None, ...], row: tuple) -> DatalogError | None:
    """The error of a row of the relation that breaks a declaration of
    these column types, or None.  A column typed None takes any value."""
    if len(row) != len(types):
        return ArityMismatch(f"input relation {relation!r} has arity {len(row)}, program expects {len(types)}")
    for i, (t, v) in enumerate(zip(types, row)):
        if t is not None and not isinstance(v, int if t == "number" else str):
            return TypeMismatch(f"{relation!r} column {i + 1} expects a {t}, got {v!r}")
    return None


def first_bad_row(rows: Iterable[tuple], column_types: dict[str, tuple] | None = None) -> tuple | None:
    """(place, error) for the first of the (place, relation, row) rows whose
    arity differs from its relation's first row or, with column_types,
    that breaks its relation's types; None when every row fits."""
    arities: dict[str, int] = {}
    types = column_types or {}
    for place, relation, row in rows:
        held = arities.setdefault(relation, len(row))
        if held != len(row):
            return place, _arity_mismatch(relation, held, len(row))
        error = row_error(relation, types[relation], row) if relation in types else None
        if error is not None:
            return place, error
    return None


def dl_rows(text: str) -> Iterator[tuple[int, str, tuple]]:
    """(line number, relation, row) for each fact line of a ``.dl`` text,
    parsed one line at a time."""
    for number, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if line and not line.startswith("//"):
            fact = parse_fact_line(line)
            yield number, fact.relation, fact.args


def _value_key(v: str | int):
    # Integers before symbols, so a column that mixes them has an order.
    return (0, v, "") if isinstance(v, int) else (1, 0, v)


def _tuple_key(tup: tuple[str | int, ...]):
    return tuple(map(_value_key, tup))


def _sorted(items, key) -> list:
    try:
        return sorted(items)
    except TypeError:
        # Only comparing an integer with a symbol raises.  Every comparison
        # that did not raise agreed with key, and the items are distinct,
        # so key gives the order a successful sort would have given.
        return sorted(items, key=key)


def _groups(rows: set[tuple]) -> tuple[list[tuple[tuple, list[int]]], list]:
    """Non-empty rows of arity one or more, in sorted order, by groups.

    Returns (groups, lasts): lasts are the distinct last values in order,
    and each group, in order, is (prefix, ranks), the values its rows share
    and the ascending positions in lasts of their last values, so its rows
    are ``prefix + (lasts[r],)`` for r in ranks.
    """
    arity = len(next(iter(rows)))
    pairs = rows if arity == 2 else zip(map(itemgetter(slice(-1)), rows), map(itemgetter(-1), rows))
    by_prefix = defaultdict(list)
    for prefix, last in pairs:
        by_prefix[prefix].append(last)
    lasts = _sorted(set().union(*by_prefix.values()), _value_key)
    rank = dict(zip(lasts, range(len(lasts))))
    ordered = _sorted(by_prefix, _value_key if arity == 2 else _tuple_key)
    return [
        ((k,) if arity == 2 else k, sorted(map(rank.__getitem__, by_prefix[k]))) for k in ordered
    ], lasts


class _Memo(dict):
    """A function's result for each distinct argument, made once: each
    distinct value's text for the writers, each distinct value text's value
    for the reader."""

    def __init__(self, function):
        super().__init__()
        self.function = function

    def __missing__(self, key):
        result = self[key] = self.function(key)
        return result


def _lines(rows: set[tuple], texts: _Memo, head: str, sep: str, tail: str) -> list[str]:
    """The rows as sorted lines ``head + sep.join(cells) + tail + "\n"``,
    one string per group of rows that share all but their last value."""
    if not rows:
        return []
    if () in rows:
        return [head + tail + "\n"]
    groups, lasts = _groups(rows)
    ends = list(map(texts.__getitem__, lasts))
    out = []
    for prefix, ranks in groups:
        start = head + "".join([texts[v] + sep for v in prefix])
        out.append(start + (tail + "\n" + start).join(map(ends.__getitem__, ranks)) + tail + "\n")
    return out


class Database:
    """Relations mapped to sets of ground tuples.

    add checks each row against the arity of one of the relation's rows,
    however the relation was filled; an empty relation takes any arity.
    """

    def __init__(self, relations: dict[str, set[tuple]] | None = None):
        self.relations: dict[str, set[tuple]] = {}
        if relations:
            for name, tuples in relations.items():
                for tup in tuples:
                    self.add(name, tup)

    def add(self, relation: str, tup: tuple) -> None:
        self.adder(relation, len(tup))(tup)

    def adder(self, relation: str, arity: int) -> Callable[[tuple], None]:
        """The add method of relation's set, for rows of arity, which skip
        the arity check from then on.  Raises ArityMismatch if relation
        holds rows of another arity; an empty one takes any.  The caller
        adds a row at once, so no empty relation stays behind."""
        existing = self.relations.get(relation)
        if existing is None:
            existing = self.relations[relation] = set()
        elif existing and (held := len(next(iter(existing)))) != arity:
            raise _arity_mismatch(relation, held, arity)
        return existing.add

    def add_fact(self, fact: Fact) -> None:
        self.add(fact.relation, fact.args)

    def merge(self, other: "Database") -> None:
        """Add every relation and tuple of other, checking each relation's
        arity once."""
        for relation, tuples in other.relations.items():
            existing = self.relations.get(relation)
            if existing is None:
                self.relations[relation] = set(tuples)
                continue
            if existing and tuples:
                mine, theirs = len(next(iter(existing))), len(next(iter(tuples)))
                if mine != theirs:
                    raise _arity_mismatch(relation, mine, theirs)
            existing.update(tuples)

    def tuples(self, relation: str) -> set[tuple]:
        return self.relations.get(relation, set())

    def sorted_tuples(self, relation: str) -> list[tuple]:
        rows = self.tuples(relation)
        if not rows or () in rows:
            return list(rows)
        groups, lasts = _groups(rows)
        return [prefix + (lasts[r],) for prefix, ranks in groups for r in ranks]

    def fact_count(self, relations: Iterable[str] | None = None) -> int:
        names = self.relations if relations is None else relations
        return sum(len(self.relations.get(r, ())) for r in names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine = {r: t for r, t in self.relations.items() if t}
        theirs = {r: t for r, t in other.relations.items() if t}
        return mine == theirs

    def __repr__(self) -> str:
        sizes = ", ".join(f"{r}:{len(t)}" for r, t in sorted(self.relations.items()))
        return f"Database({sizes})"

    # -- .dl fact text -------------------------------------------------------

    def to_dl_text(self) -> str:
        texts = _Memo(format_value)
        chunks: list[str] = []
        for relation in sorted(self.relations):
            chunks += _lines(self.relations[relation], texts, relation + "(", ", ", ").")
        return "".join(chunks)

    @classmethod
    def from_dl_text(cls, text: str, path: str | Path | None = None) -> "Database":
        """Parse fact lines; with a path, a bad line's error starts with
        ``path:line:``.

        Only a line feed ends a line: a symbol may hold a form feed or
        U+2028, which ``str.splitlines`` splits on.  Lines in the writer's shape are
        read in bulk: each distinct value text is decoded once, and each
        relation's rows are made at once, after one arity check.  Every
        other line that is not blank or a ``//`` comment goes through
        parse_fact_line.  The error raised is that of the first bad line, as
        if each line were parsed and added in turn.
        """
        lines = re.findall(_LINE, text, re.MULTILINE)
        found: dict[str, tuple[list[str], list[tuple]]] = {}  # per relation: bulk values texts, other rows
        bad = None
        at = 0
        for relation, group in groupby(lines, itemgetter(0)):
            group = list(group)
            if relation:
                found.setdefault(sys.intern(relation), ([], []))[0].extend(map(itemgetter(1), group))
            else:
                for i, (_, _, other) in enumerate(group, at):
                    line = other.strip()
                    if not line or line.startswith("//"):
                        continue
                    try:
                        fact = parse_fact_line(line)
                    except MalformedFact as exc:
                        bad = i + 1, exc
                        break
                    found.setdefault(fact.relation, ([], []))[1].append(fact.args)
                if bad:
                    break
            at += len(group)
        db = cls()
        values = _Memo(_decode_value)
        for relation, (texts, rows) in found.items():
            arities = set(map(len, rows))
            arities.update(n + 1 for n in set(map(str.count, texts, repeat(","))))
            if len(arities) > 1:
                bad = first_bad_row(dl_rows(text))
                break
            (arity,) = arities
            tuples = set(rows)
            if texts:
                cells = map(values.__getitem__, ", ".join(texts).split(", "))
                tuples.update(zip(*[cells] * arity))
            db.relations[relation] = tuples
        if bad:
            i, exc = bad
            raise exc if path is None else type(exc)(f"{path}:{i}: {exc}")
        return db

    # -- per-relation .facts files (tab separated), in ``tsv`` -----------------

    def write_facts_dir(self, directory: str | Path) -> list[Path]:
        """Write one sorted <relation>.facts file per relation."""
        from .tsv import write_facts_dir

        return write_facts_dir(self, directory)

    @classmethod
    def from_facts_dir(
        cls, directory: str | Path, column_types: dict[str, tuple[str | None, ...]] | None = None
    ) -> "Database":
        """Read every <relation>.facts file in a directory; column_types maps
        a relation to its columns' 'symbol' or 'number' markers (None to
        infer)."""
        from .tsv import read_facts_dir

        return read_facts_dir(cls(), directory, column_types)

    @classmethod
    def from_facts_file(
        cls, path: str | Path, column_types: dict[str, tuple[str | None, ...]] | None = None
    ) -> "Database":
        """Read one <relation>.facts file (relation named after the file)."""
        from .tsv import read_facts_file

        return read_facts_file(cls(), path, column_types)
