"""Ground facts and fact databases, with text and tab-separated serialization.

A fact line looks like ``edge("incr", "one").`` or ``next(1, 2).``: arguments
are double-quoted symbols (backslash escapes for the quote and the backslash)
or signed integers.  A Database maps relation names to sets of ground tuples;
serialization is always sorted so equal databases produce identical bytes.

The writers build that order by groups.  One dict pass groups a relation's
rows by all but their last value.  The groups are ordered once, and each
group's last values are sorted as integer ranks among the relation's
distinct last values.  Each distinct value is formatted once, each group's
prefix text is built once and each group's lines are joined in one call.
The order is that of comparing whole tuples; where a column mixes integers
and symbols, integers come first (``_tuple_key``).

Two on-disk formats are supported: a single ``.dl`` text of fact lines, and a
directory of per-relation ``<name>.facts`` files with tab-separated columns
and unquoted symbols (the layout Datalog engines such as Souffle consume).
"""

from __future__ import annotations

import re
import sys
from collections import defaultdict
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import ArityMismatch, FactlogError, MalformedFact, read_text
from .syntax import decode_symbol

_RELATION_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?\d+")
_INT_TOKEN_RE = re.compile(r"-?\d+\Z")


class Fact(NamedTuple):
    relation: str
    args: tuple[str | int, ...]


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


class _Texts(dict):
    """Each distinct value's text, made once."""

    def __init__(self, text):
        super().__init__()
        self.text = text

    def __missing__(self, value):
        s = self[value] = self.text(value)
        return s


def _lines(rows: set[tuple], texts: _Texts, head: str, sep: str, tail: str) -> list[str]:
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

    add checks each row against the arity it recorded for the relation,
    not against a sample of its tuples; a relation filled through
    relations directly is sampled once.
    """

    def __init__(self, relations: dict[str, set[tuple]] | None = None):
        self.relations: dict[str, set[tuple]] = {}
        self._arity: dict[str, int] = {}
        if relations:
            for name, tuples in relations.items():
                for tup in tuples:
                    self.add(name, tup)

    def add(self, relation: str, tup: tuple) -> None:
        existing = self.relations.get(relation)
        if not existing:
            if existing is None:
                self.relations[relation] = {tup}
            else:
                existing.add(tup)
            self._arity[relation] = len(tup)
            return
        arity = self._arity.get(relation)
        if arity is None:  # filled through self.relations
            arity = self._arity[relation] = len(next(iter(existing)))
        if arity != len(tup):
            raise ArityMismatch(f"relation {relation} holds {arity}-tuples, got {len(tup)}-tuple")
        existing.add(tup)

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
                    raise ArityMismatch(f"relation {relation} holds {mine}-tuples, got {theirs}-tuple")
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
        texts = _Texts(format_value)
        chunks: list[str] = []
        for relation in sorted(self.relations):
            chunks += _lines(self.relations[relation], texts, relation + "(", ", ", ").")
        return "".join(chunks)

    @classmethod
    def from_dl_text(cls, text: str, path: str | Path | None = None) -> "Database":
        """Parse fact lines; with a path, a bad line's error starts with
        ``path:line:``."""
        db = cls()
        # split on "\n" only: escaped symbols never contain real newlines,
        # but they may contain unicode separators that splitlines() honors
        for lineno, raw in enumerate(text.split("\n"), 1):
            line = raw.strip()
            if not line or line.startswith("//"):
                continue
            try:
                db.add_fact(parse_fact_line(line))
            except (MalformedFact, ArityMismatch) as exc:
                if path is None:
                    raise
                raise type(exc)(f"{path}:{lineno}: {exc}") from None
        return db

    # -- per-relation .facts files (tab separated) ---------------------------

    def write_facts_dir(self, directory: str | Path) -> list[Path]:
        """Write one sorted <relation>.facts file per relation.

        Reading could not give back a cell holding a tab, a newline or a
        carriage return (which reading folds into a newline), nor a row that
        would be an empty line (which reading skips), so those raise
        FactlogError before any file is written.
        """
        unwritable = []

        def cell(value: str | int) -> str:
            text = str(value)
            if "\t" in text or "\n" in text or "\r" in text:
                unwritable.append(text)
            return text

        cells = _Texts(cell)
        texts = {}
        for relation in sorted(self.relations):
            rows = self.relations[relation]
            texts[relation] = "".join(_lines(rows, cells, "", "\t", ""))
            # each value is checked when first seen, so a flagged one is here
            if unwritable or () in rows or ("",) in rows:
                self._raise_unwritable(relation)
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for relation, text in texts.items():
            path = directory / f"{relation}.facts"
            path.write_text(text, encoding="utf-8")
            written.append(path)
        return written

    def _raise_unwritable(self, relation: str) -> None:
        """Raise for the first row of the relation, in sorted order, that
        reading the tab-separated text could not give back."""
        for tup in self.sorted_tuples(relation):
            for v in tup:
                cell = str(v)
                if "\t" in cell or "\n" in cell or "\r" in cell:
                    raise FactlogError(
                        f"symbol {cell!r} in {relation} cannot be written tab-separated; "
                        "use the dl format"
                    )
            if tup in ((), ("",)):
                raise FactlogError(
                    f"tuple {tup!r} in {relation} would be an empty line tab-separated; "
                    "use the dl format"
                )

    @classmethod
    def from_facts_dir(
        cls, directory: str | Path, column_types: dict[str, tuple[str | None, ...]] | None = None
    ) -> "Database":
        """Read every <relation>.facts file in a directory.

        column_types maps relation name to 'symbol'/'number' markers (None to
        infer); columns without a marker are read as integers when every
        character fits, symbols otherwise.
        """
        db = cls()
        directory = Path(directory)
        for path in sorted(directory.glob("*.facts")):
            cls._read_facts_file(db, path, column_types)
        return db

    @classmethod
    def from_facts_file(
        cls, path: str | Path, column_types: dict[str, tuple[str | None, ...]] | None = None
    ) -> "Database":
        """Read one <relation>.facts file (relation named after the file)."""
        db = cls()
        cls._read_facts_file(db, Path(path), column_types)
        return db

    @staticmethod
    def _read_facts_file(
        db: "Database", path: Path, column_types: dict[str, tuple[str | None, ...]] | None
    ) -> None:
        relation = path.stem
        db.relations.setdefault(relation, set())  # an empty file still names its relation
        types = (column_types or {}).get(relation)
        # "\n" only, as in from_dl_text: a symbol may hold "\f" or U+2028
        for lineno, raw in enumerate(read_text(path).split("\n"), 1):
            if raw == "":
                continue
            cells = raw.split("\t")
            values: list[str | int] = []
            for idx, cell in enumerate(cells):
                declared = types[idx] if types is not None and idx < len(types) else None
                if declared == "number":
                    try:
                        values.append(int(cell))
                    except ValueError:
                        raise MalformedFact(
                            f"{path}:{lineno}: column {idx + 1} of {relation!r} "
                            f"should be a number, got {cell!r}"
                        ) from None
                elif declared == "symbol":
                    values.append(sys.intern(cell))
                elif _INT_TOKEN_RE.match(cell):
                    values.append(int(cell))
                else:
                    values.append(sys.intern(cell))
            try:
                db.add(relation, tuple(values))
            except ArityMismatch as exc:
                raise ArityMismatch(f"{path}:{lineno}: {exc}") from None
