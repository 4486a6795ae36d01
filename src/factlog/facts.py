"""Ground facts and fact databases, with text and tab-separated serialization.

A fact line looks like ``edge("incr", "one").`` or ``next(1, 2).``: arguments
are double-quoted symbols (backslash escapes for the quote and the backslash)
or signed integers.  A Database maps relation names to sets of ground tuples;
serialization is always sorted so equal databases produce identical bytes.

Two on-disk formats are supported: a single ``.dl`` text of fact lines, and a
directory of per-relation ``<name>.facts`` files with tab-separated columns
and unquoted symbols (the layout Datalog engines such as Souffle consume).
"""

from __future__ import annotations

import re
import sys
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import ArityMismatch, FactlogError, MalformedFact, read_text

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


# \n, \r, and \t decode to control characters; any other \x folds to x
DECODE_ESCAPES = {"n": "\n", "r": "\r", "t": "\t"}
_ENCODE_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_QUOTED_RE = re.compile(r'"((?:[^"\\]|\\.)*)"', re.DOTALL)


def decode_symbol(body: str) -> str:
    """The interned symbol that a quoted body (without its quotes) spells.

    Fact lines and Datalog programs share this decoder, so a written
    database re-parses losslessly either way.
    """
    if "\\" in body:
        body = _ESCAPE_RE.sub(lambda m: DECODE_ESCAPES.get(m[1], m[1]), body)
    return sys.intern(body)


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


def _tuple_key(tup: tuple[str | int, ...]):
    # Stable order even if a column mixes symbols and integers.
    return tuple((0, v, "") if isinstance(v, int) else (1, 0, v) for v in tup)


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
        rows = list(self.tuples(relation))
        try:
            # One stable sort per column, last column first, orders the rows
            # as comparing whole tuples would, and faster.
            for column in reversed(range(len(rows[0]) if rows else 0)):
                rows.sort(key=itemgetter(column))
        except TypeError:
            # A column mixes symbols and integers: sorting it compares an
            # integer with a symbol, and only there does comparison raise.
            # Comparing whole tuples could order such rows without meeting
            # that pair, and then agreed with _tuple_key (the tuples are
            # distinct, so there are no ties); so _tuple_key gives the order.
            rows.sort(key=_tuple_key)
        return rows

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
        text: dict[str | int, str] = {}  # each distinct value formatted once
        lines: list[str] = []
        for relation in sorted(self.relations):
            for tup in self.sorted_tuples(relation):
                args = []
                for v in tup:
                    s = text.get(v)
                    if s is None:
                        s = text[v] = format_value(v)
                    args.append(s)
                lines.append(f"{relation}({', '.join(args)}).")
        return "\n".join(lines) + ("\n" if lines else "")

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
        texts = {}
        for relation in sorted(self.relations):
            rows = []
            for tup in self.sorted_tuples(relation):
                cells = []
                for v in tup:
                    cell = str(v)
                    if "\t" in cell or "\n" in cell or "\r" in cell:
                        raise FactlogError(
                            f"symbol {cell!r} in {relation} cannot be written tab-separated; "
                            "use the dl format"
                        )
                    cells.append(cell)
                row = "\t".join(cells)
                if not row:
                    raise FactlogError(
                        f"tuple {tup!r} in {relation} would be an empty line tab-separated; "
                        "use the dl format"
                    )
                rows.append(row)
            texts[relation] = "\n".join(rows) + ("\n" if rows else "")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for relation, text in texts.items():
            path = directory / f"{relation}.facts"
            path.write_text(text, encoding="utf-8")
            written.append(path)
        return written

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
