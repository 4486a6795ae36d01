"""Per-relation ``<name>.facts`` files: tab-separated columns, unquoted symbols.

This is the layout Datalog engines such as Souffle consume.  Only ``.facts``
inputs and ``--format tsv`` outputs use it, so ``Database.from_facts_dir``,
``from_facts_file`` and ``write_facts_dir`` import this module when they are
called, and a run over ``.dl`` text never compiles it.  The writer shares the
``.dl`` writer's order and its one formatting of each distinct value.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from .errors import ArityMismatch, FactlogError, MalformedFact, read_text
from .facts import Database, _lines, _Memo

_INT_TOKEN_RE = re.compile(r"-?\d+\Z")

ColumnTypes = dict[str, tuple[str | None, ...]]


def write_facts_dir(db: Database, directory: str | Path) -> list[Path]:
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

    cells = _Memo(cell)
    texts = {}
    for relation in sorted(db.relations):
        rows = db.relations[relation]
        texts[relation] = "".join(_lines(rows, cells, "", "\t", ""))
        # each value is checked when first seen, so a flagged one is here
        if unwritable or () in rows or ("",) in rows:
            _raise_unwritable(db, relation)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for relation, text in texts.items():
        path = directory / f"{relation}.facts"
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


def _raise_unwritable(db: Database, relation: str) -> None:
    """Raise for the first row of the relation, in sorted order, that
    reading the tab-separated text could not give back."""
    for tup in db.sorted_tuples(relation):
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


def read_facts_dir(db: Database, directory: str | Path, column_types: ColumnTypes | None) -> Database:
    """Add every <relation>.facts file in a directory to db, and return it.

    column_types maps relation name to 'symbol'/'number' markers (None to
    infer); columns without a marker are read as integers when every
    character fits, symbols otherwise.
    """
    for path in sorted(Path(directory).glob("*.facts")):
        read_facts_file(db, path, column_types)
    return db


def read_facts_file(db: Database, path: str | Path, column_types: ColumnTypes | None) -> Database:
    """Add one <relation>.facts file (relation named after the file) to db,
    and return it."""
    path = Path(path)
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
    return db
