"""Exception types shared across the pipeline, and the reader of text inputs.

Every error raised on purpose derives from FactlogError so the command line
front end can map failures to exit codes without matching on strings.
"""

from __future__ import annotations

from pathlib import Path


class FactlogError(Exception):
    """Base class for all deliberate pipeline errors."""


class LanguageError(FactlogError):
    """A language definition is malformed or unknown."""


class MalformedHole(FactlogError):
    """A template contains a '$' that does not introduce a valid hole."""


class DuplicateHoleName(FactlogError):
    """The same hole name is bound twice in one template."""


class UnboundHole(FactlogError):
    """A substitution, condition, or rewrite names a hole with no binding."""


class MalformedFact(FactlogError):
    """A produced fact line does not parse as relation(args...)."""


class SpecFormatError(FactlogError):
    """A fact spec file or rewrite rule does not follow the expected layout."""


class DatalogError(FactlogError):
    """Base class for Datalog program errors."""


class DatalogSyntaxError(DatalogError):
    """Source text of a Datalog program failed to parse."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class ArityMismatch(DatalogError):
    """A relation is used with inconsistent arity or against its declaration."""


class UnsafeRule(DatalogError):
    """A rule violates range restriction or negation safety."""


class UnstratifiableProgram(DatalogError):
    """Negation occurs inside a recursive component; no stratification exists."""


class TypeMismatch(DatalogError):
    """An input tuple does not conform to the relation's declared column types."""


class UnknownRelation(DatalogError):
    """A query or lookup names a relation absent from the database."""


def in_file(exc: FactlogError, path: str | Path) -> FactlogError:
    """The error, its message now prefixed with the file it came from.  Its
    class, and so the exit code, stays the same."""
    exc.args = (f"{path}: {exc}",)
    return exc


def read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file (a spec, program, fact file or
    config).  Bytes that do not decode are an input error that names the
    file and line, not a UnicodeDecodeError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise FactlogError(f"{path}:{line}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_ini(path: str | Path, error: type[FactlogError]) -> dict[str, dict[str, str]]:
    """The sections of an INI file (a ``preset.cfg`` or a language file),
    in file order, each a dict of its keys and values.

    A ``[name]`` line opens a section.  ``key = value`` or ``key: value``
    sets a key: the first ``=`` or ``:`` ends it, and it is lower-cased.  A
    line indented deeper than its key line continues the value, joined to
    it with a newline.  Blank lines, and lines whose first character other
    than a blank is ``#`` or ``;``, are skipped, also inside a continued
    value.  Nothing is interpolated, so ``%`` is a plain character, and
    ``[DEFAULT]`` is a section like any other.  A line before the first
    section, a line that is none of these, and a section or key given twice
    raise ``error``, naming ``path:line:``.
    """
    sections: dict[str, dict[str, str]] = {}
    section: dict[str, str] | None = None
    key = None
    key_indent = 0
    for number, line in enumerate(read_text(path).split("\n"), 1):
        text = line.strip()
        if not text or text[0] in "#;":
            continue
        indent = len(line) - len(line.lstrip())
        if key is not None and indent > key_indent:
            section[key] += "\n" + text
            continue
        key = None
        if text[0] == "[" and text[-1] == "]" and text[1:-1].strip():
            name = text[1:-1].strip()
            if name in sections:
                raise error(f"{path}:{number}: section [{name}] given twice")
            section = sections[name] = {}
            continue
        if section is None:
            raise error(f"{path}:{number}: File contains no section headers: {text!r} comes before any [section]")
        cut = min((i for i in (text.find("="), text.find(":")) if i >= 0), default=0)
        if cut == 0:
            raise error(f"{path}:{number}: expected '[section]', 'key = value' or 'key: value', got {text!r}")
        key = text[:cut].rstrip().lower()
        if key in section:
            raise error(f"{path}:{number}: key {key!r} given twice in [{name}]")
        section[key] = text[cut + 1 :].strip()
        key_indent = indent
    return sections
