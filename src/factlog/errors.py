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
