"""Language definitions and comment/string-aware classification of source text.

A LanguageDefinition is a small lexical profile: how comments start and stop,
how strings are quoted and escaped, and which characters pair up as brackets.
classify() scans text plus a profile once and returns a SourceMap of what
the scan recorded as it found each region: the partition of the offsets
into code, comment, string body and string delimiter, spelled out as one
character per offset (kinds), the brackets in code, and the unit table.
The brackets are then paired once for both bracket rules: groups pair by
kind, so a mismatched close or an open without a partner is plain text,
while $name* and ... take any close as closing any open.  The unit table
maps the start of every identifier run in code, every group and every
whole string literal to its end; an expression hole binds a chain of
adjoining units, and the matcher walks that chain forward and back through
the table instead of deciding what a unit is.  Template matching builds on
these tables, so a ')' inside "a )" or /* ) */ never confuses it and no
group is scanned twice, and it asks every region question of the kinds
string: an index, a slice test or one regex match.

Definitions for go, c, zig, and the toy arithmetic language are registered at
import time.  Additional languages can be registered programmatically or
loaded from an INI-style config file (see load_language_file).
"""

from __future__ import annotations

import bisect
import re
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple, Sequence

from .errors import LanguageError, read_ini


class Region(Enum):
    """Classification of a source offset."""

    CODE = "code"
    COMMENT = "comment"
    STRING_BODY = "string_body"
    STRING_DELIMITER = "string_delimiter"


DEFAULT_BALANCED_PAIRS = (("(", ")"), ("[", "]"), ("{", "}"))


class _LanguageFields(NamedTuple):
    name: str
    line_comment_prefixes: tuple[str, ...] = ()
    block_comment_pairs: tuple[tuple[str, str], ...] = ()
    string_delimiters: tuple[tuple[str, str, str | None], ...] = ()
    balanced_pairs: tuple[tuple[str, str], ...] = DEFAULT_BALANCED_PAIRS
    identifier_extra: str = "_."
    value_prefix_chars: str = ""
    nest_block_comments: bool = False


class LanguageDefinition(_LanguageFields):
    """Lexical profile of one language.

    Attributes:
        name: registry key, lower case by convention.
        line_comment_prefixes: each starts a comment that runs to end of line
            (the newline itself stays code).
        block_comment_pairs: (open, close) pairs; the delimiters are part of
            the comment region.
        string_delimiters: (open, close, escape) triples; escape may be None
            for raw strings.  Open and close delimiters are classified as
            STRING_DELIMITER, the contents as STRING_BODY.
        balanced_pairs: single-character (open, close) pairs used by balance
            scanning and expression holes.
        identifier_extra: characters that count as identifier constituents in
            addition to alphanumerics ('.' keeps qualified names together).
        value_prefix_chars: characters allowed as a unary prefix of one
            expression-hole unit ('*' lets go bind pointer types whole).
        nest_block_comments: whether block comments nest.
    """

    __slots__ = ()

    # A NamedTuple body cannot define __new__, so the fields live in a base
    # class and the checks run here, for every construction and unpickling.
    def __new__(cls, *args, **kwargs) -> LanguageDefinition:
        self = super().__new__(cls, *args, **kwargs)
        if not self.name:
            raise LanguageError("language name must be nonempty")
        for open_, close in self.balanced_pairs:
            if len(open_) != 1 or len(close) != 1:
                raise LanguageError(f"{self.name}: balanced delimiters must be single characters")
            if open_ == close:
                raise LanguageError(f"{self.name}: balanced pair {open_!r} has identical open and close")
        _check_prefix_free(self.name, "line comment", self.line_comment_prefixes)
        _check_prefix_free(self.name, "block comment", tuple(o for o, _ in self.block_comment_pairs))
        _check_prefix_free(self.name, "string", tuple(o for o, _, _ in self.string_delimiters))
        for open_, close, escape in self.string_delimiters:
            if not open_ or not close:
                raise LanguageError(f"{self.name}: string delimiters must be nonempty")
            if escape is not None and len(escape) != 1:
                raise LanguageError(f"{self.name}: string escape must be a single character")
        return self

    def is_identifier_char(self, ch: str) -> bool:
        """True when ch may appear inside an identifier."""
        return ch.isalnum() or ch in self.identifier_extra

    @property
    def open_chars(self) -> str:
        return "".join(o for o, _ in self.balanced_pairs)

    @property
    def close_chars(self) -> str:
        return "".join(c for _, c in self.balanced_pairs)


def _check_prefix_free(lang: str, what: str, openers: tuple[str, ...]) -> None:
    # A prefix collision would make the scanner order-dependent.
    for a in openers:
        if not a:
            raise LanguageError(f"{lang}: empty {what} delimiter")
        for b in openers:
            if a is not b and b.startswith(a):
                raise LanguageError(f"{lang}: {what} delimiter {a!r} is a prefix of {b!r}")


class SourceMap:
    """Source text plus the tables classify recorded for it, and its line
    table, built on first read.

    intervals is the partition as (start, end, Region) triples in source
    order.  kinds spells it out as one ASCII character per offset: "c" code,
    "w" whitespace in code (exactly str.isspace), "#" comment, "s" string
    body, "d" the first character of a string delimiter and "e" the rest of
    one, so adjoining delimiters (the two of "") stay apart.
    brackets holds the offset of every bracket in code; group_ends and
    any_close pair them, one table per bracket rule (see _pair_brackets),
    and group_opens lists the keys of group_ends in order.
    unit_ends maps the start of every unit an expression hole chains to its
    end: each identifier run in code, each group that pairs by kind, and
    each string literal, from its open delimiter to after its close, or to
    the end of the source when it is unterminated.  Where a group opens at
    the start of an identifier run (an identifier_extra that holds a
    bracket), the run is the unit.  Unless a close is an identifier
    character, no two units end at the same offset, so {end: start} is its
    exact inverse.
    candidate_tables holds the offsets where a template's match may start,
    one sorted table per candidate strategy and key, each built by the
    matcher on first use, so templates that share a key share its table.
    """

    def __init__(
        self,
        source: str,
        language: LanguageDefinition,
        intervals: list[tuple[int, int, Region]],
        warnings: list[str],
        kinds: str,
        brackets: list[int],
        any_close: list[int],
        group_ends: dict[int, int],
        unit_ends: dict[int, int],
    ) -> None:
        self.source = source
        self.language = language
        self.intervals = intervals
        self.warnings = warnings
        self.kinds = kinds
        self.brackets = brackets
        self.any_close = any_close
        self.group_ends = group_ends
        self.group_opens = sorted(group_ends)
        self.unit_ends = unit_ends
        self.candidate_tables: dict[tuple[str, str], Sequence[int]] = {}

    def depth_zero_extent(self, pos: int, hi: int) -> int:
        """The first close in [pos, hi) that no open at or after pos takes
        under the any-close rule, or hi; each group costs one step."""
        brackets, any_close = self.brackets, self.any_close
        j = bisect.bisect_left(brackets, pos)
        while j < len(brackets) and brackets[j] < hi:
            if any_close[j] < 0:
                return brackets[j]
            j = any_close[j] + 1
        return hi

    def region_at(self, offset: int) -> Region:
        """Region kind of the character at offset."""
        if not 0 <= offset < len(self.kinds):
            raise IndexError(f"offset {offset} out of range")
        return _KIND_REGIONS[self.kinds[offset]]

    @cached_property
    def line_starts(self) -> list[int]:
        """The offset where each line starts: the line of an offset is
        bisect_right(line_starts, offset).  Built on first read, so a run
        that reads no position never builds it."""
        return _line_start_table(self.source)

    def line_col(self, offset: int) -> tuple[int, int]:
        """1-based line and column; offset == len(source) is the end position."""
        if not 0 <= offset <= len(self.source):
            raise IndexError(f"offset {offset} out of range")
        starts = self.line_starts
        line = bisect.bisect_right(starts, offset)
        return line, offset - starts[line - 1] + 1

    def line_of(self, offset: int) -> int:
        return self.line_col(offset)[0]

    def line_count(self) -> int:
        """Number of physical newlines in the source."""
        return self.source.count("\n")


_KIND_REGIONS = {
    "c": Region.CODE,
    "w": Region.CODE,
    "#": Region.COMMENT,
    "s": Region.STRING_BODY,
    "d": Region.STRING_DELIMITER,
    "e": Region.STRING_DELIMITER,
}


class _CodeKinds(dict):
    """str.translate table for code: "w" for whitespace, "c" for anything
    else.  Only ASCII is kept, so the table never grows past 128 entries."""

    def __missing__(self, code: int) -> str:
        kind = "w" if chr(code).isspace() else "c"
        if code < 128:
            self[code] = kind
        return kind


_CODE_KINDS = _CodeKinds()


def _line_start_table(source: str) -> list[int]:
    # each line but the last starts one past the end of the one before it
    return list(accumulate(map((1).__add__, map(len, source.split("\n")[:-1])), initial=0))


# ---------------------------------------------------------------------------
# Classification


@lru_cache(maxsize=128)
def _scan_plan(lang: LanguageDefinition):
    """What classify searches for: a pattern over all comment and string
    openers with its dispatch table, a pattern for one bracket, one for an
    identifier run, and each open's close.  A pattern with nothing to find
    never matches."""
    table: dict[str, tuple[str, object]] = {}
    for prefix in lang.line_comment_prefixes:
        table[prefix] = ("line", None)
    for open_, close in lang.block_comment_pairs:
        table[open_] = ("block", close)
    for open_, close, escape in lang.string_delimiters:
        table[open_] = ("string", (close, escape))
    # Longest first so '//' wins over a hypothetical '/'.
    alts = sorted(table, key=len, reverse=True)
    openers = "|".join(re.escape(a) for a in alts) or "(?!)"
    bracket = f"[{char_class(lang.open_chars + lang.close_chars)}]" if lang.balanced_pairs else "(?!)"
    run = identifier_char_re(lang) + "+"
    return re.compile(openers), table, re.compile(bracket), re.compile(run), dict(lang.balanced_pairs)


def classify(source: str, lang: LanguageDefinition) -> SourceMap:
    """Partition source into code/comment/string regions, and record the
    kinds, the brackets in code and the units as each region is found.

    Lenient: an unterminated string or block comment extends to end of input
    and adds a warning instead of failing.
    """
    openers, table, bracket_re, run_re, open_to_close = _scan_plan(lang)
    intervals: list[tuple[int, int, Region]] = []
    warnings: list[str] = []
    kinds: list[str] = []
    brackets: list[int] = []
    units: dict[int, int] = {}  # identifier runs and string literals
    n = len(source)
    pos = 0
    while pos < n:
        m = openers.search(source, pos)
        start = n if m is None else m.start()
        if start > pos:
            intervals.append((pos, start, Region.CODE))
            # per region: translate leaves its ASCII fast path at the first
            # character that is not ASCII
            kinds.append(source[pos:start].translate(_CODE_KINDS))
            brackets += map(re.Match.start, bracket_re.finditer(source, pos, start))
            units.update(map(re.Match.span, run_re.finditer(source, pos, start)))
        if m is None:
            break
        tok = m.group(0)
        kind, aux = table[tok]
        if kind == "string":
            close, escape = aux
            body_start = start + len(tok)
            body_end, close_end = _string_end(source, body_start, close, escape)
            intervals.append((start, body_start, Region.STRING_DELIMITER))
            kinds += ("d", "e" * (len(tok) - 1), "s" * (body_end - body_start))
            if body_end > body_start:
                intervals.append((body_start, body_end, Region.STRING_BODY))
            if close_end is None:
                warnings.append(f"unterminated string starting at offset {start}")
                close_end = n
            else:
                intervals.append((body_end, close_end, Region.STRING_DELIMITER))
                kinds += ("d", "e" * (close_end - body_end - 1))
            units[start] = pos = close_end
            continue
        if kind == "line":
            end = source.find("\n", start)
            end = n if end == -1 else end  # newline stays code
        else:
            end = _block_comment_end(source, start + len(tok), tok, aux, lang.nest_block_comments)
            if end is None:
                warnings.append(f"unterminated block comment starting at offset {start}")
                end = n
        intervals.append((start, end, Region.COMMENT))
        kinds.append("#" * (end - start))
        pos = end
    group_ends, any_close = _pair_brackets(source, open_to_close, brackets)
    # a run keeps its entry where a group opens at its start
    unit_ends = {**group_ends, **units}
    return SourceMap(source, lang, intervals, warnings, "".join(kinds), brackets, any_close, group_ends, unit_ends)


def _block_comment_end(source: str, pos: int, open_: str, close: str, nest: bool) -> int | None:
    if not nest:
        end = source.find(close, pos)
        return None if end == -1 else end + len(close)
    depth = 1
    n = len(source)
    while pos < n:
        nxt_open = source.find(open_, pos)
        nxt_close = source.find(close, pos)
        if nxt_close == -1:
            return None
        if nxt_open != -1 and nxt_open < nxt_close:
            depth += 1
            pos = nxt_open + len(open_)
        else:
            depth -= 1
            pos = nxt_close + len(close)
            if depth == 0:
                return pos
    return None


def _string_end(source: str, pos: int, close: str, escape: str | None) -> tuple[int, int | None]:
    """Return (body_end, close_end); close_end is None when unterminated."""
    if escape is None:
        end = source.find(close, pos)
    else:
        end = _string_body_re(close, escape).match(source, pos).end()
    if end == -1 or end == len(source):
        return len(source), None
    return end, end + len(close)


@lru_cache(maxsize=64)
def _string_body_re(close: str, escape: str) -> re.Pattern[str]:
    """A string body: runs of characters that neither escape nor may start
    the close, an escape with the character after it (an escaped character
    never ends the string; a lone escape at the end of the input ends the
    body there), and a first close character where the close does not
    follow.  It stops only at the close or at the end of the input."""
    first = close[0]
    return re.compile(
        rf"(?:[^{char_class(escape + first)}]+|{re.escape(escape)}[\s\S]?|(?!{re.escape(close)}){re.escape(first)})*"
    )


# ---------------------------------------------------------------------------
# Bracket pairing and identifier characters


def _pair_brackets(source: str, open_to_close: dict[str, str], offsets: list[int]) -> tuple[dict[int, int], list[int]]:
    """Both bracket rules for the brackets at offsets, from one pass over them.

    group_ends maps each open that pairs by kind to one past its close.  A
    close that does not match the innermost open is plain text; an open
    still on the stack at the end has no partner.  While an open is on the
    stack each step sees the same top that a scan started at that open would
    see, so its recorded partner is exactly where such a scan stops.

    any_close holds the index in offsets of the close that takes each open
    when any close closes any open (-1 for a close, len(offsets) for an open
    no close takes).  A depth counter from any start finds the same partner,
    so a walk jumps a group in one step.
    """
    ends: dict[int, int] = {}
    any_close = [-1] * len(offsets)
    stack: list[tuple[str, int]] = []  # (expected close, open offset)
    any_stack: list[int] = []  # indices of the opens no close has taken yet
    for i, p in enumerate(offsets):
        ch = source[p]
        close = open_to_close.get(ch)
        if close is not None:
            stack.append((close, p))
            any_stack.append(i)
        else:
            if any_stack:
                any_close[any_stack.pop()] = i
            if stack and stack[-1][0] == ch:
                ends[stack.pop()[1]] = p + 1
    for i in any_stack:
        any_close[i] = len(offsets)
    return ends, any_close


def char_class(chars: str) -> str:
    """The body of a regex character class holding exactly chars."""
    return "".join(re.escape(c) for c in sorted(set(chars)))


def identifier_char_re(lang: LanguageDefinition) -> str:
    """Pattern for exactly one character that is_identifier_char accepts."""
    extra = char_class(lang.identifier_extra.replace("_", ""))
    if "_" in lang.identifier_extra:
        return rf"[\w{extra}]"
    return rf"(?:[^\W_]|[{extra}])" if extra else r"[^\W_]"


# ---------------------------------------------------------------------------
# Registry

_REGISTRY: dict[str, LanguageDefinition] = {}


def register_language(lang: LanguageDefinition, replace: bool = False) -> None:
    """Add a definition to the registry; replace guards accidental overrides."""
    if lang.name in _REGISTRY and not replace:
        raise LanguageError(f"language {lang.name!r} is already registered")
    _REGISTRY[lang.name] = lang


def get_language(name: str) -> LanguageDefinition:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise LanguageError(f"unknown language {name!r} (known: {known})") from None


def language_names() -> list[str]:
    return sorted(_REGISTRY)


GO = LanguageDefinition(
    name="go",
    line_comment_prefixes=("//",),
    block_comment_pairs=(("/*", "*/"),),
    string_delimiters=(('"', '"', "\\"), ("`", "`", None), ("'", "'", "\\")),
    identifier_extra="_.",
    value_prefix_chars="*",
)

C = LanguageDefinition(
    name="c",
    line_comment_prefixes=("//",),
    block_comment_pairs=(("/*", "*/"),),
    string_delimiters=(('"', '"', "\\"), ("'", "'", "\\")),
    identifier_extra="_.",
)

ZIG = LanguageDefinition(
    name="zig",
    line_comment_prefixes=("//",),
    string_delimiters=(('"', '"', "\\"), ("'", "'", "\\")),
    identifier_extra="_.",
    value_prefix_chars="!?*@",
)

ARITH = LanguageDefinition(name="arith", identifier_extra="_")

for _lang in (GO, C, ZIG, ARITH):
    register_language(_lang)


# ---------------------------------------------------------------------------
# Config file loading

_CONFIG_KEYS = {
    "line_comments",
    "block_comments",
    "strings",
    "balanced",
    "identifier_extra",
    "value_prefix",
    "nest_block_comments",
}


def load_language_file(path: str) -> list[LanguageDefinition]:
    """Load language definitions from an INI file, one section per language.

    Keys (all optional): line_comments (whitespace-separated prefixes),
    block_comments and strings (comma-separated groups of whitespace-separated
    tokens: "open close" and "open close [escape]"), balanced (two-character
    "()" tokens), identifier_extra, value_prefix, nest_block_comments.
    The file is read by ``errors.read_ini``: ``%`` is a plain character,
    and a ``[DEFAULT]`` section defines a language named DEFAULT.
    """
    try:
        sections = read_ini(path, LanguageError)
    except OSError:
        raise LanguageError(f"cannot read language config {path!r}") from None
    out = []
    for section, raw in sections.items():
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise LanguageError(f"{path}: [{section}] has unknown keys {sorted(unknown)}")
        blocks = []
        for group in _groups(raw.get("block_comments", "")):
            if len(group) != 2:
                raise LanguageError(f"{path}: [{section}] block comment group needs 'open close'")
            blocks.append((group[0], group[1]))
        strings = []
        for group in _groups(raw.get("strings", "")):
            if len(group) == 2:
                strings.append((group[0], group[1], None))
            elif len(group) == 3:
                strings.append((group[0], group[1], group[2]))
            else:
                raise LanguageError(f"{path}: [{section}] string group needs 'open close [escape]'")
        pairs = []
        for tok in raw.get("balanced", "").split():
            if len(tok) != 2:
                raise LanguageError(f"{path}: [{section}] balanced token {tok!r} needs two characters")
            pairs.append((tok[0], tok[1]))
        lang = LanguageDefinition(
            name=section,
            line_comment_prefixes=tuple(raw.get("line_comments", "").split()),
            block_comment_pairs=tuple(blocks),
            string_delimiters=tuple(strings),
            balanced_pairs=tuple(pairs) if pairs else DEFAULT_BALANCED_PAIRS,
            identifier_extra=raw.get("identifier_extra", "_."),
            value_prefix_chars=raw.get("value_prefix", ""),
            nest_block_comments=raw.get("nest_block_comments", "false").lower() in ("1", "true", "yes"),
        )
        register_language(lang, replace=True)
        out.append(lang)
    return out


def _groups(value: str) -> list[list[str]]:
    return [group.split() for group in value.split(",") if group.strip()]
