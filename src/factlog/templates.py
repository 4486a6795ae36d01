"""Match templates with typed metavariable holes, and the matching engine.

A template is literal source text interspersed with holes:

    $name    expression hole: one identifier or balanced group, extended over
             directly adjoining segments (so ``one()`` or ``fmt.Printf(...)``
             bind as a single value); never crosses whitespace
    $name*   everything hole: lazily binds anything, including whitespace and
             comments, up to the next literal atom at balance depth zero
    $name?   optional hole: binds like an expression hole, or empty when the
             next literal atom already follows (one atom of lookahead)
    "$name"  string-body hole: binds the body of one well-delimited string
    ...      anonymous hole: everything semantics, records no binding

Matching is comment/string aware via SourceMap regions: literal template text
never matches inside a comment, template whitespace matches runs of source
whitespace and comments, and balance scanning ignores delimiters inside
strings.  Matches are found by a non-overlapping leftmost scan.

Balanced groups (an expression-hole unit, a level of the nested descent) come
from the SourceMap's bracket table, where a mismatched close is plain text,
while the depth counter behind $name* and ... takes any close as closing any
open, so ``$c(...)`` finds no match in ``f(a]) x`` and ``{$b*}`` matches
``{ ( ] }``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, Union

from .errors import DuplicateHoleName, MalformedHole, UnboundHole
from .languages import LanguageDefinition, Region, SourceMap


class HoleKind(Enum):
    EXPRESSION = "expression"
    EVERYTHING = "everything"
    OPTIONAL = "optional"
    STRING_BODY = "string_body"
    ANONYMOUS = "anonymous"


class Property(Enum):
    """Hole property referenced by rewrite templates ($x, $x.line, $x.column)."""

    VALUE = "value"
    LINE = "line"
    COLUMN = "column"


@dataclass(frozen=True)
class Literal:
    text: str


@dataclass(frozen=True)
class Hole:
    name: str | None
    kind: HoleKind


Atom = Union[Literal, Hole]


@dataclass(frozen=True)
class Template:
    """Parsed template: original text plus its atom sequence."""

    text: str
    atoms: tuple[Atom, ...]

    def hole_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.atoms if isinstance(a, Hole) and a.name)


_HOLE_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def parse_template(text: str) -> Template:
    """Parse template text into atoms; language independent."""
    atoms: list[Atom] = []
    lit: list[str] = []
    seen: set[str] = set()

    def flush() -> None:
        if lit:
            atoms.append(Literal("".join(lit)))
            lit.clear()

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if text.startswith("...", i):
            flush()
            atoms.append(Hole(None, HoleKind.ANONYMOUS))
            i += 3
            continue
        if ch != "$":
            lit.append(ch)
            i += 1
            continue
        m = _HOLE_NAME_RE.match(text, i + 1)
        if m is None:
            raise MalformedHole(f"'$' at offset {i} is not followed by a hole name")
        name = m.group(0)
        j = m.end()
        kind = HoleKind.EXPRESSION
        if j < n and text[j] == "*":
            kind = HoleKind.EVERYTHING
            j += 1
        elif j < n and text[j] == "?":
            kind = HoleKind.OPTIONAL
            j += 1
        elif lit and lit[-1] == '"' and j < n and text[j] == '"':
            # "$x" binds the string body; the quotes stay literal atoms.
            kind = HoleKind.STRING_BODY
        if name in seen:
            raise DuplicateHoleName(f"hole ${name} is bound more than once")
        seen.add(name)
        flush()
        atoms.append(Hole(name, kind))
        i = j
    flush()
    return Template(text, tuple(atoms))


# ---------------------------------------------------------------------------
# Bindings and matches


@dataclass(frozen=True)
class Binding:
    """One hole's bound span.  text equals the source slice for matcher
    output; rewrite rules may rebind with synthesized text."""

    text: str
    start: int
    end: int
    line: int
    column: int


@dataclass(frozen=True)
class MatchEnvironment:
    bindings: dict[str, Binding]

    def __contains__(self, name: str) -> bool:
        return name in self.bindings

    def __getitem__(self, name: str) -> Binding:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundHole(f"hole ${name} is not bound") from None


@dataclass(frozen=True)
class Match:
    start: int
    end: int
    env: MatchEnvironment


# ---------------------------------------------------------------------------
# Compilation: literal pieces and candidate strategies


@dataclass(frozen=True)
class _Piece:
    ws: bool
    text: str
    ident_first: bool
    ident_last: bool


def _split_literal(text: str, lang: LanguageDefinition) -> tuple[_Piece, ...]:
    pieces = []
    for part in re.findall(r"\s+|\S+", text):
        if part[0].isspace():
            pieces.append(_Piece(True, part, False, False))
        else:
            pieces.append(
                _Piece(False, part, lang.is_identifier_char(part[0]), lang.is_identifier_char(part[-1]))
            )
    return tuple(pieces)


def _char_class(chars: str) -> str:
    return "".join(re.escape(c) for c in sorted(set(chars)))


@lru_cache(maxsize=256)
def _unit_start_re(lang: LanguageDefinition) -> re.Pattern[str]:
    """Positions where an expression-hole unit may begin, left-maximal."""
    ident = _char_class(lang.identifier_extra)
    starts = _char_class(lang.value_prefix_chars + lang.open_chars + "".join(o for o, _, _ in lang.string_delimiters))
    return re.compile(rf"(?<![\w{ident}])[\w{ident}{starts}]")


@lru_cache(maxsize=512)
def _compiled(template: Template, lang: LanguageDefinition):
    pieces: dict[int, tuple[_Piece, ...]] = {}
    for i, atom in enumerate(template.atoms):
        if isinstance(atom, Literal):
            pieces[i] = _split_literal(atom.text, lang)
    atoms = template.atoms
    if not atoms:
        strategy: tuple = ("none",)
    elif isinstance(atoms[0], Literal):
        chunk = next((p.text for p in pieces[0] if not p.ws), None)
        strategy = ("find", chunk) if chunk else ("scan",)
    elif atoms[0].kind in (HoleKind.EXPRESSION, HoleKind.OPTIONAL):
        strategy = ("regex", _unit_start_re(lang))
    else:
        strategy = ("scan",)
    return pieces, strategy


@lru_cache(maxsize=512)
def _event_re(lang: LanguageDefinition, anchor: str) -> re.Pattern[str]:
    """Open/close delimiters plus the anchor's first character (or ws)."""
    cls = _char_class(lang.open_chars + lang.close_chars)
    if anchor == " ":
        return re.compile(rf"[{cls}]|\s" if cls else r"\s")
    if anchor:
        cls = cls + _char_class(anchor)
    return re.compile(rf"[{cls}]") if cls else re.compile(r"(?!)")


# ---------------------------------------------------------------------------
# The matcher


class _Matcher:
    """Backtracking matcher for one template over one span of a SourceMap.

    next_candidate and match_at are the only entry points; iter_matches and
    iter_nested_matches are both loops over them.
    """

    def __init__(self, template: Template, smap: SourceMap, end: int):
        self.smap = smap
        self.src = smap.source
        self.lang = smap.language
        self.atoms = template.atoms
        self.pieces, self.strategy = _compiled(template, smap.language)
        self.end = end
        self.hi = end
        self.env: dict[str, tuple[int, int]] = {}
        self._opens = set(self.lang.open_chars)
        self._closes = set(self.lang.close_chars)
        self._string_opens = {o[0]: o for o, _, _ in self.lang.string_delimiters}

    def next_candidate(self, pos: int) -> int:
        """First offset at or after pos where a match may start, or the span end."""
        kind, end = self.strategy[0], self.end
        if pos >= end or kind == "none":
            return end
        if kind == "find":
            c = self.src.find(self.strategy[1], pos, end)
            return end if c == -1 else c
        if kind == "regex":
            m = self.strategy[1].search(self.src, pos, end)
            return end if m is None else m.start()
        return pos  # scan: every offset (rare templates)

    def match_at(self, start: int, hi: int) -> Match | None:
        """The nonempty match starting exactly at start and ending by hi, if any."""
        self.hi = hi
        self.env.clear()
        end = self._match_atoms(0, start, True)
        if end is None or end <= start:
            return None
        return self._build(start, end)

    def _build(self, start: int, end: int) -> Match:
        bindings = {}
        for name, (s, e) in self.env.items():
            line, col = self.smap.line_col(s)
            bindings[name] = Binding(self.src[s:e], s, e, line, col)
        return Match(start, end, MatchEnvironment(bindings))

    # -- atom dispatch -----------------------------------------------------

    def _match_atoms(self, i: int, pos: int, prev_empty: bool) -> int | None:
        atoms = self.atoms
        if i == len(atoms):
            return pos
        atom = atoms[i]
        if isinstance(atom, Literal):
            p2 = self._match_literal(i, pos, prev_empty)
            if p2 is None:
                return None
            return self._match_atoms(i + 1, p2, False)
        kind = atom.kind
        if kind is HoleKind.EXPRESSION:
            return self._match_expression(i, pos)
        if kind is HoleKind.OPTIONAL:
            return self._match_optional(i, pos)
        if kind is HoleKind.STRING_BODY:
            return self._match_string_body(i, pos)
        return self._match_everything(i, pos)

    # -- literals ----------------------------------------------------------

    def _match_literal(self, i: int, pos: int, prev_empty: bool) -> int | None:
        for idx, piece in enumerate(self.pieces[i]):
            if piece.ws:
                p2 = self._skip_ws_comments(pos)
                if p2 == pos and not (prev_empty and idx == 0):
                    return None
                pos = p2
            else:
                if not self._match_chunk(piece, pos):
                    return None
                pos += len(piece.text)
        return pos

    def _match_chunk(self, piece: _Piece, pos: int) -> bool:
        src = self.src
        end = pos + len(piece.text)
        if end > self.hi or not src.startswith(piece.text, pos):
            return False
        lang = self.lang
        if piece.ident_first and pos > 0 and lang.is_identifier_char(src[pos - 1]):
            return False
        if piece.ident_last and end < len(src) and lang.is_identifier_char(src[end]):
            return False
        return self._chunk_regions_ok(pos, end)

    def _chunk_regions_ok(self, start: int, end: int) -> bool:
        smap = self.smap
        idx = smap.interval_index(start)
        s, e, kind = smap.intervals[idx]
        if kind is Region.COMMENT or kind is Region.STRING_BODY:
            return False
        if kind is Region.STRING_DELIMITER and s != start:
            return False
        while e < end:
            idx += 1
            s, e, kind = smap.intervals[idx]
            if kind is Region.COMMENT:
                return False
        return True

    def _skip_ws_comments(self, pos: int) -> int:
        src, hi = self.src, self.hi
        smap = self.smap
        while pos < hi:
            s, e, kind = smap.interval_at(pos)
            if kind is Region.COMMENT:
                pos = min(e, hi)
                continue
            if kind is not Region.CODE:
                break
            stop = min(e, hi)
            while pos < stop and src[pos].isspace():
                pos += 1
            if pos < stop:
                break
        return pos

    # -- expression and optional holes ---------------------------------------

    def _unit_chain_ends(self, pos: int) -> list[int]:
        """Ends of successive adjoining units starting exactly at pos."""
        ends: list[int] = []
        src, hi, lang = self.src, self.hi, self.lang
        p = pos
        first = True
        while p < hi:
            s, e, kind = self.smap.interval_at(p)
            ch = src[p]
            if kind is Region.STRING_DELIMITER and s == p and ch in self._string_opens:
                end = self._string_unit_end(p)
                if end is None or end > hi:
                    break
                ends.append(end)
                p = end
                first = False
                continue
            if kind is not Region.CODE:
                break
            j = p
            if first:
                while j < hi and src[j] in lang.value_prefix_chars:
                    j += 1
            if j >= hi:
                break
            ch = src[j]
            if lang.is_identifier_char(ch):
                stop = min(e, hi)
                k = j
                while k < stop and lang.is_identifier_char(src[k]):
                    k += 1
                ends.append(k)
                p = k
            elif ch in self._opens and j == p:
                end = self.smap.group_ends.get(j)
                if end is None or end > hi:
                    break
                ends.append(end)
                p = end
            else:
                break
            first = False
        return ends

    def _string_unit_end(self, pos: int) -> int | None:
        """End offset of the whole string literal whose open delimiter starts at pos."""
        smap = self.smap
        idx = smap.interval_index(pos)
        intervals = smap.intervals
        # open delimiter, optional body, close delimiter
        s, e, kind = intervals[idx]
        if kind is not Region.STRING_DELIMITER:
            return None
        idx += 1
        if idx >= len(intervals):
            return e  # unterminated: delimiter only
        s2, e2, kind2 = intervals[idx]
        if kind2 is Region.STRING_BODY:
            idx += 1
            if idx >= len(intervals):
                return e2  # unterminated body
            s3, e3, kind3 = intervals[idx]
            if kind3 is Region.STRING_DELIMITER and s3 == e2:
                return e3
            return e2
        if kind2 is Region.STRING_DELIMITER and s2 == e:
            return e2
        return e

    def _left_maximal_ok(self, pos: int) -> bool:
        src, lang = self.src, self.lang
        ch = src[pos]
        if lang.is_identifier_char(ch) or ch in lang.value_prefix_chars:
            return pos == 0 or not lang.is_identifier_char(src[pos - 1])
        return True

    def _match_expression(self, i: int, pos: int) -> int | None:
        if pos >= self.hi or not self._left_maximal_ok(pos):
            return None
        ends = self._unit_chain_ends(pos)
        name = self.atoms[i].name
        for e in reversed(ends):  # greedy: longest adjoining chain first
            if name:
                self.env[name] = (pos, e)
            r = self._match_atoms(i + 1, e, False)
            if r is not None:
                return r
            if name:
                del self.env[name]
        return None

    def _match_optional(self, i: int, pos: int) -> int | None:
        atoms = self.atoms
        name = atoms[i].name
        nxt = atoms[i + 1] if i + 1 < len(atoms) else None
        empty_first = False
        if isinstance(nxt, Literal):
            empty_first = self._match_literal(i + 1, pos, True) is not None
        if not empty_first:
            r = self._match_expression(i, pos)
            if r is not None:
                return r
        if name:
            self.env[name] = (pos, pos)
        r = self._match_atoms(i + 1, pos, True)
        if r is not None:
            return r
        if name:
            del self.env[name]
        if empty_first:
            return self._match_expression(i, pos)
        return None

    # -- string-body holes ---------------------------------------------------

    def _match_string_body(self, i: int, pos: int) -> int | None:
        if pos >= self.hi:
            return None
        s, e, kind = self.smap.interval_at(pos)
        name = self.atoms[i].name
        if kind is Region.STRING_BODY and pos == s:
            if e > self.hi:
                return None
            end = e
        elif kind is Region.STRING_DELIMITER and pos == s:
            end = pos  # empty string body, sitting on the close delimiter
        else:
            return None
        if name:
            self.env[name] = (pos, end)
        r = self._match_atoms(i + 1, end, end == pos)
        if r is None and name:
            del self.env[name]
        return r

    # -- everything / anonymous holes ----------------------------------------

    def _match_everything(self, i: int, pos: int) -> int | None:
        atoms = self.atoms
        name = atoms[i].name
        nxt = atoms[i + 1] if i + 1 < len(atoms) else None
        if isinstance(nxt, Literal):
            first_piece = self.pieces[i + 1][0]
            anchor = " " if first_piece.ws else first_piece.text[0]
            return self._lazy_scan(i, pos, anchor)
        # No literal anchor: bind up to the window end or the enclosing close.
        stop = self._depth_zero_extent(pos)
        if name:
            self.env[name] = (pos, stop)
        r = self._match_atoms(i + 1, stop, stop == pos)
        if r is None and name:
            del self.env[name]
        return r

    def _lazy_scan(self, i: int, pos: int, anchor: str) -> int | None:
        src, hi = self.src, self.hi
        smap = self.smap
        name = self.atoms[i].name
        pat = _event_re(self.lang, anchor)
        opens, closes = self._opens, self._closes
        anchor_ws = anchor == " "
        depth = 0
        for s, e, kind in smap.intervals[smap.interval_index(pos) :]:
            if s >= hi:
                break
            if kind is not Region.CODE:
                # Strings and comments are opaque; the anchor may still start
                # exactly at a string delimiter (e.g. a literal '"').
                if kind is Region.STRING_DELIMITER and s >= pos and depth == 0 and (
                    anchor_ws or (s < hi and src[s] == anchor)
                ):
                    r = self._try_anchor(i, name, pos, s)
                    if r is not None:
                        return r
                continue
            lo = max(s, pos)
            for m in pat.finditer(src, lo, min(e, hi)):
                p = m.start()
                ch = m.group(0)
                if depth == 0 and (anchor_ws or ch == anchor):
                    r = self._try_anchor(i, name, pos, p)
                    if r is not None:
                        return r
                if ch in opens:
                    depth += 1
                elif ch in closes:
                    if depth == 0:
                        return None  # cannot extend past the enclosing close
                    depth -= 1
        if depth == 0:
            return self._try_anchor(i, name, pos, hi)
        return None

    def _try_anchor(self, i: int, name: str | None, start: int, at: int) -> int | None:
        if name:
            self.env[name] = (start, at)
        r = self._match_atoms(i + 1, at, at == start)
        if r is None and name:
            del self.env[name]
        return r

    def _depth_zero_extent(self, pos: int) -> int:
        src, hi = self.src, self.hi
        smap = self.smap
        pat = _event_re(self.lang, "")
        depth = 0
        if pos >= len(src):
            return pos
        for s, e, kind in smap.intervals[smap.interval_index(pos) :]:
            if s >= hi:
                break
            if kind is not Region.CODE:
                continue
            for m in pat.finditer(src, max(s, pos), min(e, hi)):
                ch = m.group(0)
                if ch in self._opens:
                    depth += 1
                elif depth == 0:
                    return m.start()
                else:
                    depth -= 1
        return hi


# ---------------------------------------------------------------------------
# Public matching API


def iter_matches(template: Template, smap: SourceMap, lo: int = 0, hi: int | None = None) -> Iterator[Match]:
    """Non-overlapping matches in source order within [lo, hi)."""
    hi = len(smap.source) if hi is None else hi
    matcher = _Matcher(template, smap, hi)
    cand = matcher.next_candidate(lo)
    while cand < hi:
        m = matcher.match_at(cand, hi)
        if m is None:
            cand = matcher.next_candidate(cand + 1)
        else:
            yield m
            cand = matcher.next_candidate(m.end)


def iter_nested_matches(template: Template, smap: SourceMap, lo: int, hi: int) -> Iterator[Match]:
    """Matches within [lo, hi) and, recursively, inside every balanced group.

    Each match comes before the matches nested inside it; otherwise matches
    come in source order.  At each level a match that starts at or before
    the next balanced group's open wins, and the walk then visits only the
    groups inside that match.  Otherwise the walk descends into the group
    and resumes after its close.  An open without a close inside the level's
    window is plain text, and so is a mismatched close.

    One matcher serves the whole walk and an explicit stack of windows
    replaces recursion.  The offsets tried only ever increase, so a single
    cached next candidate serves every level and each offset is tried once.
    """
    matcher = _Matcher(template, smap, hi)
    cand = matcher.next_candidate(lo)
    # frame: [pos, window hi, try matches at this level, cached next group]
    stack: list[list] = [[lo, hi, True, None]]
    while stack:
        frame = stack[-1]
        pos, top, tries, group = frame
        if group is None or group[0] < pos:
            group = frame[3] = smap.next_group(pos, top)
        gs, ge = group
        if tries:
            if cand < pos:
                cand = matcher.next_candidate(pos)
            m = None
            while m is None and cand <= gs and cand < top:
                m = matcher.match_at(cand, top)
                if m is None:
                    cand = matcher.next_candidate(cand + 1)
            if m is not None:
                yield m
                frame[0] = m.end
                stack.append([m.start, m.end, False, None])
                continue
        if gs == top:
            stack.pop()
        else:
            frame[0] = ge
            stack.append([gs + 1, ge - 1, True, None])
