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
strings.  Every region question is asked of the SourceMap's kinds string,
one character per offset: "is this offset code?" is an index, "does this
chunk cross a comment?" a slice test, and "skip whitespace and comments" or
"where does this string body end?" one regex match.  Matches are found by a
non-overlapping leftmost scan.

Both bracket rules come from the SourceMap's one bracket pass.  Balanced
groups (an expression-hole unit, a level of the nested descent) pair by kind,
so a mismatched close is plain text.  $name* and ... take any close as
closing any open and jump over each group to its partner, so ``$c(...)``
finds no match in ``f(a]) x`` and ``{$b*}`` matches ``{ ( ] }``.

What a unit is (an identifier run, a group or a whole string literal) is
decided once per file: classify records every unit in the SourceMap's unit
table, and an expression hole's forward walk over a chain of adjoining
units is a sequence of lookups in it.

compile_template binds a template to a language once, when its spec loads:
literals split into whitespace and text chunks, the language's regexes, and
a candidate strategy that says where a match may start.  A leading literal
is found by its first text chunk.  A leading expression or optional hole
followed by a literal (``$c(...)``, ``$l = $a + $b``) is anchored on that
literal's first text chunk: a match can start only where a chain of
adjoining units reaches an occurrence of the anchor, so the candidates are
the left-maximal unit starts between each occurrence and the start of the
chain that ends there, found by stepping back through the inverse of the
unit table.  They are kept in a per-file table on the SourceMap, built on
first use.  match_at itself accepts a leading hole only at a left-maximal
unit start, so trying every offset finds what the candidates find.
"""

from __future__ import annotations

import bisect
import re
from enum import Enum
from typing import Iterator, NamedTuple, Union

from .errors import DuplicateHoleName, MalformedHole, UnboundHole
from .languages import LanguageDefinition, SourceMap, char_class, identifier_char_re


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


class Literal(NamedTuple):
    text: str


class Hole(NamedTuple):
    name: str | None
    kind: HoleKind


Atom = Union[Literal, Hole]


class Template(NamedTuple):
    """Parsed template: original text plus its atom sequence, and its
    compiled form once compile_template has bound it to a language.
    Equality, hash and repr leave the compiled form out."""

    text: str
    atoms: tuple[Atom, ...]
    compiled: CompiledTemplate | None = None

    def hole_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.atoms if isinstance(a, Hole) and a.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Template):
            return NotImplemented
        return self.text == other.text and self.atoms == other.atoms

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((self.text, self.atoms))

    def __repr__(self) -> str:
        return f"Template(text={self.text!r}, atoms={self.atoms!r})"


HOLE_NAME = r"[A-Za-z_][A-Za-z0-9_]*"  # the hole-name pattern of match and rewrite templates

_TEMPLATE_HOLE_RE = re.compile(rf"\.\.\.|\$(?P<name>{HOLE_NAME})?(?P<suffix>[*?]?)")
_SUFFIX_KINDS = {"": HoleKind.EXPRESSION, "*": HoleKind.EVERYTHING, "?": HoleKind.OPTIONAL}


def parse_template(text: str) -> Template:
    """Parse template text into atoms; language independent."""
    atoms: list[Atom] = []
    seen: set[str] = set()
    pos = 0
    for m in _TEMPLATE_HOLE_RE.finditer(text):
        start = m.start()
        if start > pos:
            atoms.append(Literal(text[pos:start]))
        pos = m.end()
        if m[0] == "...":
            atoms.append(Hole(None, HoleKind.ANONYMOUS))
            continue
        name = m["name"]
        if name is None:
            raise MalformedHole(f"'$' at offset {start} is not followed by a hole name")
        if name in seen:
            raise DuplicateHoleName(f"hole ${name} is bound more than once")
        seen.add(name)
        kind = _SUFFIX_KINDS[m["suffix"]]
        if kind is HoleKind.EXPRESSION and text[start - 1 : start] == '"' == text[pos : pos + 1]:
            # "$x" binds the string body; the quotes stay literal atoms.
            kind = HoleKind.STRING_BODY
        atoms.append(Hole(name, kind))
    if pos < len(text):
        atoms.append(Literal(text[pos:]))
    return Template(text, tuple(atoms))


# ---------------------------------------------------------------------------
# Bindings and matches


class Binding(NamedTuple):
    """One hole's bound span.  text equals the source slice for matcher
    output; rewrite rules may rebind with synthesized text."""

    text: str
    start: int
    end: int
    line: int
    column: int


class MatchEnvironment(NamedTuple):
    """The bindings of one match, indexed by hole name: env[name] is the
    Binding, and an unbound name raises UnboundHole."""

    bindings: dict[str, Binding]

    def __contains__(self, name: str) -> bool:
        return name in self.bindings

    def __getitem__(self, name: str) -> Binding:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundHole(f"hole ${name} is not bound") from None


class Match(NamedTuple):
    start: int
    end: int
    env: MatchEnvironment


# ---------------------------------------------------------------------------
# Compilation: literal pieces and candidate strategies

# Patterns over SourceMap.kinds
_WS_OR_COMMENT = re.compile("[w#]*")
_WS_OR_DELIM = re.compile("[wd]")  # where a whitespace anchor may start
_CODE_ONLY = re.compile("[cw]*")
_BODY = re.compile("s*")


class _Piece(NamedTuple):
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


class CompiledTemplate(NamedTuple):
    """A template's compiled form for one language, built once, when its
    spec loads.

    pieces holds each literal atom split into whitespace and text chunks.
    strategy says where a match may start: "find" (the first text chunk of
    a leading literal), "anchor" (a leading expression or optional hole
    before a literal: the offsets in the SourceMap's per-file candidate
    table under key, see _anchor_candidates), "units" (a leading hole with
    no text chunk after it: every left-maximal unit start), "scan" (every
    offset) or "none" (the empty template).
    """

    language: LanguageDefinition
    pieces: tuple[tuple[_Piece, ...] | None, ...]
    strategy: str
    key: str  # "find": the chunk; "anchor": the chunk, after a space when whitespace precedes it
    unit_start_re: re.Pattern[str]  # a left-maximal unit start
    scan_res: tuple[re.Pattern[str] | None, ...]  # per everything hole: its anchor (over kinds for whitespace)


def compile_template(template: Template, lang: LanguageDefinition) -> Template:
    """The template with its compiled form for lang: its literals split and
    the places where its matches may start chosen."""
    atoms = template.atoms
    pieces = tuple(_split_literal(a.text, lang) if isinstance(a, Literal) else None for a in atoms)
    ident = identifier_char_re(lang)
    string_opens = "".join(o[0] for o, _, _ in lang.string_delimiters)
    starts = char_class(lang.value_prefix_chars + lang.open_chars + string_opens)
    first_chunk = next((p.text for p in pieces[1] if not p.ws), "") if len(atoms) > 1 and pieces[1] else ""
    if not atoms:
        strategy, key = "none", ""
    elif pieces[0]:
        chunk = next((p.text for p in pieces[0] if not p.ws), "")
        strategy, key = ("find", chunk) if chunk else ("scan", "")
    elif atoms[0].kind not in (HoleKind.EXPRESSION, HoleKind.OPTIONAL):
        strategy, key = "scan", ""
    elif first_chunk:
        strategy, key = "anchor", (" " if pieces[1][0].ws else "") + first_chunk
    else:
        strategy, key = "units", ""
    scan_res = []
    for i, atom in enumerate(atoms):
        nxt = pieces[i + 1] if i + 1 < len(atoms) else None
        if isinstance(atom, Hole) and atom.kind in (HoleKind.EVERYTHING, HoleKind.ANONYMOUS) and nxt:
            scan_res.append(_WS_OR_DELIM if nxt[0].ws else re.compile(re.escape(nxt[0].text[0])))
        else:
            scan_res.append(None)
    compiled = CompiledTemplate(
        language=lang,
        pieces=pieces,
        strategy=strategy,
        key=key,
        unit_start_re=re.compile(rf"(?<!{ident})(?:{ident}|[{starts}])" if starts else rf"(?<!{ident}){ident}"),
        scan_res=tuple(scan_res),
    )
    return template._replace(compiled=compiled)


def _compiled_for(template: Template, smap: SourceMap) -> Template:
    if template.compiled is None or template.compiled.language is not smap.language:
        return compile_template(template, smap.language)
    return template


def _anchor_candidates(t: CompiledTemplate, smap: SourceMap) -> list[int]:
    """Sorted offsets where a template of the "anchor" strategy may match.

    A match needs a unit chain from its start that ends right before the
    anchor (or, when the anchor follows whitespace, before the whitespace
    and comments that precede it).  So the candidates are the left-maximal
    unit starts between each anchor occurrence and the start of the chain
    that ends there, which a walk back through the inverse of the unit
    table, then over value-prefix characters, finds.  The walk may start
    further left than any chain does; it never starts right of one.  The
    anchor itself is a candidate too, for an empty optional hole.
    """
    src, kinds = smap.source, smap.kinds
    unit_starts = {end: start for start, end in smap.unit_ends.items()}
    prefix = t.language.value_prefix_chars
    ws = t.key[0] == " "
    chunk = t.key.lstrip(" ")
    walked: dict[int, int] = {}  # walk start -> walk end, so long chains walk once
    spans: list[tuple[int, int]] = []
    q = src.find(chunk)
    while q != -1:
        # the anchor can start in code, or exactly at a string delimiter
        if kinds[q] in "cwd":
            p = q
            while ws and p > 0 and kinds[p - 1] in "w#":  # back over whitespace and comments
                p -= 1
            start = p
            while p in unit_starts and p not in walked:  # back over the unit chain
                p = unit_starts[p]
            p = walked[start] = walked.get(p, p)
            while p > 0 and src[p - 1] in prefix:
                p -= 1
            spans.append((p, q + 1))
        q = src.find(chunk, q + 1)
    out: list[int] = []
    lo = 0
    for a, b in sorted(spans):
        a = max(a, lo)
        if a < b:
            out.extend(m.start() for m in t.unit_start_re.finditer(src, a, b))
            lo = b
    return out


# ---------------------------------------------------------------------------
# The matcher


class _Matcher:
    """Backtracking matcher for one template over one span of a SourceMap.

    next_candidate and match_at are the only entry points; iter_matches and
    iter_nested_matches are both loops over them.
    """

    def __init__(self, template: Template, smap: SourceMap, end: int):
        t = self.t = template.compiled
        self.smap = smap
        self.src = smap.source
        self.lang = t.language
        self.atoms = template.atoms
        self.pieces = t.pieces
        self.end = end
        self.hi = end
        self.env: dict[str, tuple[int, int]] = {}
        self.table: list[int] | None = None  # the per-file candidate table, on first use

    def next_candidate(self, pos: int) -> int:
        """First offset at or after pos where a match may start, or the span end."""
        kind, end = self.t.strategy, self.end
        if pos >= end or kind == "none":
            return end
        if kind == "anchor":
            table = self.table
            if table is None:
                tables = self.smap.candidate_tables
                table = tables.get(self.t.key)
                if table is None:
                    table = tables[self.t.key] = _anchor_candidates(self.t, self.smap)
                self.table = table
            i = bisect.bisect_left(table, pos)
            return table[i] if i < len(table) and table[i] < end else end
        if kind == "find":
            c = self.src.find(self.t.key, pos, end)
            return end if c == -1 else c
        if kind == "units":
            m = self.t.unit_start_re.search(self.src, pos, end)
            return end if m is None else m.start()
        return pos  # scan: every offset (rare templates)

    def match_at(self, start: int, hi: int) -> Match | None:
        """The nonempty match starting exactly at start and ending by hi, if any.

        A leading expression or optional hole starts only at a left-maximal
        unit start, whatever the window, and never inside a comment or a
        string body, where only an empty optional hole could start.
        """
        if self.t.strategy in ("anchor", "units"):
            if not self.t.unit_start_re.match(self.src, start):
                return None
            if self.atoms[0].kind is HoleKind.OPTIONAL and self.smap.kinds[start] in "#s":
                return None
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
        # the chunk starts in code or at a string delimiter and crosses no comment
        kinds = self.smap.kinds
        return kinds[pos] in "cwd" and kinds.find("#", pos, end) < 0

    def _skip_ws_comments(self, pos: int) -> int:
        if pos >= self.hi:
            return pos
        return _WS_OR_COMMENT.match(self.smap.kinds, pos, self.hi).end()

    # -- expression and optional holes ---------------------------------------

    def _unit_chain_ends(self, pos: int) -> list[int]:
        """Ends of successive adjoining units starting exactly at pos, read
        from the SourceMap's unit table.

        A value prefix leads only the first unit, in code, before an
        identifier run.  The window cuts an identifier run at hi; a group or
        string literal that closes past hi ends the chain.
        """
        ends: list[int] = []
        src, hi, smap = self.src, self.hi, self.smap
        units, kinds = smap.unit_ends, smap.kinds
        p = pos
        prefix = self.lang.value_prefix_chars
        while p < hi and src[p] in prefix:
            p += 1
        if p > pos and (p not in units or p in smap.group_ends or not _CODE_ONLY.fullmatch(kinds, pos, p + 1)):
            return ends
        while p < hi:
            end = units.get(p)
            if end is None:
                break
            if end > hi:
                if p in smap.group_ends or kinds[p] not in "cw":
                    break
                end = hi
            ends.append(end)
            p = end
        return ends

    def _left_maximal_ok(self, pos: int) -> bool:
        src, lang = self.src, self.lang
        ch = src[pos]
        if lang.is_identifier_char(ch) or ch in lang.value_prefix_chars:
            return pos == 0 or not lang.is_identifier_char(src[pos - 1])
        return True

    def _match_expression(self, i: int, pos: int) -> int | None:
        if pos >= self.hi or not self._left_maximal_ok(pos):
            return None
        for e in reversed(self._unit_chain_ends(pos)):  # greedy: longest adjoining chain first
            r = self._try_anchor(i, pos, e)
            if r is not None:
                return r
        return None

    def _match_optional(self, i: int, pos: int) -> int | None:
        atoms = self.atoms
        nxt = atoms[i + 1] if i + 1 < len(atoms) else None
        empty_first = False
        if isinstance(nxt, Literal):
            empty_first = self._match_literal(i + 1, pos, True) is not None
        if not empty_first:
            r = self._match_expression(i, pos)
            if r is not None:
                return r
        r = self._try_anchor(i, pos, pos)
        if r is not None:
            return r
        if empty_first:
            return self._match_expression(i, pos)
        return None

    # -- string-body holes ---------------------------------------------------

    def _match_string_body(self, i: int, pos: int) -> int | None:
        if pos >= self.hi:
            return None
        kinds = self.smap.kinds
        if kinds[pos] == "s" and (pos == 0 or kinds[pos - 1] != "s"):
            end = _BODY.match(kinds, pos).end()
            if end > self.hi:
                return None
        elif kinds[pos] == "d":
            end = pos  # empty string body, sitting on the close delimiter
        else:
            return None
        return self._try_anchor(i, pos, end)

    # -- everything / anonymous holes ----------------------------------------

    def _match_everything(self, i: int, pos: int) -> int | None:
        atoms = self.atoms
        nxt = atoms[i + 1] if i + 1 < len(atoms) else None
        if not isinstance(nxt, Literal):
            # No literal anchor: bind up to the window end or the enclosing close.
            return self._try_anchor(i, pos, self.smap.depth_zero_extent(pos, self.hi))
        first_piece = self.pieces[i + 1][0]
        anchor = " " if first_piece.ws else first_piece.text[0]
        for at in self._anchor_places(i, pos, anchor):  # lazy: nearest place first
            r = self._try_anchor(i, pos, at)
            if r is not None:
                return r
        return None

    def _anchor_places(self, i: int, pos: int, anchor: str) -> Iterator[int]:
        """Where the anchor may start at depth zero in [pos, hi), in order:
        in code and at string delimiters between brackets, at a bracket equal
        to it, then at hi.  A close at depth zero, or an open that no close
        before hi takes, ends the walk; each group costs one step."""
        src, hi, smap = self.src, self.hi, self.smap
        pat = self.t.scan_res[i]
        kinds, brackets, any_close = smap.kinds, smap.brackets, smap.any_close
        anchor_ws = anchor == " "
        text = kinds if anchor_ws else src
        j = bisect.bisect_left(brackets, pos)
        gap = pos
        while True:
            b = brackets[j] if j < len(brackets) and brackets[j] < hi else hi
            # strings and comments are opaque, but the anchor may start
            # exactly at a string delimiter (e.g. a literal '"')
            yield from (m.start() for m in pat.finditer(text, gap, b) if kinds[m.start()] in "cwd")
            if b == hi:
                yield hi
                return
            if anchor_ws or src[b] == anchor:
                yield b
            j = any_close[j]
            if j < 0 or j == len(brackets) or brackets[j] >= hi:
                return
            gap = brackets[j] + 1
            j += 1

    def _try_anchor(self, i: int, start: int, at: int) -> int | None:
        """Bind hole i to [start, at), if named, and match the rest from at."""
        name = self.atoms[i].name
        if name:
            self.env[name] = (start, at)
        r = self._match_atoms(i + 1, at, at == start)
        if r is None and name:
            del self.env[name]
        return r


# ---------------------------------------------------------------------------
# Public matching API


def match_at(template: Template, smap: SourceMap, start: int, hi: int | None = None) -> Match | None:
    """The match starting exactly at start and ending by hi, if any: one try,
    with no candidate search."""
    hi = len(smap.source) if hi is None else hi
    return _Matcher(_compiled_for(template, smap), smap, hi).match_at(start, hi)


def iter_matches(template: Template, smap: SourceMap, lo: int = 0, hi: int | None = None) -> Iterator[Match]:
    """Non-overlapping matches in source order within [lo, hi).

    A template not compiled for the SourceMap's language is compiled first;
    compile once with compile_template to match many files.
    """
    hi = len(smap.source) if hi is None else hi
    matcher = _Matcher(_compiled_for(template, smap), smap, hi)
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
    matcher = _Matcher(_compiled_for(template, smap), smap, hi)
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
