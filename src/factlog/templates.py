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
literals split into whitespace and text chunks, a candidate strategy that
says where a match may start, and a generated matcher, made on its first
use.  Each strategy is a table builder (see _candidates).  A leading
literal is found by its first text chunk.  A leading expression or optional
hole followed by a literal (``$c(...)``, ``$l = $a + $b``) is anchored on
that literal's first text chunk: a match can start only at a left-maximal
unit start of a chain of adjoining units that reaches an occurrence of the
anchor, found by stepping back through the inverse of the unit table.  Any
other leading hole is tried at every left-maximal unit start, or at every
offset.  The sorted offsets are built once per file, strategy and key, and
kept on the SourceMap; offset_walk walks that one table by index.  The
matcher is one Python function per template, generated and compiled with
the template (see _MatcherSource): its literal tests are inline, and each
hole that can bind more than one way is a loop over its alternatives in the
order the matcher prefers them, so backtracking is the loops' own order.
It accepts a leading hole only at a left-maximal unit start, so trying
every offset finds what the candidates find.
tests/oracles.py keeps an interpreter over the atoms as its reference.

A matcher returns offsets only: the end of the match and each named
hole's start and end.  offset_walk is the one walk over a template's
matches, and a fact spec's generated function (see rewrite) slices a
hole's text, and computes its line or column, only where a condition or a
row reads it.  Every Binding made from offsets, in a Match or on the
generated function's text path, comes from one helper, _environment.

The compiled form is not one of a Template's fields: compile_template
sets it on the copy it returns, so equality, hashing, repr and _replace
see only the text and the atoms.
"""

from __future__ import annotations

import bisect
import re
from collections import namedtuple
from enum import Enum
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, Union

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


Literal = namedtuple("Literal", "text")
Literal.__doc__ = "Literal(text: str): template text matched as source."

Hole = namedtuple("Hole", "name kind")
Hole.__doc__ = "Hole(name: str | None, kind: HoleKind): a hole; an anonymous one has no name."

if TYPE_CHECKING:
    Atom = Union[Literal, Hole]


class Template(namedtuple("Template", "text atoms")):
    """Template(text: str, atoms: tuple[Atom, ...]): parsed template, its
    original text plus its atom sequence.  Its compiled form is not a
    field: compile_template sets it on the copy it returns."""

    compiled: CompiledTemplate | None = None

    def hole_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.atoms if isinstance(a, Hole) and a.name)


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


Binding = namedtuple("Binding", "text start end line column")
Binding.__doc__ = """Binding(text: str, start: int, end: int, line: int, column: int): one
hole's bound span.  text equals the source slice for matcher output;
rewrite rules may rebind with synthesized text."""


class MatchEnvironment(namedtuple("MatchEnvironment", "bindings")):
    """MatchEnvironment(bindings: dict[str, Binding]): the bindings of one
    match, indexed by hole name: env[name] is the Binding, and an unbound
    name raises UnboundHole."""

    __slots__ = ()

    def __contains__(self, name: str) -> bool:
        return name in self.bindings

    def __getitem__(self, name: str) -> Binding:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundHole(f"hole ${name} is not bound") from None


Match = namedtuple("Match", "start end env")
Match.__doc__ = "Match(start: int, end: int, env: MatchEnvironment): one match's span and bindings."


# ---------------------------------------------------------------------------
# Compilation: literal pieces and candidate strategies

# Patterns over SourceMap.kinds
_WS_OR_COMMENT = re.compile("[w#]*")
_WS_OR_DELIM = re.compile("[wd]")  # where a whitespace anchor may start
_CODE_ONLY = re.compile("[cw]*")
_BODY = re.compile("s*")


_Piece = namedtuple("_Piece", "ws text ident_first ident_last")
_Piece.__doc__ = """_Piece(ws: bool, text: str, ident_first: bool, ident_last: bool): one
whitespace or text chunk of a literal, and whether its ends are identifier
characters."""


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


class CompiledTemplate(namedtuple("CompiledTemplate", "atoms language pieces strategy key unit_start_re")):
    """A template's compiled form for one language, built once, when its
    spec loads.

    Fields: atoms: tuple[Atom, ...], language: LanguageDefinition,
    pieces: tuple[tuple[_Piece, ...] | None, ...], strategy: str, key: str
    and unit_start_re: re.Pattern[str].

    pieces holds each literal atom split into whitespace and text chunks.
    strategy and key name the table of offsets where a match may start,
    built once per file by _candidates: "find" (a leading literal) and
    "anchor" (a leading expression or optional hole before a literal) are
    found from a text chunk, key, after a space when whitespace precedes
    it, see _anchor_candidates; "units" (a leading hole with no text chunk
    after it) is every left-maximal unit start, found by unit_start_re,
    "scan" every offset and "none" (the empty template) no offset.
    make_matcher(smap) runs the generated code: it returns match(start,
    hi), the one try at one offset (see _MatcherSource).  The code is
    generated the first time make_matcher is read, and kept beside the
    fields.  A pickle holds only the atoms and the language, and loading it
    compiles again: a forked --jobs worker finds the result, with its
    matcher if one was made, in the cache it inherited.
    """

    def __reduce__(self):
        return _compile, (self.atoms, self.language)

    @cached_property
    def make_matcher(self) -> Callable[[SourceMap], Callable[[int, int], tuple | None]]:
        source = _MatcherSource(self.atoms, self.pieces, self.language)
        return source.build(self.unit_start_re, self.strategy in ("anchor", "units"))


def compile_template(template: Template, lang: LanguageDefinition) -> Template:
    """The template with its compiled form for lang: its literals split, the
    places where its matches may start chosen and its matcher generated.
    Compiled forms are cached by atoms and language."""
    compiled = Template(*template)
    compiled.compiled = _compile(template.atoms, lang)
    return compiled


@lru_cache(maxsize=256)
def _compile(atoms: tuple[Atom, ...], lang: LanguageDefinition) -> CompiledTemplate:
    pieces = tuple(_split_literal(a.text, lang) if isinstance(a, Literal) else None for a in atoms)
    ident = identifier_char_re(lang)
    string_opens = "".join(o[0] for o, _, _ in lang.string_delimiters)
    starts = char_class(lang.value_prefix_chars + lang.open_chars + string_opens)
    first_chunk = next((p.text for p in pieces[1] if not p.ws), "") if len(atoms) > 1 and pieces[1] else ""
    if not atoms:
        strategy, key = "none", ""
    elif pieces[0]:
        chunk = next((p.text for p in pieces[0] if not p.ws), "")
        strategy, key = ("find", (" " if pieces[0][0].ws else "") + chunk) if chunk else ("scan", "")
    elif atoms[0].kind not in (HoleKind.EXPRESSION, HoleKind.OPTIONAL):
        strategy, key = "scan", ""
    elif first_chunk:
        strategy, key = "anchor", (" " if pieces[1][0].ws else "") + first_chunk
    else:
        strategy, key = "units", ""
    unit_start_re = re.compile(rf"(?<!{ident})(?:{ident}|[{starts}])" if starts else rf"(?<!{ident}){ident}")
    return CompiledTemplate(atoms, lang, pieces, strategy, key, unit_start_re)


def _compiled_for(template: Template, smap: SourceMap) -> CompiledTemplate:
    t = template.compiled
    return t if t is not None and t.language == smap.language else _compile(template.atoms, smap.language)


def _candidates(t: CompiledTemplate, smap: SourceMap) -> Sequence[int]:
    """The sorted offsets of smap's file where a match of t may start.

    The table is built once per file, strategy and key, on first use, and
    kept in smap.candidate_tables, so templates that share a key share its
    table and the strategy is read only here.
    """
    table = smap.candidate_tables.get((t.strategy, t.key))
    if table is None:
        if t.strategy in ("find", "anchor"):
            table = _anchor_candidates(t, smap)
        elif t.strategy == "units":
            table = [m.start() for m in t.unit_start_re.finditer(smap.source)]
        else:  # "scan": every offset; "none", the empty template: none
            table = range(len(smap.source) + 1) if t.strategy == "scan" else []
        smap.candidate_tables[t.strategy, t.key] = table
    return table


def _anchor_candidates(t: CompiledTemplate, smap: SourceMap) -> list[int]:
    """Sorted offsets where a template of the "find" or "anchor" strategy
    may match, from the occurrences of its key's chunk.

    When whitespace precedes the chunk in the template, the walk steps back
    from each occurrence over the whitespace and comments before it, and a
    "find" template may start anywhere the walk covers.  An "anchor"
    template needs a unit chain from its start to where that walk stopped,
    so the walk goes on back through the inverse of the unit table, then
    over value-prefix characters, and the candidates are the left-maximal
    unit starts it covers.  The walk may start further left than any chain
    does; it never starts right of one.  The anchor itself is a candidate
    too, for an empty optional hole.
    """
    src, kinds = smap.source, smap.kinds
    anchor = t.strategy == "anchor"
    unit_starts = dict(zip(smap.unit_ends.values(), smap.unit_ends)) if anchor else {}
    prefix = t.language.value_prefix_chars
    ws = t.key[0] == " "
    chunk = t.key.lstrip(" ")
    walked: dict[int, int] = {}  # walk start -> walk end, so long chains walk once
    spans: list[tuple[int, int]] = []
    q = src.find(chunk)
    while q != -1:
        # the chunk can start in code, or exactly at a string delimiter
        if kinds[q] in "cwd":
            p = q
            while ws and p > 0 and kinds[p - 1] in "w#":  # back over whitespace and comments
                p -= 1
            if anchor:
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
            out.extend(map(re.Match.start, t.unit_start_re.finditer(src, a, b)) if anchor else range(a, b))
            lo = b
    return out


# ---------------------------------------------------------------------------
# Generated matchers

# CPython allows 20 statically nested loops in one function, and a unit
# chain's walk nests one more inside the open ones: a template that would
# need more continues in a second generated function.
_MAX_LOOPS = 18


class _MatcherSource:
    """The source of one template's make_matcher(smap), emitted atom by atom.

    make_matcher reads the SourceMap's tables once and returns
    match(start, hi), the match starting exactly at start and ending by hi,
    if any, as a tuple of its end offset and each named hole's start and
    end, in template order: it slices no text and computes no position.  A
    leading expression or optional hole starts only at a left-maximal unit
    start, whatever the window, and never inside a comment or a string
    body, where only an empty optional hole could start.

    Each hole with more than one way to bind opens a loop over them, and
    the loop's body matches the rest of the template, so a failed test
    continues the nearest loop and the innermost body is the first complete
    match; an empty one is no match.  An expression hole loops over its
    unit chain's ends, longest first; an optional hole adds the empty
    binding, first when the next literal already follows; ... and $x* walk
    the places where the next literal's first character may start at depth
    zero, nearest first.  A literal chunk is an inline startswith test plus
    the kinds tests, with the identifier-boundary tests only where the
    chunk starts or ends with an identifier character.  Template text,
    hole names and the language's character sets reach the code only as
    constants of its namespace (C0, C1, ...), never as source text.
    """

    def __init__(self, atoms: tuple[Atom, ...], pieces, lang: LanguageDefinition):
        self.atoms, self.pieces, self.lang = atoms, pieces, lang
        self.consts: dict[object, str] = {}
        self.functions: list[list[str]] = []  # literal tests and continuations, inside make_matcher

    def const(self, value: object) -> str:
        name = self.consts.get(value)
        if name is None:
            name = self.consts[value] = f"C{len(self.consts)}"
        return name

    def ident(self, ch: str) -> str:
        """Code testing that the character ch is an identifier character."""
        extra = self.lang.identifier_extra
        return f"({ch}.isalnum() or {ch} in {self.const(extra)})" if extra else f"{ch}.isalnum()"

    def build(self, unit_start_re: re.Pattern[str], leading_hole: bool) -> Callable:
        body = ["def match(start, hi):"]
        if leading_hole:
            body.append(f"    if not {self.const(unit_start_re)}.match(src, start):")
            body.append("        return None")
            if self.atoms[0].kind is HoleKind.OPTIONAL:
                body.append('    if kinds[start] in "#s":')
                body.append("        return None")
        body.append("    p = start")
        self.rest(0, body, 1, 0, True, True, [])
        body.append("    return None")
        lines = [
            "def make_matcher(smap):",
            "    src = smap.source",
            "    kinds = smap.kinds",
            "    n = len(src)",
            "    units = smap.unit_ends",
            "    brackets = smap.brackets",
            "    nb = len(brackets)",
            "    any_close = smap.any_close",
            "    extent = smap.depth_zero_extent",
        ]
        for function in self.functions + [body]:
            lines += ["    " + line for line in function]
        lines.append("    return match")
        namespace: dict[str, object] = {name: value for value, name in self.consts.items()}
        namespace.update(
            bisect_left=bisect.bisect_left, WS=_WS_OR_COMMENT, WSD=_WS_OR_DELIM, CODE_ONLY=_CODE_ONLY, BODY=_BODY,
        )
        exec(compile("\n".join(lines) + "\n", "<template>", "exec"), namespace)
        return namespace["make_matcher"]  # type: ignore[return-value]

    def rest(self, i: int, out: list[str], ind: int, loops: int, top: bool, empty, bound: list[str]) -> None:
        """Append the code matching atoms[i:] from p to out, at indent ind,
        inside loops open loops of the function; top is true in match
        itself, false in a continuation function.

        empty says whether a leading whitespace chunk of a literal at i may
        match nothing: True, False, or the index of the hole before it,
        which is then decided by whether that hole bound nothing.  bound
        names the variables that hold the holes' spans so far, which a
        continuation function takes as arguments.
        """
        atoms = self.atoms
        fail = "continue" if loops else "return None"
        while i < len(atoms):
            pad = "    " * ind
            atom = atoms[i]
            if isinstance(atom, Literal):
                self.literal(self.pieces[i], out, pad, fail, empty)
                empty, i = False, i + 1
                continue
            nxt = atoms[i + 1] if i + 1 < len(atoms) else None
            kind = atom.kind
            loop = kind in (HoleKind.EXPRESSION, HoleKind.OPTIONAL) or (
                kind in (HoleKind.EVERYTHING, HoleKind.ANONYMOUS) and isinstance(nxt, Literal)
            )
            if loop and loops >= _MAX_LOOPS:
                name = f"part{len(self.functions)}"
                args = ", ".join(["start", "hi", "p", *bound])
                function = [f"def {name}({args}):"]
                self.functions.append(function)
                self.rest(i, function, 1, 0, False, empty, bound)
                function.append("    return None")
                out.append(f"{pad}r = {name}({args})")
                out.append(f"{pad}if r is not None:")
                out.append(f"{pad}    return {'r if r[0] > start else None' if top else 'r'}")
                return
            s, e = f"s{i}", f"e{i}"
            out.append(f"{pad}{s} = p")
            if kind is HoleKind.EXPRESSION or kind is HoleKind.OPTIONAL:
                self.chain(i, out, pad)
                if kind is HoleKind.EXPRESSION:
                    out.append(f"{pad}for {e} in reversed(x{i}):")
                else:
                    out.append(f"{pad}x{i}.reverse()")
                    if isinstance(nxt, Literal):
                        out.append(f"{pad}if {self.literal_test(i + 1)}(p, hi):")
                        out.append(f"{pad}    x{i}.insert(0, p)")
                        out.append(f"{pad}else:")
                        out.append(f"{pad}    x{i}.append(p)")
                    else:
                        out.append(f"{pad}x{i}.append(p)")
                    out.append(f"{pad}for {e} in x{i}:")
                out.append(f"{pad}    p = {e}")
            elif kind is HoleKind.STRING_BODY:
                out.append(f"{pad}if p >= hi:")
                out.append(f"{pad}    {fail}")
                out.append(f'{pad}if kinds[p] == "s" and (p == 0 or kinds[p - 1] != "s"):')
                out.append(f"{pad}    p = BODY.match(kinds, p).end()")
                out.append(f"{pad}    if p > hi:")
                out.append(f"{pad}        {fail}")
                out.append(f'{pad}elif kinds[p] != "d":')  # an empty body, on the close delimiter
                out.append(f"{pad}    {fail}")
                out.append(f"{pad}{e} = p")
            elif loop:
                self.places(i, out, pad)
                out.append(f"{pad}    p = {e}")
            else:  # no literal follows: up to the window end or the enclosing close
                out.append(f"{pad}p = {e} = extent(p, hi)")
            if loop:
                ind, loops, fail = ind + 1, loops + 1, "continue"
            bound = bound + [s, e]
            empty = False if kind is HoleKind.EXPRESSION else i
            i += 1
        pad = "    " * ind
        if top:
            out.append(f"{pad}if p <= start:")
            out.append(f"{pad}    return None")
        named = [k for k, a in enumerate(atoms) if isinstance(a, Hole) and a.name]
        out.append(f"{pad}return (p,{''.join(f' s{k}, e{k},' for k in named)})")

    def literal(self, pieces, out: list[str], pad: str, fail: str, empty) -> None:
        """Match one literal from p: a whitespace chunk skips whitespace and
        comments, and must skip something unless it leads the literal and
        the hole before it bound nothing; a text chunk starts in code or at
        a string delimiter and crosses no comment."""
        for idx, piece in enumerate(pieces):
            if piece.ws:
                out.append(f"{pad}q = WS.match(kinds, p, hi).end() if p < hi else p")
                allowed = empty if idx == 0 else False
                if allowed is False:
                    out.append(f"{pad}if q == p:")
                    out.append(f"{pad}    {fail}")
                elif allowed is not True:
                    out.append(f"{pad}if q == p and e{allowed} != s{allowed}:")
                    out.append(f"{pad}    {fail}")
                out.append(f"{pad}p = q")
                continue
            size = len(piece.text)
            tests = [f"p + {size} > hi", f"not src.startswith({self.const(piece.text)}, p)", 'kinds[p] not in "cwd"']
            if size > 1:
                tests.append(f'kinds.find("#", p, p + {size}) >= 0')
            if piece.ident_first:
                tests.append(f"(p > 0 and {self.ident('src[p - 1]')})")
            if piece.ident_last:
                tests.append(f"(p + {size} < n and {self.ident(f'src[p + {size}]')})")
            out.append(f"{pad}if {' or '.join(tests)}:")
            out.append(f"{pad}    {fail}")
            out.append(f"{pad}p += {size}")

    def literal_test(self, i: int) -> str:
        """The name of a generated function telling whether atoms[i], a
        literal, matches at p right after a hole that bound nothing."""
        name = f"t{i}"
        function = [f"def {name}(p, hi):"]
        self.literal(self.pieces[i], function, "    ", "return False", True)
        function.append("    return True")
        self.functions.append(function)
        return name

    def chain(self, i: int, out: list[str], pad: str) -> None:
        """Set x{i} to the ends of the adjoining units from p, read from the
        unit table: none unless p is a left-maximal start before hi.

        A value prefix leads only the first unit, in code, before an
        identifier run.  The window cuts an identifier run at hi; a group or
        string literal that closes past hi ends the chain.
        """
        prefix = self.lang.value_prefix_chars
        first = f"({self.ident('ch')} or ch in {self.const(prefix)})" if prefix else self.ident("ch")
        # The walk reaches q only at a left-maximal start or a unit's end,
        # so the unit at q in code is an identifier run exactly when src[q]
        # is an identifier character, even when a group opens there too.
        run = self.ident("src[q]")
        out.append(f"{pad}x{i} = []")
        out.append(f"{pad}if p < hi:")
        pad += "    "
        if i:  # a leading hole's start passed unit_start_re, which tests this
            out.append(f"{pad}ch = src[p]")
            out.append(f"{pad}if not ({first} and p > 0 and {self.ident('src[p - 1]')}):")
            pad += "    "
        out.append(f"{pad}q = p")
        if prefix:
            out.append(f"{pad}while q < hi and src[q] in {self.const(prefix)}:")
            out.append(f"{pad}    q += 1")
            out.append(f"{pad}if q == p or (q in units and {run} and CODE_ONLY.fullmatch(kinds, p, q + 1)):")
            pad += "    "
        out.append(f"{pad}while q < hi:")
        out.append(f"{pad}    e = units.get(q)")
        out.append(f"{pad}    if e is None:")
        out.append(f"{pad}        break")
        out.append(f"{pad}    if e > hi:")
        out.append(f'{pad}        if kinds[q] not in "cw" or not {run}:')
        out.append(f"{pad}            break")
        out.append(f"{pad}        e = hi")
        out.append(f"{pad}    x{i}.append(e)")
        out.append(f"{pad}    q = e")

    def places(self, i: int, out: list[str], pad: str) -> None:
        """Open the loop binding e{i} to each place at depth zero in [p, hi)
        where the next literal may start, in order: where its first
        character occurs between brackets (whitespace: in code or at a
        string delimiter), at a bracket equal to that character (any
        bracket, for whitespace), then at hi.  A close at depth zero, or an
        open that no close before hi takes, ends the walk; each group costs
        one step.  An occurrence inside a string or a comment is a place
        too, which the literal's own test then rejects."""
        first = self.pieces[i + 1][0]
        j, b, q, e = f"j{i}", f"b{i}", f"q{i}", f"e{i}"
        out.append(f"{pad}{j} = bisect_left(brackets, p)")
        out.append(f"{pad}{b} = brackets[{j}] if {j} < nb and brackets[{j}] < hi else hi")
        out.append(f"{pad}{q} = p")
        out.append(f"{pad}while {q} >= 0:")
        if first.ws:
            out.append(f"{pad}    m = WSD.search(kinds, {q}, {b})")
            out.append(f"{pad}    if m is not None:")
            out.append(f"{pad}        {e} = m.start()")
            out.append(f"{pad}        {q} = {e} + 1")
        else:
            anchor = self.const(first.text[0])
            out.append(f"{pad}    {e} = src.find({anchor}, {q}, {b})")
            out.append(f"{pad}    if {e} >= 0:")
            out.append(f"{pad}        {q} = {e} + 1")
        out.append(f"{pad}    else:")
        out.append(f"{pad}        {e} = {b}")
        out.append(f"{pad}        if {b} == hi:")
        out.append(f"{pad}            {q} = -1")
        out.append(f"{pad}        else:")
        out.append(f"{pad}            k = any_close[{j}]")
        out.append(f"{pad}            if k < 0 or k == nb or brackets[k] >= hi:")
        out.append(f"{pad}                {q} = -1")
        out.append(f"{pad}            else:")
        out.append(f"{pad}                {q} = brackets[k] + 1")
        out.append(f"{pad}                {j} = k + 1")
        out.append(f"{pad}                {b} = brackets[{j}] if {j} < nb and brackets[{j}] < hi else hi")
        if not first.ws:
            out.append(f"{pad}            if src[{e}] != {anchor}:")
            out.append(f"{pad}                continue")


# ---------------------------------------------------------------------------
# Public matching API


def _environment(smap: SourceMap, names: tuple[str, ...], spans: tuple) -> MatchEnvironment:
    """Each of names bound to its text and position: spans holds each one's
    start and end, in the order of names."""
    src = smap.source
    it = iter(spans)
    return MatchEnvironment({name: Binding(src[s:e], s, e, *smap.line_col(s)) for name, s, e in zip(names, it, it)})


def _match_from_offsets(smap: SourceMap, names: tuple[str, ...], start: int, r: tuple) -> Match:
    """The Match at start from r, what the matcher returned there."""
    return Match(start, r[0], _environment(smap, names, r[1:]))


def match_at(template: Template, smap: SourceMap, start: int, hi: int | None = None) -> Match | None:
    """The match starting exactly at start and ending by hi, if any: one try,
    with no candidate search."""
    hi = len(smap.source) if hi is None else hi
    r = _compiled_for(template, smap).make_matcher(smap)(start, hi)
    return None if r is None else _match_from_offsets(smap, template.hole_names(), start, r)


def offset_walk(
    template: Template, smap: SourceMap, nested: bool = False
) -> Callable[[int, int], Iterator[tuple[int, tuple]]]:
    """walk(lo, hi), which yields (start, r) for each match of template
    within [lo, hi), r its offsets as match(start, hi) returns them: the
    end, then each named hole's start and end.  It is the one walk over a
    template's matches: iter_matches, iter_nested_matches and a generated
    fact-spec function (see rewrite), for its outer matches and its nested
    descent, take it.

    The flat walk yields non-overlapping matches in source order.  The
    nested walk also yields, recursively, the matches inside every balanced
    group.  Each match comes before the matches nested inside it; otherwise
    matches come in source order.  At each level a match that starts at or
    before the next balanced group's open wins, and the walk then visits
    only the groups inside that match.  Otherwise the walk descends into
    the group and resumes after its close.  An open without a close inside
    the level's window is plain text, and so is a mismatched close.

    An explicit stack of windows replaces recursion.  The offsets the
    nested walk reaches only ever increase, so one cursor into the file's
    candidate table and one into the sorted group opens serve every level,
    and each candidate is tried once.  At a level the next group is the
    cursor's open if it closes within the window; an open before the
    window's end that closes past it encloses that end, lies behind every
    later level, and is stepped over for good.
    """
    t = _compiled_for(template, smap)
    table = _candidates(t, smap)
    match = t.make_matcher(smap)
    bisect_left = bisect.bisect_left
    nc = len(table)

    def flat(lo: int, hi: int) -> Iterator[tuple[int, tuple]]:
        c = bisect_left(table, lo)
        while c < nc and table[c] < hi:
            start = table[c]
            r = match(start, hi)
            if r is None:
                c += 1
            else:
                yield start, r
                c = bisect_left(table, r[0], c + 1)

    if not nested:
        return flat
    opens, ends = smap.group_opens, smap.group_ends
    n = len(opens)

    def walk(lo: int, hi: int) -> Iterator[tuple[int, tuple]]:
        c = bisect_left(table, lo)
        g = bisect_left(opens, lo)
        pos, top, tries = lo, hi, True
        stack: list[tuple[int, int, bool]] = []  # windows to resume: (pos, window hi, try matches)
        while True:
            gs = ge = top
            while g < n and opens[g] < top:
                ge = ends[opens[g]]
                if ge <= top:
                    gs = opens[g]
                    break
                g += 1
            if tries:
                if c < nc and table[c] < pos:
                    c = bisect_left(table, pos, c)
                r = None
                while c < nc:
                    start = table[c]
                    if start > gs or start >= top:
                        break
                    r = match(start, top)
                    if r is not None:
                        break
                    c += 1
                if r is not None:
                    yield start, r
                    stack.append((r[0], top, True))
                    pos, top, tries = start, r[0], False
                    continue
            if gs < top:
                stack.append((ge, top, tries))
                pos, top, tries = gs + 1, ge - 1, True
            elif stack:
                pos, top, tries = stack.pop()
            else:
                return

    return walk


def iter_matches(template: Template, smap: SourceMap, lo: int = 0, hi: int | None = None) -> Iterator[Match]:
    """Non-overlapping matches in source order within [lo, hi).

    A template not compiled for the SourceMap's language is compiled first;
    compile once with compile_template to match many files.
    """
    hi = len(smap.source) if hi is None else hi
    names = template.hole_names()
    for start, r in offset_walk(template, smap)(lo, hi):
        yield _match_from_offsets(smap, names, start, r)


def iter_nested_matches(template: Template, smap: SourceMap, lo: int, hi: int) -> Iterator[Match]:
    """Matches within [lo, hi) and, recursively, inside every balanced
    group, in the order of offset_walk's nested walk."""
    names = template.hole_names()
    for start, r in offset_walk(template, smap, nested=True)(lo, hi):
        yield _match_from_offsets(smap, names, start, r)
