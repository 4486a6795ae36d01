"""Independent reference implementations used to cross-check the engine.

These deliberately share no evaluation machinery with the package: the
Datalog oracle recomputes every rule from scratch each round (no deltas,
no indexes) and derives stratum levels by longest-path relaxation instead
of SCC condensation.  interpret_at is the template matcher as an
interpreter: it dispatches on each atom's kind, backtracks by recursion and
splits the literals itself, where the package generates one function per
template; it imports only the records and parse_template from templates.
The inner-match oracle finds each level's next match by trying every
offset in turn with it (where the package tries only the candidates of the
template's compiled strategy), finds the next group afresh at every
position, pairs each group by a fresh stack scan from its open
(rescan_balanced, where the package looks the pair up in the SourceMap's
per-file bracket table) and recurses once per nesting level.  The depth
counter of count_depth_zero_extent is the reference for the any-close rule
that the SourceMap's second bracket table answers, and unit_chain_ends, a
walk over the regions character by character, is the reference for the
units that the SourceMap's unit table records.  Every region question here
is answered by interval_at, a bisect over the SourceMap's intervals, never
by the kinds string the matcher reads.  The writers format and check one
row at a time after one sort of whole rows by _tuple_key, where the
package groups rows and formats each distinct value once; the fact-text
reader parses and adds one line at a time with parse_fact_line, where the
package reads the writer's line shape in bulk; the line table finds one
newline at a time, and string_end steps over a string body one character
at a time, where the package matches one pattern.  Agreement between the two
implementations is the point, so keep this file boring.
"""

from __future__ import annotations

import bisect
import math
import re
from collections import deque
from typing import Iterator

from factlog.errors import ArityMismatch, FactlogError, LanguageError, MalformedFact
from factlog.facts import Database, Fact, _tuple_key, format_fact, parse_fact_line
from factlog.languages import Region, SourceMap
from factlog.syntax import DatalogProgram, Variable
from factlog.templates import Binding, Hole, HoleKind, Literal, Match, MatchEnvironment, Template


_UNBOUND = object()


def _unify(terms, row, env):
    out = dict(env)
    for term, value in zip(terms, row):
        if isinstance(term, Variable):
            if term.name == "_":
                continue
            bound = out.get(term.name, _UNBOUND)
            if bound is _UNBOUND:
                out[term.name] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return out


def _bindings(literals, relations, env):
    if not literals:
        yield env
        return
    lit, rest = literals[0], literals[1:]
    rows = relations.get(lit.atom.relation, set())
    if lit.positive:
        for row in rows:
            nxt = _unify(lit.atom.terms, row, env)
            if nxt is not None:
                yield from _bindings(rest, relations, nxt)
    else:
        ground = tuple(
            env[t.name] if isinstance(t, Variable) else t for t in lit.atom.terms
        )
        if ground not in rows:
            yield from _bindings(rest, relations, env)


def stratum_levels(program: DatalogProgram) -> dict[str, int]:
    """Level per relation: body levels never exceed the head's, and negated
    bodies stay strictly below.  Raises ValueError on negative cycles."""
    level = {rel: 0 for rel in program.all_relations()}
    for _ in range(len(level) + 1):
        changed = False
        for rule in program.rules:
            head = rule.head.relation
            for lit in rule.body:
                need = level[lit.atom.relation] + (0 if lit.positive else 1)
                if need > level[head]:
                    level[head] = need
                    changed = True
        if not changed:
            return level
    raise ValueError("program is not stratifiable")


def naive_evaluate(program: DatalogProgram, edb=None) -> dict[str, set[tuple]]:
    """Naive bottom-up fixpoint: rerun every rule against the full current
    relation contents until nothing new appears, one stratum at a time."""
    relations: dict[str, set[tuple]] = {rel: set() for rel in program.all_relations()}
    if edb is not None:
        for rel, rows in edb.relations.items():
            relations.setdefault(rel, set()).update(rows)
    for fact in program.facts:
        relations.setdefault(fact.relation, set()).add(tuple(fact.terms))
    level = stratum_levels(program)
    by_level: dict[int, list] = {}
    for rule in program.rules:
        by_level.setdefault(level[rule.head.relation], []).append(rule)
    for lvl in sorted(by_level):
        changed = True
        while changed:
            changed = False
            snapshot = {rel: frozenset(rows) for rel, rows in relations.items()}
            for rule in by_level[lvl]:
                # negations go last so every variable is bound first
                ordered = sorted(rule.body, key=lambda lit: not lit.positive)
                head = rule.head
                for env in _bindings(ordered, snapshot, {}):
                    row = tuple(
                        env[t.name] if isinstance(t, Variable) else t for t in head.terms
                    )
                    if row not in relations[head.relation]:
                        relations[head.relation].add(row)
                        changed = True
    return relations


def reachability(edges: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """All (a, b) with a path of one or more edges from a to b, by BFS."""
    adjacency: dict[str, list[str]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
    closure: set[tuple[str, str]] = set()
    for start in adjacency:
        seen: set[str] = set()
        queue = deque(adjacency[start])
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            closure.add((start, node))
            queue.extend(adjacency.get(node, ()))
    return closure


# ---------------------------------------------------------------------------
# Writers and tables, one row or one line at a time


def sorted_rows(rows) -> list[tuple]:
    """Whole rows in _tuple_key order, sorted in one call."""
    return sorted(rows, key=_tuple_key)


def dl_text(db) -> str:
    """A database's fact text: relations by name, each one's rows in order,
    one ``format_fact`` line each."""
    lines = [format_fact(Fact(rel, tup)) for rel in sorted(db.relations) for tup in sorted_rows(db.relations[rel])]
    return "\n".join(lines) + ("\n" if lines else "")


def facts_texts(db) -> dict[str, str]:
    """Each relation's tab-separated text, cell by cell, or the FactlogError
    of the first cell or row in order that reading could not give back."""
    texts = {}
    for rel in sorted(db.relations):
        rows = []
        for tup in sorted_rows(db.relations[rel]):
            cells = []
            for v in tup:
                cell = str(v)
                if "\t" in cell or "\n" in cell or "\r" in cell:
                    raise FactlogError(
                        f"symbol {cell!r} in {rel} cannot be written tab-separated; use the dl format"
                    )
                cells.append(cell)
            row = "\t".join(cells)
            if not row:
                raise FactlogError(
                    f"tuple {tup!r} in {rel} would be an empty line tab-separated; use the dl format"
                )
            rows.append(row)
        texts[rel] = "\n".join(rows) + ("\n" if rows else "")
    return texts


def read_dl_text(text: str, path=None) -> Database:
    """Fact text read one line at a time: each line that is not blank or a
    ``//`` comment is parsed and added in turn, and the first bad one raises,
    its message prefixed with ``path:line:`` when a path is given.  Lines
    end at "\n" only."""
    db = Database()
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


def line_start_table(source: str) -> list[int]:
    """The offset at which each line starts, one ``str.find`` per newline."""
    starts = [0]
    pos = source.find("\n")
    while pos != -1:
        starts.append(pos + 1)
        pos = source.find("\n", pos + 1)
    return starts


def string_end(source: str, pos: int, close: str, escape: str | None) -> tuple[int, int | None]:
    """(body_end, close_end) of a string body from pos, one character at a
    time: an escape skips the character after it, and close_end is None
    when no close follows."""
    n = len(source)
    while pos < n:
        if source[pos] == escape:
            pos += 2  # escaped character never terminates the string
            continue
        if source.startswith(close, pos):
            return pos, pos + len(close)
        pos += 1
    return n, None


def interval_index(smap: SourceMap, offset: int) -> int:
    """Index into smap.intervals of the interval containing offset (0 when
    there is none before it), by bisect."""
    return max(bisect.bisect_right(smap.intervals, (offset, math.inf)) - 1, 0)


def interval_at(smap: SourceMap, offset: int) -> tuple[int, int, Region]:
    """The (start, end, region) interval containing offset."""
    if not 0 <= offset < len(smap.source):
        raise IndexError(f"offset {offset} out of range")
    return smap.intervals[interval_index(smap, offset)]


def collect_inner(
    template: Template, smap: SourceMap, lo: int, hi: int, nested: bool
) -> list[Match]:
    """Inner matches inside a bound span.

    Plain mode is the ordinary non-overlapping scan.  Nested mode additionally
    descends into every balanced subspan, emitting each enclosing match before
    the matches nested inside it, in source order otherwise.
    """
    out: list[Match] = []
    pos = lo
    if not nested:
        # a fresh first-match search after every match, no resumed scan
        while (m := first_match(template, smap, pos, hi)) is not None:
            out.append(m)
            pos = m.end
        return out
    while pos < hi:
        m = first_match(template, smap, pos, hi)
        g = _next_group(smap, pos, hi)
        if m is None and g is None:
            break
        if m is not None and (g is None or m.start <= g[0]):
            out.append(m)
            for gs, ge in _iter_groups(smap, m.start, m.end):
                out.extend(collect_inner(template, smap, gs + 1, ge - 1, True))
            pos = m.end
        else:
            gs, ge = g
            out.extend(collect_inner(template, smap, gs + 1, ge - 1, True))
            pos = ge
    return out


def first_match(template: Template, smap: SourceMap, lo: int, hi: int) -> Match | None:
    """The match that starts first in [lo, hi), trying every offset."""
    for start in range(lo, hi):
        m = interpret_at(template, smap, start, hi)
        if m is not None:
            return m
    return None


def _next_group(smap: SourceMap, lo: int, hi: int) -> tuple[int, int] | None:
    return next(_iter_groups(smap, lo, hi), None)


def _iter_groups(smap: SourceMap, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Top-level balanced groups within a window, skipping strings/comments."""
    opens = set(smap.language.open_chars)
    src = smap.source
    pos = lo
    while pos < hi:
        found = -1
        for s, e, kind in smap.intervals[interval_index(smap, pos) :]:
            if s >= hi:
                break
            if kind is not Region.CODE:
                continue
            for i in range(max(s, pos), min(e, hi)):
                if src[i] in opens:
                    found = i
                    break
            if found != -1:
                break
        if found == -1:
            return
        try:
            end = rescan_balanced(smap, found, hi)
        except UnbalancedInput:
            pos = found + 1
            continue
        yield found, end
        pos = end


class UnbalancedInput(FactlogError):
    """rescan_balanced ran off the end of the input before closing."""


def rescan_balanced(smap: SourceMap, start: int, limit: int | None = None) -> int:
    """Offset one past the close matching the open delimiter at start, by a
    stack scan from start.

    Delimiters inside comment or string regions are ignored.  Nesting of all
    pair kinds is honored via a stack; a close character that does not match
    the innermost open is ignored (lenient).  Raises UnbalancedInput when the
    limit is reached first.
    """
    source = smap.source
    hi = len(source) if limit is None else limit
    open_to_close = dict(smap.language.balanced_pairs)
    if start >= hi or interval_at(smap, start)[2] is not Region.CODE or source[start] not in open_to_close:
        raise LanguageError(f"offset {start} is not an open delimiter in a code region")
    finder = re.compile("[" + re.escape(smap.language.open_chars + smap.language.close_chars) + "]")
    stack = [open_to_close[source[start]]]
    pos = start + 1
    for s, e, kind in smap.intervals[interval_index(smap, start) :]:
        if kind is not Region.CODE:
            continue
        lo = max(s, pos)
        if lo >= hi:
            break
        for m in finder.finditer(source, lo, min(e, hi)):
            ch = m.group(0)
            if ch in open_to_close:
                stack.append(open_to_close[ch])
            elif ch == stack[-1]:
                stack.pop()
                if not stack:
                    return m.start() + 1
            # a mismatched close is treated as plain text
        if e >= hi:
            break
    raise UnbalancedInput(f"no matching close for {source[start]!r} at offset {start}")


def count_depth_zero_extent(smap: SourceMap, pos: int, hi: int) -> int:
    """The first close in [pos, hi) at depth zero, or hi, by a depth counter
    started at pos that takes any close as closing any open.

    Delimiters inside comment or string regions are ignored.
    """
    src = smap.source
    opens = set(smap.language.open_chars)
    closes = set(smap.language.close_chars)
    depth = 0
    if pos >= len(src):
        return pos
    for s, e, kind in smap.intervals[interval_index(smap, pos) :]:
        if s >= hi:
            break
        if kind is not Region.CODE:
            continue
        for i in range(max(s, pos), min(e, hi)):
            if src[i] in opens:
                depth += 1
            elif src[i] in closes:
                if depth == 0:
                    return i
                depth -= 1
    return hi


def unit_chain_ends(smap: SourceMap, pos: int, hi: int) -> list[int]:
    """Ends of successive adjoining units from pos within [pos, hi), by a
    walk over the regions: an identifier run character by character, a
    group by rescan_balanced and a string literal over its intervals.

    A value prefix leads only the first unit, in code, before an identifier
    run.  The window cuts an identifier run at hi; a group or string literal
    that closes past hi ends the chain.  Empty when pos is not a left-maximal
    start, where an expression hole never begins.
    """
    src, lang = smap.source, smap.language
    ident = lang.is_identifier_char
    prefix = lang.value_prefix_chars
    string_opens = {o[0] for o, _, _ in lang.string_delimiters}
    if pos >= hi or (pos > 0 and ident(src[pos - 1]) and (ident(src[pos]) or src[pos] in prefix)):
        return []
    ends: list[int] = []
    p, first = pos, True
    while p < hi:
        s, e, kind = interval_at(smap, p)
        if kind is Region.STRING_DELIMITER and s == p and src[p] in string_opens:
            end = _string_literal_end(smap, p)
            if end > hi:
                break
        elif kind is Region.CODE:
            j = p
            while first and j < hi and src[j] in prefix:
                j += 1
            stop = min(e, hi)
            if j < stop and ident(src[j]):
                while j < stop and ident(src[j]):
                    j += 1
                end = j
            elif j == p and src[j] in lang.open_chars:
                try:
                    end = rescan_balanced(smap, j, hi)
                except UnbalancedInput:
                    break
            else:
                break
        else:
            break
        ends.append(end)
        p, first = end, False
    return ends


def _string_literal_end(smap: SourceMap, pos: int) -> int:
    """End of the string literal whose delimiter starts at pos: after the
    close delimiter, or where the literal's intervals stop."""
    intervals = smap.intervals
    idx = interval_index(smap, pos)
    s, e, kind = intervals[idx]
    if idx + 1 == len(intervals):
        return e
    s2, e2, kind2 = intervals[idx + 1]
    if kind2 is Region.STRING_BODY:
        if idx + 2 == len(intervals):
            return e2
        s3, e3, kind3 = intervals[idx + 2]
        return e3 if kind3 is Region.STRING_DELIMITER and s3 == e2 else e2
    return e2 if kind2 is Region.STRING_DELIMITER and s2 == e else e


# ---------------------------------------------------------------------------
# The template interpreter


def interpret_at(template: Template, smap: SourceMap, start: int, hi: int) -> Match | None:
    """The match starting exactly at start and ending by hi, if any, by a
    backtracking interpreter over the template's atoms."""
    return _Interpreter(template, smap, hi).run(start)


def _split_literal(text: str) -> list[tuple[bool, str]]:
    """(is whitespace, text) chunks of a literal atom."""
    return [(part[0].isspace(), part) for part in re.findall(r"\s+|\S+", text)]


class _Interpreter:
    def __init__(self, template: Template, smap: SourceMap, hi: int):
        self.atoms = template.atoms
        self.smap = smap
        self.src = smap.source
        self.lang = smap.language
        self.hi = hi
        self.env: dict[str, tuple[int, int]] = {}

    # -- regions, from the intervals ------------------------------------------

    def _region(self, q: int) -> Region:
        return interval_at(self.smap, q)[2]

    def _code_or_delimiter_start(self, q: int) -> bool:
        s, _, kind = interval_at(self.smap, q)
        return kind is Region.CODE or (kind is Region.STRING_DELIMITER and s == q)

    def _is_space(self, q: int) -> bool:
        """Whitespace in code, or a comment."""
        kind = self._region(q)
        return kind is Region.COMMENT or (kind is Region.CODE and self.src[q].isspace())

    def _is_bracket(self, q: int) -> bool:
        lang = self.lang
        return self._region(q) is Region.CODE and self.src[q] in lang.open_chars + lang.close_chars

    # -- entry ---------------------------------------------------------------

    def run(self, start: int) -> Match | None:
        atoms, src, lang = self.atoms, self.src, self.lang
        if atoms and isinstance(atoms[0], Hole) and atoms[0].kind in (HoleKind.EXPRESSION, HoleKind.OPTIONAL):
            # a leading hole starts only at a left-maximal unit start
            opens = lang.value_prefix_chars + lang.open_chars + "".join(o[0] for o, _, _ in lang.string_delimiters)
            if start >= len(src) or (start > 0 and lang.is_identifier_char(src[start - 1])):
                return None
            if not (lang.is_identifier_char(src[start]) or src[start] in opens):
                return None
            if atoms[0].kind is HoleKind.OPTIONAL and self._region(start) in (Region.COMMENT, Region.STRING_BODY):
                return None
        end = self._match_atoms(0, start, True)
        if end is None or end <= start:
            return None
        bindings = {}
        for name, (s, e) in self.env.items():
            line = src.count("\n", 0, s) + 1
            column = s - (src.rfind("\n", 0, s) + 1) + 1
            bindings[name] = Binding(src[s:e], s, e, line, column)
        return Match(start, end, MatchEnvironment(bindings))

    # -- atom dispatch -------------------------------------------------------

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
        if atom.kind is HoleKind.EXPRESSION:
            return self._match_expression(i, pos)
        if atom.kind is HoleKind.OPTIONAL:
            return self._match_optional(i, pos)
        if atom.kind is HoleKind.STRING_BODY:
            return self._match_string_body(i, pos)
        return self._match_everything(i, pos)

    def _match_literal(self, i: int, pos: int, prev_empty: bool) -> int | None:
        for idx, (ws, text) in enumerate(_split_literal(self.atoms[i].text)):
            if ws:
                p2 = pos
                while p2 < self.hi and self._is_space(p2):
                    p2 += 1
                if p2 == pos and not (prev_empty and idx == 0):
                    return None
                pos = p2
            else:
                if not self._match_chunk(text, pos):
                    return None
                pos += len(text)
        return pos

    def _match_chunk(self, text: str, pos: int) -> bool:
        src, ident = self.src, self.lang.is_identifier_char
        end = pos + len(text)
        if end > self.hi or src[pos:end] != text:
            return False
        if ident(text[0]) and pos > 0 and ident(src[pos - 1]):
            return False
        if ident(text[-1]) and end < len(src) and ident(src[end]):
            return False
        # starts in code or at a string delimiter, crosses no comment
        if not self._code_or_delimiter_start(pos):
            return False
        return all(self._region(q) is not Region.COMMENT for q in range(pos, end))

    def _try(self, i: int, start: int, at: int) -> int | None:
        """Bind hole i to [start, at), if named, and match the rest from at."""
        name = self.atoms[i].name
        if name:
            self.env[name] = (start, at)
        r = self._match_atoms(i + 1, at, at == start)
        if r is None and name:
            del self.env[name]
        return r

    # -- holes ---------------------------------------------------------------

    def _chain_ends(self, pos: int) -> list[int]:
        """unit_chain_ends, except that a closing string delimiter starts no
        unit."""
        smap = self.smap
        delimiters = [s for s, _, kind in smap.intervals if kind is Region.STRING_DELIMITER]
        if pos in delimiters[1::2]:  # classify's delimiters alternate open and close
            return []
        return unit_chain_ends(smap, pos, self.hi)

    def _match_expression(self, i: int, pos: int) -> int | None:
        for e in reversed(self._chain_ends(pos)):  # greedy: longest chain first
            r = self._try(i, pos, e)
            if r is not None:
                return r
        return None

    def _match_optional(self, i: int, pos: int) -> int | None:
        atoms = self.atoms
        nxt = atoms[i + 1] if i + 1 < len(atoms) else None
        empty_first = isinstance(nxt, Literal) and self._match_literal(i + 1, pos, True) is not None
        if not empty_first:
            r = self._match_expression(i, pos)
            if r is not None:
                return r
        r = self._try(i, pos, pos)
        if r is not None:
            return r
        if empty_first:
            return self._match_expression(i, pos)
        return None

    def _match_string_body(self, i: int, pos: int) -> int | None:
        if pos >= self.hi:
            return None
        s, e, kind = interval_at(self.smap, pos)
        if kind is Region.STRING_BODY and (pos == 0 or self._region(pos - 1) is not Region.STRING_BODY):
            end = pos
            while end < len(self.src) and self._region(end) is Region.STRING_BODY:
                end += 1
            if end > self.hi:
                return None
        elif kind is Region.STRING_DELIMITER and s == pos:
            end = pos  # empty string body, sitting on the close delimiter
        else:
            return None
        return self._try(i, pos, end)

    def _match_everything(self, i: int, pos: int) -> int | None:
        atoms = self.atoms
        nxt = atoms[i + 1] if i + 1 < len(atoms) else None
        if not isinstance(nxt, Literal):
            # no literal anchor: up to the window end or the enclosing close
            return self._try(i, pos, count_depth_zero_extent(self.smap, pos, self.hi))
        ws, text = _split_literal(nxt.text)[0]
        for at in self._places(pos, None if ws else text[0]):  # lazy: nearest place first
            r = self._try(i, pos, at)
            if r is not None:
                return r
        return None

    def _places(self, pos: int, anchor: str | None) -> Iterator[int]:
        """Where the next literal may start at depth zero in [pos, hi), in
        order, by a walk that jumps each group with the depth counter: in
        code and at string delimiters, at a bracket equal to the anchor
        (any bracket for a whitespace anchor, None), then at hi.  A close
        at depth zero, or an open that no close before hi takes, ends it."""
        src, hi, lang = self.src, self.hi, self.lang
        q = pos
        while q < hi:
            if self._is_bracket(q):
                if anchor is None or src[q] == anchor:
                    yield q
                if src[q] in lang.close_chars:
                    return
                close = count_depth_zero_extent(self.smap, q + 1, hi)
                if close >= hi:
                    return
                q = close + 1
                continue
            if self._code_or_delimiter_start(q):
                if anchor is None:
                    if self._region(q) is not Region.CODE or src[q].isspace():
                        yield q
                elif src[q] == anchor:
                    yield q
            q += 1
        yield hi
