"""Independent reference implementations used to cross-check the engine.

These deliberately share no evaluation machinery with the package: the
Datalog oracle recomputes every rule from scratch each round (no deltas,
no indexes) and derives stratum levels by longest-path relaxation instead
of SCC condensation.  The inner-match oracle shares only match_at, one
try at one offset, with the package: it finds each level's next match by
trying every offset in turn (where the package tries only the candidates
of the template's compiled strategy), finds the next group afresh at every
position, pairs each group by a fresh stack scan from its open
(rescan_balanced, where the package looks the pair up in the SourceMap's
per-file bracket table) and recurses once per nesting level.  The depth
counter of count_depth_zero_extent is the reference for the any-close rule
that the SourceMap's second bracket table answers, and unit_chain_ends, a
walk over the regions character by character, is the reference for the
units that the SourceMap's unit table records.  Every region question here
is answered by interval_at, a bisect over the SourceMap's intervals, never
by the kinds string the matcher reads.  Agreement between the two
implementations is the point, so keep this file boring.
"""

from __future__ import annotations

import bisect
import math
import re
from collections import deque
from typing import Iterator

from factlog.datalog import DatalogProgram, Variable
from factlog.errors import FactlogError, LanguageError
from factlog.languages import Region, SourceMap
from factlog.templates import Match, Template, compile_template, match_at


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
    template = compile_template(template, smap.language)
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
        m = match_at(template, smap, start, hi)
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
