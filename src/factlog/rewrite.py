"""Rewrite templates, rewrite rules, and template-driven fact generation.

A fact spec couples a match template with a rewrite template and an optional
rule.  The rule may re-match inside a bound hole and rewrite each inner match
into a fact line; the hole is then rebound to those lines, so the final
rewrite emits one fact per inner match:

    [match]
    func $f(...) $r? {$body*}

    [rule]
    where nested, rewrite $body { $c(...) -> edge("$f", "$c"). }

    [rewrite]
    $body

Rewrite templates substitute hole values and positional properties: ``$x`` is
the bound text, ``$x.line`` / ``$x.column`` are 1-based positions, and a
trailing ``+ n`` or ``- n`` after a positional property is folded into it at
substitution time (``next($x.line, $x.line + 1)``).

Facts are built as rows, not as text.  When a spec loads, each line of its
rewrite, and of every inner rewrite, gets a plan: the relation and, per
argument, a literal symbol or integer, a quoted argument of literal text
around one hole (``"$x"``, ``"pre$x"``, ``"$x.line"``), or an unquoted
``$x.line ± n`` / ``$x.column ± n``.  The plan is read off the fact-line
grammar itself, run over the line with a mark in each hole's place.  A line
that is exactly ``$target`` of a nested rewrite passes that rewrite's rows
through.  The text path, substitute then parse_fact_line, serves every other
line (a hole in the relation name, an unquoted ``$x``, two holes in one
quoted argument, a line the grammar rejects), and any line where a value
bound inside quotes holds ``"``, a backslash or a newline, so escapes,
malformed lines and their diagnostics read as they always have.

A record holds only its fields: ``RewriteTemplate.lines`` and a rule's
folded conditions, ``RuleSpec.plan``, sit beside them, made on first read.

A spec runs as one generated function (see _SpecSource), made when the spec
compiles for a language: the outer candidate loop over the match template's
matcher, which returns offsets only, the rule's conditions as set
membership of source slices, each nested descent as a loop over
templates.offset_walk, and each planned row as a tuple display added
straight to its relation's set.  Positions are computed only for holes a
rewrite reads as ``.line`` or ``.column``.  The reference interpreter of
rules it replaced (``apply_rule``) is in ``interpreter``, which this module
imports only when that name is read.
"""

from __future__ import annotations

import bisect
import re
import sys
from enum import Enum
from functools import cached_property, lru_cache, partial
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, TypeVar, Union

from .errors import FactlogError, MalformedFact, MalformedHole, SpecFormatError, UnboundHole, read_text
from .facts import Database, parse_fact_line
from .languages import SourceMap, get_language
from .templates import (
    HOLE_NAME,
    Binding,
    MatchEnvironment,
    Property,
    Template,
    compile_template,
    offset_matcher,
    offset_walk,
    parse_template,
)


# ---------------------------------------------------------------------------
# Rewrite templates


class SubstLiteral(NamedTuple):
    text: str


class Substitution(NamedTuple):
    name: str
    prop: Property = Property.VALUE
    offset: int = 0  # nonzero only for line/column properties


RewriteAtom = Union[SubstLiteral, Substitution]


class ArgPlan(NamedTuple):
    """One argument of a row plan.  Without a hole, ``before`` is a literal
    symbol or integer.  A hole inside quotes gives ``before`` + its text +
    ``after``, interned; one outside quotes (``after`` None) gives its line
    or column plus its offset, an integer."""

    before: str | int
    hole: Substitution | None = None
    after: str | None = ""


class LinePlan(NamedTuple):
    """How one non-blank rewrite line becomes facts.  With a relation it is
    built as a row of args; otherwise, and at match time when a value bound
    inside quotes holds a quote, a backslash or a newline, ``template`` (the
    line alone) takes the text path.  ``target`` names the hole of a line
    that is exactly ``$target``."""

    template: RewriteTemplate
    relation: str | None = None
    args: tuple[ArgPlan, ...] = ()
    target: str | None = None


class _RewriteFields(NamedTuple):
    text: str
    atoms: tuple[RewriteAtom, ...]


class RewriteTemplate(_RewriteFields):
    """Rewrite text and its atoms; lines plans each non-blank line."""

    @cached_property
    def lines(self) -> tuple[LinePlan, ...]:
        return tuple(_plan_line(line) for line in self.text.split("\n") if line.strip())


_SUBSTITUTION_RE = re.compile(
    rf"""\$(?P<name>{HOLE_NAME})?
    (?: \.(?P<prop>line|column)(?![A-Za-z0-9_])
        (?: [ \t]*(?P<sign>[+-])[ \t]*(?P<digits>\d+) )?
      | \.value(?![A-Za-z0-9_])
    )?""",
    re.VERBOSE,
)


def parse_rewrite_template(text: str) -> RewriteTemplate:
    """Parse rewrite text into literal and substitution atoms, and plan
    each of its lines."""
    template = RewriteTemplate(text, _parse_atoms(text))
    template.lines  # planned here, when its spec loads
    return template


def _parse_atoms(text: str) -> tuple[RewriteAtom, ...]:
    atoms: list[RewriteAtom] = []
    pos = 0
    for m in _SUBSTITUTION_RE.finditer(text):
        start = m.start()
        if m["name"] is None:
            raise MalformedHole(f"'$' at offset {start} is not followed by a hole name")
        if start > pos:
            atoms.append(SubstLiteral(text[pos:start]))
        offset = int(m["sign"] + m["digits"]) if m["sign"] else 0
        atoms.append(Substitution(m["name"], Property(m["prop"] or "value"), offset))
        pos = m.end()
    if pos < len(text):
        atoms.append(SubstLiteral(text[pos:]))
    return tuple(atoms)


def _plan_line(text: str) -> LinePlan:
    """Plan one line by running the fact-line grammar over it with a mark
    for each hole: a private-use character the line lacks for a value, and
    for a position "9" and 17 octal digits, which no other mark contains
    and no overlap of two copies can spell.  Each argument is then a
    literal, or holds one mark with the literal text around it.  A line the
    grammar rejects, or where a mark is not alone in one argument, follows
    a backslash or (a digit mark) a digit, keeps the text path."""
    template = RewriteTemplate(text, _parse_atoms(text))
    holes = [a for a in template.atoms if isinstance(a, Substitution)]
    if len(holes) == 1 and holes[0].prop is Property.VALUE:
        if all(a is holes[0] or a.text.isspace() for a in template.atoms):
            return LinePlan(template, target=holes[0].name)
    unused = (chr(c) for c in range(0xE000, 0xF900) if chr(c) not in text)
    marks: dict[str, Substitution] = {}
    parts = []
    for atom in template.atoms:
        if isinstance(atom, SubstLiteral):
            parts.append(atom.text)
            continue
        mark = next(unused) if atom.prop is Property.VALUE else f"9{len(marks):017o}"
        marks[mark] = atom
        parts.append(mark)
    probe = "".join(parts)
    for mark in marks:
        at = probe.find(mark)
        before = probe[at - 1 : at]
        if probe.count(mark) > 1 or before == "\\" or (mark.isdigit() and before.isdigit()):
            return LinePlan(template)
    try:
        fact = parse_fact_line(probe)
    except MalformedFact:
        return LinePlan(template)
    args = []
    for value in fact.args:
        if isinstance(value, int):
            hole = marks.pop(str(value), None)
            args.append(ArgPlan(value) if hole is None else ArgPlan("", hole, None))
            continue
        inside = [mark for mark in marks if mark in value]
        if not inside:
            args.append(ArgPlan(value))
        elif len(inside) == 1 and value.count(inside[0]) == 1:
            before, after = value.split(inside[0])
            args.append(ArgPlan(before, marks.pop(inside[0]), after))
        else:
            return LinePlan(template)
    if marks:  # a mark landed in the relation name or inside a longer integer
        return LinePlan(template)
    return LinePlan(template, fact.relation, tuple(args))


def substitute(template: RewriteTemplate, env: MatchEnvironment) -> str:
    """Instantiate a rewrite template against bound holes."""
    return "".join([
        atom.text if isinstance(atom, SubstLiteral) else _render(atom, env[atom.name])
        for atom in template.atoms
    ])


def _render(atom: Substitution, b: Binding) -> str:
    if atom.prop is Property.VALUE:
        return b.text
    if atom.prop is Property.LINE:
        return str(b.line + atom.offset)
    return str(b.column + atom.offset)


# ---------------------------------------------------------------------------
# Rewrite rules


class CondOp(Enum):
    EQ = "=="
    NEQ = "!="


class Condition(NamedTuple):
    hole: str
    op: CondOp
    value: str

    def holds(self, text: str) -> bool:
        return (text == self.value) if self.op is CondOp.EQ else (text != self.value)


class NestedRewrite(NamedTuple):
    target: str
    inner_match: Template
    inner_rewrite: RewriteTemplate


# One hole's conditions as one test: the hole's text must be in the set
# (True) or must not be (False).
HoleTest = tuple[str, frozenset[str], bool]


class RulePlan(NamedTuple):
    """A rule's conditions folded, one test per hole.  gates are tested
    against the outer match; outer names the holes they read that no inner
    template binds, and inner_names the holes the inner templates bind.  Per
    nested rewrite: the tests of its inner matches, and the outer holes its
    rewrite reads."""

    gates: tuple[HoleTest, ...]
    outer: frozenset[str]
    inner_names: frozenset[str]
    nested: tuple[tuple[tuple[HoleTest, ...], tuple[str, ...]], ...]


class _RuleFields(NamedTuple):
    nested: bool = False
    conditions: tuple[Condition, ...] = ()
    nested_rewrites: tuple[NestedRewrite, ...] = ()


class RuleSpec(_RuleFields):
    """A rule's items; plan folds them, and a copy made by _replace plans again."""

    @cached_property
    def plan(self) -> RulePlan:
        return _plan_rule(self.conditions, self.nested_rewrites)


def _plan_rule(conditions: tuple[Condition, ...], nested_rewrites: tuple[NestedRewrite, ...]) -> RulePlan:
    inner_names = frozenset(name for nr in nested_rewrites for name in nr.inner_match.hole_names())
    nested = []
    for nr in nested_rewrites:
        names = set(nr.inner_match.hole_names())
        # every inner match binds all of its holes, which hide the outer ones
        outer = dict.fromkeys(name for name in _substituted(nr.inner_rewrite) if name not in names)
        nested.append((_fold([c for c in conditions if c.hole in names]), tuple(outer)))
    outer_holes = frozenset(c.hole for c in conditions if c.hole not in inner_names)
    return RulePlan(_fold(conditions), outer_holes, inner_names, tuple(nested))


def _fold(conditions: Sequence[Condition]) -> tuple[HoleTest, ...]:
    """One test per hole, in the order the holes first appear."""
    tests = []
    for hole in dict.fromkeys(c.hole for c in conditions):
        eq = {c.value for c in conditions if c.hole == hole and c.op is CondOp.EQ}
        neq = {c.value for c in conditions if c.hole == hole and c.op is CondOp.NEQ}
        if eq:
            # == admits one text at most: none when two differ or a != excludes it
            tests.append((hole, frozenset(eq if len(eq) == 1 and not eq & neq else ()), True))
        else:
            tests.append((hole, frozenset(neq), False))
    return tuple(tests)


EMPTY_RULE = RuleSpec()


_WHERE_RE = re.compile(r"where(?![A-Za-z0-9_])")
_RULE_ITEM_RE = re.compile(
    rf"""\s*(?:
        (?P<nested>nested)(?![A-Za-z0-9_])
      | \$\s*(?P<hole>{HOLE_NAME})\s*(?P<op>==|!=)\s*"(?P<value>(?:\\.|[^"\\])*)(?P<closed>"?)
      | rewrite\s*\$\s*(?P<target>{HOLE_NAME})\s*\{{
    )""",
    re.VERBOSE | re.DOTALL,
)
_RULE_SEPARATOR_RE = re.compile(r"\s*(?:,|\Z)")
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
# inside a rewrite clause's braces: a string, which is opaque, an arrow or a brace
_CLAUSE_TOKEN_RE = re.compile(r'"(?:\\.|[^"\\])*"?|->|[{}]', re.DOTALL)


def parse_rule(text: str) -> RuleSpec:
    """Parse ``where nested, $h != "lit", rewrite $h { tin -> tout }``."""
    src = text.strip()
    if not src:
        return EMPTY_RULE
    m = _WHERE_RE.match(src)
    if m is None:
        raise SpecFormatError(f"rule must start with 'where': {src[:40]!r}")
    nested = False
    conditions: list[Condition] = []
    rewrites: list[NestedRewrite] = []
    pos = m.end()
    while pos < len(src):
        m = _RULE_ITEM_RE.match(src, pos)
        if m is None:
            raise SpecFormatError(f"unexpected rule item at {src[pos:].lstrip()[:40]!r}")
        pos = m.end()
        if m["nested"]:
            nested = True
        elif m["hole"]:
            if not m["closed"]:
                raise SpecFormatError(f"unterminated string in condition on ${m['hole']}")
            conditions.append(Condition(m["hole"], CondOp(m["op"]), _ESCAPE_RE.sub(r"\1", m["value"])))
        else:
            arrow, close = _clause_body(src, pos)
            if arrow == -1:
                raise SpecFormatError(f"rewrite clause for ${m['target']} lacks '->'")
            inner_match = parse_template(src[pos:arrow].strip())
            inner_rewrite = parse_rewrite_template(src[arrow + 2 : close].strip())
            rewrites.append(NestedRewrite(m["target"], inner_match, inner_rewrite))
            pos = close + 1
        m = _RULE_SEPARATOR_RE.match(src, pos)
        if m is None:
            raise SpecFormatError(f"expected ',' between rule items at {src[pos:].lstrip()[:40]!r}")
        pos = m.end()
    return RuleSpec(nested, tuple(conditions), tuple(rewrites))


def _clause_body(text: str, pos: int) -> tuple[int, int]:
    """The offsets of the first '->' (or -1) and of the '}' that closes the
    '{' before pos.  Braces nest but the arrow counts at any depth."""
    depth = 0
    arrow = -1
    for m in _CLAUSE_TOKEN_RE.finditer(text, pos):
        token = m[0]
        if token == "->" and arrow == -1:
            arrow = m.start()
        elif token == "{":
            depth += 1
        elif token == "}":
            if depth == 0:
                return arrow, m.start()
            depth -= 1
    raise SpecFormatError("unterminated '{' in rewrite clause")


# ---------------------------------------------------------------------------
# Fact specs


class FactSpec(NamedTuple):
    """A named (match template, rule, rewrite template) triple for one language."""

    name: str
    language: str
    match: Template
    rule: RuleSpec
    rewrite: RewriteTemplate


_SECTIONS = ("match", "rule", "rewrite")
_T = TypeVar("_T")


def parse_fact_spec(text: str, name: str = "spec", language: str = "") -> FactSpec:
    """Parse the three-section spec format ([match], [rule], [rewrite]).

    With a language, the match template and every inner template are
    compiled for it here, once.  An error starts with ``name:line:``.
    """
    return _build_spec(_split_sections(text, name), name, language, name)


def _build_spec(
    sections: dict[str, list[tuple[int, str]]], name: str, language: str, origin: str | Path
) -> FactSpec:
    for required in ("match", "rewrite"):
        if required not in sections:
            raise SpecFormatError(f"{origin}:1: missing [{required}] section")
    match = _parse_section(parse_template, sections["match"], origin)
    if not match.atoms:
        raise SpecFormatError(f"{origin}:{sections['match'][0][0]}: [match] section is empty")
    rule = _parse_section(parse_rule, sections["rule"], origin) if "rule" in sections else EMPTY_RULE
    if language:
        lang = get_language(language)
        match = compile_template(match, lang)
        inner = tuple(nr._replace(inner_match=compile_template(nr.inner_match, lang)) for nr in rule.nested_rewrites)
        rule = rule._replace(nested_rewrites=inner)
    spec = FactSpec(name, language, match, rule, _parse_section(parse_rewrite_template, sections["rewrite"], origin))
    if language:
        _spec_function(spec)  # generated here, when the spec compiles
    return spec


# A line ends where an editor ends it, at "\n", "\r\n" or "\r", as when
# read_text reads a spec file; not at the form feed, U+2028 and the other
# separators that str.splitlines() also breaks at, which a template or a
# rewrite may hold.
_LINE_END_RE = re.compile(r"\r\n?|\n")


def _split_sections(text: str, origin: str | Path) -> dict[str, list[tuple[int, str]]]:
    """Section name -> its (1-based line number, raw line) pairs, header first."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for number, raw in enumerate(_LINE_END_RE.split(text), 1):
        stripped = raw.strip()
        if stripped.startswith("[") and stripped.endswith("]") and stripped[1:-1] in _SECTIONS:
            current = stripped[1:-1]
            if current in sections:
                raise SpecFormatError(f"{origin}:{number}: duplicate [{current}] section")
            sections[current] = [(number, raw)]
        elif current is not None:
            sections[current].append((number, raw))
        elif stripped and not stripped.startswith("#"):
            raise SpecFormatError(f"{origin}:{number}: text before the first section header: {stripped!r}")
    return sections


def _parse_section(parse: Callable[[str], _T], lines: list[tuple[int, str]], origin: str | Path) -> _T:
    """parse applied to a section's lines after its header, less leading and
    trailing blank ones; an error names the line where that text starts."""
    filled = [i for i, (_, raw) in enumerate(lines) if i and raw.strip()]
    body = lines[filled[0] : filled[-1] + 1] if filled else []
    try:
        return parse("\n".join(raw for _, raw in body))
    except FactlogError as exc:
        raise type(exc)(f"{origin}:{(body or lines)[0][0]}: {exc}") from None


def load_fact_spec(path: str | Path, language: str = "") -> FactSpec:
    """Parse a spec file and check that every hole its [rule] and [rewrite]
    name is bound, whether or not any source ever matches."""
    path = Path(path)
    sections = _split_sections(read_text(path), path)
    spec = _build_spec(sections, path.stem, language, path)
    unbound = _unbound_holes(spec)
    if unbound:
        section, hole = unbound[0]
        pattern = re.compile(rf"\${hole}(?![A-Za-z0-9_])")
        number = next((n for n, raw in sections[section] if pattern.search(raw)), sections[section][0][0])
        raise SpecFormatError(f"{path}:{number}: hole ${hole} is bound by neither the match nor an inner template")
    return spec


def _unbound_holes(spec: FactSpec) -> list[tuple[str, str]]:
    """(section, hole) for every hole the rule or rewrite reads that no
    match binds at that point, in the order apply_rule reads them."""
    bound = set(spec.match.hole_names())
    inner = spec.rule.plan.inner_names
    out = [("rule", c.hole) for c in spec.rule.conditions if c.hole not in bound | inner]
    for nr in spec.rule.nested_rewrites:
        if nr.target not in bound:
            out.append(("rule", nr.target))
        visible = bound | set(nr.inner_match.hole_names())
        out += [("rule", name) for name in _substituted(nr.inner_rewrite) if name not in visible]
    out += [("rewrite", name) for name in _substituted(spec.rewrite) if name not in bound]
    return out


def _substituted(template: RewriteTemplate) -> list[str]:
    return [a.name for a in template.atoms if isinstance(a, Substitution)]




# ---------------------------------------------------------------------------
# Fact generation


def facts_for_smap(
    specs: tuple[FactSpec, ...], smap: SourceMap, path: str
) -> tuple[Database, dict[str, int], list[str]]:
    """Run fact specs over one classified source file.

    Returns the file's facts, the outer-template match count per spec name,
    and diagnostics (classifier warnings, then dropped fact lines), each
    prefixed with the path.  Each spec runs as its generated function (see
    _SpecSource), which gives what the reference interpreter gives: the
    same rows and diagnostics in the same order, and the same error, an
    unbound hole raising before a row's arity does.
    """
    db = Database()
    matches: dict[str, int] = {}
    diagnostics = [f"{path}: {w}" for w in smap.warnings]
    for spec in specs:
        count = _spec_function(spec)(smap, db, diagnostics, path)
        matches[spec.name] = matches.get(spec.name, 0) + count
    return db, matches, diagnostics


@lru_cache(maxsize=256)
def _spec_function(spec: FactSpec) -> Callable[[SourceMap, Database, list[str], str], int]:
    """The spec's generated function, made once per spec: _build_spec makes
    it when the spec compiles, and an unpickled copy of the spec, equal to
    it, finds it here, in the cache a forked --jobs worker inherits."""
    return _SpecSource(spec).build()


def _add_text(db: Database, text: str, diagnostics: list[str], path: str, smap: SourceMap, start: int) -> None:
    """The text path: the text split at "\\n" only, as Database.from_dl_text
    splits it (a bound string may hold a form feed or another separator
    that splitlines() honours), and each line parsed and added; a line the
    grammar rejects is dropped, with a diagnostic naming the outer match's
    line."""
    for raw in text.split("\n"):
        line = raw.strip()
        if not line:
            continue
        try:
            db.add_fact(parse_fact_line(line))
        except MalformedFact as exc:
            diagnostics.append(f"{path}:{smap.line_of(start)}: dropped bad fact line: {exc}")


def _add_items(db: Database, items: list, diagnostics: list[str], path: str, smap: SourceMap, start: int) -> None:
    """Add a nested rewrite's kept items, rows as (relation, row) and
    text-path lines as text, in order."""
    for item in items:
        if type(item) is tuple:
            db.add(*item)
        else:
            _add_text(db, item, diagnostics, path, smap, start)


class _Ref(NamedTuple):
    """Where one hole's value comes from at one place of the generated
    code.  key names its value and quote variables, pos its line and column
    variables, and start and end the variables of its span; joined names
    the variable holding a nested target's joined inner rewrites, when the
    hole is one."""

    key: str
    pos: str
    start: str
    end: str
    joined: str | None = None


# The generated function: the outer candidate loop, written out so that a
# flat template's many matches pay no generator resume each.
_FUNCTION = """\
def facts(smap, db, diagnostics, path):
    src = smap.source
    n = len(src)
    line_col = smap.line_col
{setup}    nt = bisect_left(table, n)
    count = 0
    i = 0
    while i < nt:
        start = table[i]
        r = match(start, n)
        if r is None:
            i += 1
            continue
        count += 1
        i = bisect_left(table, r[0], i + 1)
{body}    return count
"""
_QUOTED = "'\"' in {v} or '\\\\' in {v} or '\\n' in {v}"


def _indent(code: list[str], pad: str) -> str:
    return "".join(f"{pad}{line}\n" for line in code)


class _SpecSource:
    """The source of one spec's facts(smap, db, diagnostics, path), which
    adds the spec's facts over one file to db and returns its count of
    outer matches.  It does what the reference interpreter (interpreter.py)
    does one match at a time, written out for this spec.

    The outer loop walks the template's candidate table and calls its
    matcher, which returns the match's end and each hole's span.  The
    rule's gates test a hole's source slice for membership in a constant
    set and continue the loop on a veto.  Each nested rewrite loops over
    the inner matches in the target's span that offset_walk yields, the
    walk iter_nested_matches (or iter_matches, without "nested") takes, and
    tests its inner conditions the same way.  Each planned row is a tuple
    display of slices, constants and line or column arithmetic, added to
    its relation's set through Database.adder; a line or column is computed
    only for a hole that a row reads as one.  A line the plan cannot
    express, or a row whose value bound inside quotes holds a quote, a
    backslash or a newline, takes the text path: substitute over a
    MatchEnvironment built there, then _add_text.

    A nested rewrite's rows are added as its inner matches come when the
    outer rewrite is exactly its target's line and nothing after it can
    raise; otherwise they are kept in a list and added where the outer
    rewrite names the target, as the interpreter adds them.  A joined
    target's text is built only when a line reads it, and a nested rewrite
    whose rows, text and errors nothing reads is not walked at all.  Which
    holes are bound where is known here, so an unbound hole is a raise at
    the place the interpreter would raise it.  Template text, hole names,
    condition values, relation names and every other spec text reach the
    code only as constants of its namespace (C0, C1, ...).
    """

    def __init__(self, spec: FactSpec):
        self.spec = spec
        self.outer = {name: k for k, name in enumerate(spec.match.hole_names())}
        self.nested = spec.rule.nested_rewrites
        self.consts: dict[tuple[type, object], str] = {}
        self.adders: dict[tuple[str, int], str] = {}
        self.positions = False  # whether some row reads a line or column
        self.walks: list[int] = []  # the nested rewrites walked, in order

    def const(self, value: object) -> str:
        key = (type(value), value)
        name = self.consts.get(key)
        if name is None:
            name = self.consts[key] = f"C{len(self.consts)}"
        return name

    def outer_ref(self, name: str, upto: int) -> _Ref | None:
        """The outer hole, as nested rewrites before upto have rebound it."""
        k = self.outer.get(name)
        if k is None:
            return None
        joined = next((f"J{j}" for j in reversed(range(upto)) if self.nested[j].target == name), None)
        return _Ref(joined or f"o{k}", f"o{k}", f"so{k}", f"eo{k}", joined)

    def inner_ref(self, j: int, name: str) -> _Ref | None:
        """A hole of nested rewrite j's inner rewrite: its inner match's
        holes hide the outer ones."""
        names = self.nested[j].inner_match.hole_names()
        if name not in names:
            return self.outer_ref(name, j)
        key = f"i{j}_{names.index(name)}"
        return _Ref(key, key, f"s{key}", f"e{key}")

    @staticmethod
    def reads(lines: tuple[LinePlan, ...], resolve, passed=frozenset()) -> list[tuple[str, _Ref | None]]:
        """Each hole the lines read, in the order that building them reads
        it, resolved; a line that passes a nested target's items through
        reads nothing."""
        return [
            (name, resolve(name))
            for line in lines
            if not (line.relation is None and line.target in passed)
            for name in _substituted(line.template)
        ]

    def raise_unbound(self, reads) -> list[str]:
        """A raise of the first unbound hole read, or nothing."""
        name = next((name for name, ref in reads if ref is None), None)
        return [] if name is None else [f"raise UnboundHole({self.const(f'hole ${name} is not bound')})"]

    def text_path(self, template: RewriteTemplate, resolve, items: str | None) -> str:
        """The text path of a line: its text added to db, or appended to
        the list items when that is set."""
        text = self.text(template, resolve)
        return f"add_text(db, {text}, diagnostics, path, smap, start)" if items is None else f"{items}.append({text})"

    def text(self, template: RewriteTemplate, resolve) -> str:
        """substitute over a MatchEnvironment of the holes template reads."""
        holes = []
        for name in dict.fromkeys(_substituted(template)):
            ref = resolve(name)
            value = ref.joined or f"src[{ref.start}:{ref.end}]"
            holes.append(f"{self.const(name)}: new(Binding, ({value}, {ref.start}, {ref.end}) + line_col({ref.start}))")
        return f"substitute({self.const(template)}, MatchEnvironment({{{', '.join(holes)}}}))"

    def lines(self, lines, resolve, items: str | None, passed: dict[str, str | None], needs: dict[str, _Ref]) -> list[str]:
        """The code of the lines: rows and text-path lines added to db, or
        appended to the list items when it is set.  passed maps each nested
        target whose line passes its items through to its list, or to None
        when they were added already.  needs gets the variables the code
        reads, for the caller to set before it."""
        code = []
        for line in lines:
            if line.relation is None and line.target in passed:
                if passed[line.target] is not None:
                    code.append(f"add_items(db, {passed[line.target]}, diagnostics, path, smap, start)")
                continue
            if line.relation is None:
                code.append(self.text_path(line.template, resolve, items))
                continue
            args, quoted = [], []
            for before, hole, after in line.args:
                if hole is None:
                    args.append(self.const(before))
                    continue
                ref = resolve(hole.name)
                if hole.prop is Property.VALUE:
                    value = f"v_{ref.key}"
                    needs[value] = ref
                    quoted.append(f"q_{ref.key}")
                else:
                    self.positions = True
                    needs[f"l_{ref.pos}"] = ref
                    if hole.prop is Property.COLUMN:
                        needs[f"c_{ref.pos}"] = ref
                    value = f"{'l' if hole.prop is Property.LINE else 'c'}_{ref.pos}"
                    if hole.offset:
                        value += f" {'+-'[hole.offset < 0]} {abs(hole.offset)}"
                    if after is None:
                        args.append(value)
                        continue
                    value = f"str({value})"
                parts = [self.const(p) for p in (before,) if p] + [value] + [self.const(p) for p in (after,) if p]
                args.append(value if value[0] == "v" and len(parts) == 1 else f"intern({' + '.join(parts)})")
            row = f"({', '.join(args)}{',' * (len(args) == 1)})"
            if items is None:
                adder = self.adders.setdefault((line.relation, len(args)), f"A{len(self.adders)}")
                add = [
                    f"if {adder} is None:",
                    f"    {adder} = claim(db, {self.const(line.relation)}, {len(args)})",
                    f"{adder}({row})",
                ]
            else:
                add = [f"{items}.append(({self.const(line.relation)}, {row}))"]
            if quoted:
                text = self.text_path(line.template, resolve, items)
                code += [f"if {' or '.join(dict.fromkeys(quoted))}:", "    " + text, "else:"] + ["    " + c for c in add]
            else:
                code += add
        return code

    @staticmethod
    def prelude(needs: dict[str, _Ref]) -> list[str]:
        """Set the variables that code reads: each value, interned, with
        whether it holds a quote, a backslash or a newline, and each line
        and column."""
        code = []
        for var, ref in needs.items():
            if var[0] == "v":
                code.append(f"{var} = intern({ref.joined or f'src[{ref.start}:{ref.end}]'})")
                code.append(f"q_{ref.key} = {_QUOTED.format(v=var)}")
            elif var[0] == "l":
                code.append(f"{var} = bisect_right(starts, {ref.start})")
            else:
                code.append(f"{var} = {ref.start} - starts[l_{ref.pos} - 1] + 1")
        return code

    def build(self) -> Callable[[SourceMap, Database, list[str], str], int]:
        body = _indent(self.match(), "        ")
        setup = ["starts = smap.line_starts"] if self.positions else []
        setup.append(f"table, match = offset_matcher({self.const(self.spec.match)}, smap)")
        for j in self.walks:
            inner = self.const(self.nested[j].inner_match)
            setup.append(f"walk{j} = offset_walk({inner}, smap, {self.spec.rule.nested})")
        setup += [f"{adder} = None" for adder in self.adders.values()]
        namespace: dict[str, object] = {name: value for (_, value), name in self.consts.items()}
        namespace.update(
            offset_matcher=offset_matcher, offset_walk=offset_walk, bisect_left=bisect.bisect_left,
            bisect_right=bisect.bisect_right, intern=sys.intern, claim=Database.adder, substitute=substitute,
            MatchEnvironment=MatchEnvironment, Binding=Binding, new=tuple.__new__, add_text=_add_text,
            add_items=_add_items, UnboundHole=UnboundHole,
        )
        source = _FUNCTION.format(setup=_indent(setup, "    "), body=body)
        exec(compile(source, "<spec>", "exec"), namespace)
        return namespace["facts"]  # type: ignore[return-value]

    def match(self) -> list[str]:
        """The code for one outer match r at start: the rule, then the
        outer rewrite."""
        rule, nested, outer = self.spec.rule, self.nested, self.outer
        code = [f"_, {', '.join(f'so{k}, eo{k}' for k in outer.values())} = r"] if outer else []
        if rule.conditions or nested:
            plan = rule.plan
            if not plan.outer <= outer.keys():
                # a condition names a hole no match binds: the conditions in
                # order, up to that one, which raises
                for cond in rule.conditions:
                    if cond.hole in outer:
                        op = "!=" if cond.op is CondOp.EQ else "=="
                        code += [f"if src[so{outer[cond.hole]}:eo{outer[cond.hole]}] {op} {self.const(cond.value)}:", "    continue"]
                    elif cond.hole not in plan.inner_names:
                        msg = self.const(f"condition names unbound hole ${cond.hole}")
                        return code + [f"raise UnboundHole({msg})"]
            for hole, values, keep in plan.gates:
                if hole in outer:
                    k = outer[hole]
                    code += [f"if src[so{k}:eo{k}] {'not in' if keep else 'in'} {self.const(values)}:", "    continue"]
        lines = self.spec.rewrite.lines
        resolve = partial(self.outer_ref, upto=len(nested))
        targets = frozenset(nr.target for nr in nested)
        reads = self.reads(lines, resolve, targets)
        raises = self.raise_unbound(reads)
        inner = [self.reads(nr.inner_rewrite.lines, partial(self.inner_ref, j)) for j, nr in enumerate(nested)]
        inner_raises = [self.raise_unbound(r) for r in inner]
        # what each nested rewrite must give: its items, where the outer
        # rewrite passes them through, its joined text, where a line after
        # it reads that, and its raise; a rewrite that gives none of them
        # is not walked
        passed = {line.target for line in lines if line.relation is None} & targets
        last = {nr.target: j for j, nr in enumerate(nested)}
        emits = [not raises and last[nr.target] == j and nr.target in passed for j, nr in enumerate(nested)]
        joined = set() if raises else {ref.joined for _, ref in reads if ref is not None}
        walked = [False] * len(nested)
        for j in reversed(range(len(nested))):
            walked[j] = emits[j] or f"J{j}" in joined or bool(inner_raises[j])
            if walked[j] and not inner_raises[j]:
                joined |= {ref.joined for _, ref in inner[j]}
        items: dict[str, str | None] = {}
        for j, nr in enumerate(nested):
            if nr.target not in outer:
                return code + [f"raise UnboundHole({self.const(f'hole ${nr.target} is not bound')})"]
            if not walked[j]:
                continue
            # rows go straight to db when the outer rewrite is this target's
            # line alone and no later nested rewrite can raise
            later = nested[j + 1 :]
            stream = len(lines) == 1 and all(n.target in outer and not r for n, r in zip(later, inner_raises[j + 1 :]))
            if emits[j]:
                items[nr.target] = None if stream else f"I{j}"
            code += self.walk(j, inner_raises[j], items[nr.target] if emits[j] else None, emits[j], f"J{j}" in joined)
        if raises:
            return code + raises
        needs: dict[str, _Ref] = {}
        rows = self.lines(lines, resolve, None, items, needs)
        return code + self.prelude(needs) + rows

    def walk(self, j: int, raises: list[str], items: str | None, emit: bool, join: bool) -> list[str]:
        """The code walking nested rewrite j's inner matches in its target's
        span, for one outer match: its rows added, or appended to the list
        items when that is set, when emit is; and the joined text J{j} when
        join is."""
        self.walks.append(j)
        nr = self.nested[j]
        resolve = partial(self.inner_ref, j)
        names = nr.inner_match.hole_names()
        needs: dict[str, _Ref] = {}
        kept = list(raises)
        if emit and not raises:
            kept += self.lines(nr.inner_rewrite.lines, resolve, items, {}, needs)
        if join and not raises:
            kept.append(f"K{j}.append({self.text(nr.inner_rewrite, resolve)})")
        inner = {var: ref for var, ref in needs.items() if ref.start.startswith("si")}
        kept = self.prelude(inner) + kept
        tests = [
            f"src[si{j}_{names.index(hole)}:ei{j}_{names.index(hole)}] {'in' if keep else 'not in'} {self.const(values)}"
            for hole, values, keep in self.spec.rule.plan.nested[j][0]
        ]
        if tests and kept:
            kept = [f"if {' and '.join(tests)}:"] + ["    " + c for c in kept]
        code = self.prelude({var: ref for var, ref in needs.items() if var not in inner})
        code += [f"I{j} = []"] * (items is not None) + [f"K{j} = []"] * join
        target = self.outer_ref(nr.target, 0)
        spans = "".join(f", si{j}_{k}, ei{j}_{k}" for k in range(len(names)))
        code.append(f"for _, (_{spans}) in walk{j}({target.start}, {target.end}):")
        code += ["    " + c for c in kept or ["pass"]]
        return code + [f"J{j} = '\\n'.join(K{j})"] * join


# The reference interpreter's names resolve here, from the module that keeps
# it, on first read (PEP 562), so a run over sources never compiles it.
_INTERPRETER_NAMES = ("RuleOutput", "apply_rule")


def __getattr__(name: str):
    if name not in _INTERPRETER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import interpreter

    return getattr(interpreter, name)
