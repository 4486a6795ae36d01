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

A spec of the shape every bundled spec has runs as one generated function
(see _generated and _SpecSource), made when the spec compiles for a
language: a flat rewrite, or a rewrite that is the one line ``$body`` of a
nested target, with every hole it reads bound.  The function is a loop over
the outer matches that templates.offset_walk yields, as offsets only, the
rule's conditions as set membership of source slices, the one nested
descent the rewrite reads as a loop over a second offset_walk, and each
planned row as a tuple display added straight to its relation's set.
Positions are computed only for holes a rewrite reads as ``.line`` or
``.column``.  Any other spec runs through the reference interpreter of
rules (``apply_rule``, in ``interpreter``), which this module imports only
when such a spec compiles.
"""

from __future__ import annotations

import bisect
import re
import sys
from collections import namedtuple
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar, Union

from .errors import FactlogError, MalformedFact, MalformedHole, SpecFormatError, read_text
from .facts import Database, parse_fact_line
from .languages import SourceMap, get_language
from .templates import (
    HOLE_NAME,
    Binding,
    MatchEnvironment,
    Property,
    Template,
    _environment,
    compile_template,
    iter_matches,
    offset_walk,
    parse_template,
)


# ---------------------------------------------------------------------------
# Rewrite templates


SubstLiteral = namedtuple("SubstLiteral", "text")
SubstLiteral.__doc__ = "SubstLiteral(text: str): rewrite text copied as it is."

Substitution = namedtuple("Substitution", "name prop offset", defaults=(Property.VALUE, 0))
Substitution.__doc__ = """Substitution(name: str, prop: Property = Property.VALUE, offset: int = 0):
a hole's text, line or column; offset is nonzero only for line/column."""

if TYPE_CHECKING:
    RewriteAtom = Union[SubstLiteral, Substitution]

ArgPlan = namedtuple("ArgPlan", "before hole after", defaults=(None, ""))
ArgPlan.__doc__ = """ArgPlan(before: str | int, hole: Substitution | None = None,
after: str | None = ""): one argument of a row plan.  Without a hole,
``before`` is a literal symbol or integer.  A hole inside quotes gives
``before`` + its text + ``after``, interned; one outside quotes (``after``
None) gives its line or column plus its offset, an integer."""

LinePlan = namedtuple("LinePlan", "template relation args target", defaults=(None, (), None))
LinePlan.__doc__ = """LinePlan(template: RewriteTemplate, relation: str | None = None,
args: tuple[ArgPlan, ...] = (), target: str | None = None): how one
non-blank rewrite line becomes facts.  With a relation it is built as a row
of args; otherwise, and at match time when a value bound inside quotes holds
a quote, a backslash or a newline, ``template`` (the line alone) takes the
text path.  ``target`` names the hole of a line that is exactly
``$target``."""


class RewriteTemplate(namedtuple("RewriteTemplate", "text atoms")):
    """RewriteTemplate(text: str, atoms: tuple[RewriteAtom, ...]): rewrite
    text and its atoms; lines plans each non-blank line."""

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


class Condition(namedtuple("Condition", "hole op value")):
    """Condition(hole: str, op: CondOp, value: str): ``$hole op "value"``."""

    __slots__ = ()

    def holds(self, text: str) -> bool:
        return (text == self.value) if self.op is CondOp.EQ else (text != self.value)


NestedRewrite = namedtuple("NestedRewrite", "target inner_match inner_rewrite")
NestedRewrite.__doc__ = """NestedRewrite(target: str, inner_match: Template, inner_rewrite:
RewriteTemplate): ``rewrite $target { inner_match -> inner_rewrite }``."""


# One hole's conditions as one test: the hole's text must be in the set
# (True) or must not be (False).
HoleTest = tuple[str, frozenset[str], bool]


RulePlan = namedtuple("RulePlan", "gates outer inner_names nested")
RulePlan.__doc__ = """RulePlan(gates: tuple[HoleTest, ...], outer: frozenset[str],
inner_names: frozenset[str], nested: tuple[tuple[tuple[HoleTest, ...],
tuple[str, ...]], ...]): a rule's conditions folded, one test per hole.
gates are tested against the outer match; outer names the holes they read
that no inner template binds, and inner_names the holes the inner templates
bind.  Per nested rewrite: the tests of its inner matches, and the outer
holes its rewrite reads."""


class RuleSpec(namedtuple("RuleSpec", "nested conditions nested_rewrites", defaults=(False, (), ()))):
    """RuleSpec(nested: bool = False, conditions: tuple[Condition, ...] = (),
    nested_rewrites: tuple[NestedRewrite, ...] = ()): a rule's items; plan
    folds them, and a copy made by _replace plans again."""

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


FactSpec = namedtuple("FactSpec", "name language match rule rewrite")
FactSpec.__doc__ = """FactSpec(name: str, language: str, match: Template, rule: RuleSpec,
rewrite: RewriteTemplate): a named (match template, rule, rewrite template)
triple for one language."""


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
    prefixed with the path.  Each spec runs as its function (see
    _spec_function): a generated one gives what the reference interpreter
    gives, the same rows and diagnostics in the same order and the same
    error.
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
    """The spec's function, made once per spec: _build_spec makes it when
    the spec compiles, and an unpickled copy of the spec, equal to it, finds
    it here, in the cache a forked --jobs worker inherits.  A spec of the
    shape _generated admits gets its generated function; any other runs
    through the reference interpreter."""
    return _SpecSource(spec).build() if _generated(spec) else _interpreted(spec)


def _generated(spec: FactSpec) -> bool:
    """Whether the spec has the shape _SpecSource writes out, in which no
    hole is unbound and no nested target is read as text: every condition
    names a hole the outer match or an inner template binds, every nested
    target is an outer hole, the outer rewrite reads only outer holes that
    are not targets or is one line that is exactly a target, and each inner
    rewrite reads only its inner match's holes and outer holes that are not
    targets."""
    outer = frozenset(spec.match.hole_names())
    nested = spec.rule.nested_rewrites
    targets = frozenset(nr.target for nr in nested)
    plain = outer - targets
    lines = spec.rewrite.lines
    return (
        spec.rule.plan.outer <= outer
        and targets <= outer
        and (plain.issuperset(_substituted(spec.rewrite)) or (len(lines) == 1 and lines[0].target in targets))
        and all(plain.union(nr.inner_match.hole_names()).issuperset(_substituted(nr.inner_rewrite)) for nr in nested)
    )


def _interpreted(spec: FactSpec) -> Callable[[SourceMap, Database, list[str], str], int]:
    """The function of a spec _SpecSource does not write out: each outer
    match through the reference interpreter, apply_rule and then _emit, its
    rows and text-path lines added once all are built."""
    from . import interpreter

    def facts(smap: SourceMap, db: Database, diagnostics: list[str], path: str) -> int:
        count = 0
        for m in iter_matches(spec.match, smap):
            count += 1
            out = interpreter.apply_rule(spec.rule, m.env, smap)
            if out is None:
                continue
            items: list = []
            interpreter._emit(spec.rewrite.lines, out.env.bindings, items, out.inner)
            for item in items:
                if type(item) is tuple:
                    db.add(*item)
                else:
                    _add_text(db, item, diagnostics, path, smap, m.start)
        return count

    return facts


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


_QUOTED = "'\"' in {v} or '\\\\' in {v} or '\\n' in {v}"


class _SpecSource:
    """The source of the facts(smap, db, diagnostics, path) of one spec of
    the generated shape (see _generated), which adds the spec's facts over
    one file to db and returns its count of outer matches.  It does what
    the reference interpreter (interpreter.py) does one match at a time,
    written out for this spec.

    The outer loop is a for loop over the matches that offset_walk's flat
    walk yields, each as its start, its end and each hole's span.  Each of
    the rule's gates tests a hole's source slice for membership in a
    constant set and continues the loop on a veto.  A flat rewrite is its
    rows.  A rewrite that is one nested target's line is a second loop of
    the same form, over the inner matches in the target's span that
    offset_walk yields (the walk iter_nested_matches, or iter_matches
    without "nested", takes), of the last nested rewrite of that target:
    its inner conditions veto the same way, its rows added straight to
    db.  No other nested rewrite is walked, as nothing reads it.

    A hole is named by its key, o{k} for the outer match's hole k and
    i{j}_{k} for hole k of nested rewrite j's inner match: s{key} and
    e{key} hold its span.  Each planned row is a tuple display of slices,
    constants and line or column arithmetic, added to its relation's set
    through Database.adder; a line or column is computed only for a hole
    that a row reads as one.  A line the plan cannot express, or a row
    whose value bound inside quotes holds a quote, a backslash or a
    newline, takes the text path: substitute over the MatchEnvironment
    that templates._environment builds from the spans, as for a Match,
    then _add_text.  Template text, hole names, condition values,
    relation names and every other spec text reach the code only as
    constants of its namespace (C0, C1, ...).
    """

    def __init__(self, spec: FactSpec):
        self.spec = spec
        self.outer = {name: f"o{k}" for k, name in enumerate(spec.match.hole_names())}
        self.consts: dict[tuple[type, object], str] = {}
        self.adders: dict[tuple[str, int], str] = {}
        self.positions = False  # whether some row reads a line or column
        self.walked: int | None = None  # the nested rewrite walked, if any

    def const(self, value: object) -> str:
        key = (type(value), value)
        name = self.consts.get(key)
        if name is None:
            name = self.consts[key] = f"C{len(self.consts)}"
        return name

    def text(self, template: RewriteTemplate, keys: dict[str, str]) -> str:
        """The text path of a line: substitute over a MatchEnvironment of
        the holes it reads, added to db."""
        names = tuple(dict.fromkeys(_substituted(template)))
        spans = ", ".join(f"s{keys[name]}, e{keys[name]}" for name in names)
        env = f"environment(smap, {self.const(names)}, ({spans}))"
        return f"add_text(db, substitute({self.const(template)}, {env}), diagnostics, path, smap, start)"

    def lines(self, lines: tuple[LinePlan, ...], keys: dict[str, str], needs: dict[str, str]) -> list[str]:
        """The code of the lines, each hole read through keys: rows and
        text-path lines added to db.  needs gets the variables the code
        reads, each with its hole's key, for the caller to set before it."""
        code = []
        for line in lines:
            if line.relation is None:
                code.append(self.text(line.template, keys))
                continue
            args, quoted = [], []
            for before, hole, after in line.args:
                if hole is None:
                    args.append(self.const(before))
                    continue
                key = keys[hole.name]
                if hole.prop is Property.VALUE:
                    value = f"v_{key}"
                    needs[value] = key
                    quoted.append(f"q_{key}")
                else:
                    self.positions = True
                    needs[f"l_{key}"] = key
                    if hole.prop is Property.COLUMN:
                        needs[f"c_{key}"] = key
                    value = f"{'l' if hole.prop is Property.LINE else 'c'}_{key}"
                    if hole.offset:
                        value += f" {'+-'[hole.offset < 0]} {abs(hole.offset)}"
                    if after is None:
                        args.append(value)
                        continue
                    value = f"str({value})"
                parts = [self.const(p) for p in (before,) if p] + [value] + [self.const(p) for p in (after,) if p]
                args.append(value if value[0] == "v" and len(parts) == 1 else f"intern({' + '.join(parts)})")
            row = f"({', '.join(args)}{',' * (len(args) == 1)})"
            adder = self.adders.setdefault((line.relation, len(args)), f"A{len(self.adders)}")
            add = [
                f"if {adder} is None:",
                f"    {adder} = claim(db, {self.const(line.relation)}, {len(args)})",
                f"{adder}({row})",
            ]
            if quoted:
                text = self.text(line.template, keys)
                code += [f"if {' or '.join(dict.fromkeys(quoted))}:", "    " + text, "else:"] + ["    " + c for c in add]
            else:
                code += add
        return code

    @staticmethod
    def prelude(needs: dict[str, str]) -> list[str]:
        """Set the variables that code reads: each value, interned, with
        whether it holds a quote, a backslash or a newline, and each line
        and column."""
        code = []
        for var, key in needs.items():
            if var[0] == "v":
                code.append(f"{var} = intern(src[s{key}:e{key}])")
                code.append(f"q_{key} = {_QUOTED.format(v=var)}")
            elif var[0] == "l":
                code.append(f"{var} = bisect_right(starts, s{key})")
            else:
                code.append(f"{var} = s{key} - starts[l_{key} - 1] + 1")
        return code

    def loop(
        self, start: str, walk: str, holes: list[str], tests: Sequence[HoleTest], keys: dict[str, str],
        body: list[str], count: bool = False,
    ) -> list[str]:
        """A for loop over the matches walk yields: start (a name, or _)
        takes each match's start, and s{key}, e{key} the span of each key
        of holes, in template order.  With count set it adds 1 to count
        first.  Each of tests, HoleTests over keys, continues the loop on a
        veto; body runs last."""
        code = ["count += 1"] if count else []
        for hole, values, keep in tests:
            span = f"s{keys[hole]}:e{keys[hole]}"
            code += [f"if src[{span}] {'not in' if keep else 'in'} {self.const(values)}:", "    continue"]
        spans = "".join(f", s{key}, e{key}" for key in holes)
        return [f"for {start}, (_{spans}) in {walk}:"] + ["    " + c for c in code + body or ["pass"]]

    def build(self) -> Callable[[SourceMap, Database, list[str], str], int]:
        outer = self.outer
        gates = [test for test in self.spec.rule.plan.gates if test[0] in outer]
        loop = self.loop("start", "outer(0, len(src))", list(outer.values()), gates, outer, self.match(), True)
        code = ["src = smap.source", "starts = smap.line_starts"] if self.positions else ["src = smap.source"]
        code.append(f"outer = offset_walk({self.const(self.spec.match)}, smap)")
        if self.walked is not None:
            inner = self.const(self.spec.rule.nested_rewrites[self.walked].inner_match)
            code.append(f"walk{self.walked} = offset_walk({inner}, smap, {self.spec.rule.nested})")
        code += [f"{adder} = None" for adder in self.adders.values()]
        code += ["count = 0", *loop, "return count"]
        namespace: dict[str, object] = {name: value for (_, value), name in self.consts.items()}
        namespace.update(
            offset_walk=offset_walk, bisect_right=bisect.bisect_right, intern=sys.intern, claim=Database.adder,
            substitute=substitute, environment=_environment, add_text=_add_text,
        )
        source = "\n".join(["def facts(smap, db, diagnostics, path):"] + ["    " + c for c in code])
        exec(compile(source, "<spec>", "exec"), namespace)
        return namespace["facts"]  # type: ignore[return-value]

    def match(self) -> list[str]:
        """The code for one outer match that its gates let through: the
        outer rewrite."""
        lines = self.spec.rewrite.lines
        target = lines[0].target if len(lines) == 1 else None
        walked = [j for j, nr in enumerate(self.spec.rule.nested_rewrites) if nr.target == target]
        if walked:
            return self.walk(walked[-1])
        needs: dict[str, str] = {}
        rows = self.lines(lines, self.outer, needs)
        return self.prelude(needs) + rows

    def walk(self, j: int) -> list[str]:
        """The code walking nested rewrite j's inner matches in its target's
        span, for one outer match, each kept one's rows added to db."""
        self.walked = j
        nr = self.spec.rule.nested_rewrites[j]
        names = nr.inner_match.hole_names()
        inner = [f"i{j}_{k}" for k in range(len(names))]
        keys = {**self.outer, **dict(zip(names, inner))}
        needs: dict[str, str] = {}
        kept = self.lines(nr.inner_rewrite.lines, keys, needs)
        kept = self.prelude({var: key for var, key in needs.items() if key[0] == "i"}) + kept
        code = self.prelude({var: key for var, key in needs.items() if key[0] == "o"})
        target = self.outer[nr.target]
        walk = f"walk{j}(s{target}, e{target})"
        return code + self.loop("_", walk, inner, self.spec.rule.plan.nested[j][0], keys, kept)
