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
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, TypeVar, Union

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
    iter_matches,
    iter_nested_matches,
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


class RewriteTemplate(NamedTuple):
    """Rewrite text, its atoms and the plan of each non-blank line.  The
    plans follow from the text, so repr leaves them out."""

    text: str
    atoms: tuple[RewriteAtom, ...]
    lines: tuple[LinePlan, ...]

    def __repr__(self) -> str:
        return f"RewriteTemplate(text={self.text!r}, atoms={self.atoms!r})"


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
    atoms = _parse_atoms(text)
    lines = tuple(_plan_line(line) for line in text.split("\n") if line.strip())
    return RewriteTemplate(text, atoms, lines)


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
    template = RewriteTemplate(text, _parse_atoms(text), ())
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


class RuleSpec(NamedTuple):
    nested: bool = False
    conditions: tuple[Condition, ...] = ()
    nested_rewrites: tuple[NestedRewrite, ...] = ()

    def inner_hole_names(self) -> set[str]:
        names: set[str] = set()
        for nr in self.nested_rewrites:
            names.update(nr.inner_match.hole_names())
        return names


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
    return FactSpec(name, language, match, rule, _parse_section(parse_rewrite_template, sections["rewrite"], origin))


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
    inner = spec.rule.inner_hole_names()
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
# Rule application


class RuleOutput(NamedTuple):
    """A match after its rule.  In env, a nested target is bound to its
    inner rewrites joined by newlines, built when env first reads it; inner
    holds each nested target's rows and text-path lines, in order."""

    env: MatchEnvironment
    inner: dict[str, list]


def apply_rule(rule: RuleSpec, env: MatchEnvironment, smap: SourceMap) -> RuleOutput | None:
    """Apply conditions and nested rewrites; None means the rule vetoed the match.

    Conditions on holes bound by the outer match gate the whole rule;
    conditions naming holes bound only inside nested rewrites filter the
    individual inner matches instead.
    """
    inner_names = rule.inner_hole_names()
    for cond in rule.conditions:
        if cond.hole in env:
            if not cond.holds(env[cond.hole].text):
                return None
        elif cond.hole not in inner_names:
            raise UnboundHole(f"condition names unbound hole ${cond.hole}")
    bindings = _Bindings(env.bindings)
    inner: dict[str, list] = {}
    inner_matches = iter_nested_matches if rule.nested else iter_matches
    for nr in rule.nested_rewrites:
        target = env[nr.target]
        names = set(nr.inner_match.hole_names())
        # every inner match binds all of its holes, which hide the outer ones
        conditions = [c for c in rule.conditions if c.hole in names]
        outer = {}
        for name in _substituted(nr.inner_rewrite):
            if name not in names:
                try:
                    outer[name] = bindings[name]
                except KeyError:
                    pass  # unbound: the first inner match that is kept raises
        items: list = []
        kept = []
        for m in inner_matches(nr.inner_match, smap, target.start, target.end):
            found = m.env.bindings
            for cond in conditions:
                if not cond.holds(found[cond.hole].text):
                    break
            else:
                found = {**found, **outer} if outer else found
                _emit(nr.inner_rewrite.lines, found, items)
                kept.append(found)
        inner[nr.target] = items
        bindings.defer(nr.target, partial(_joined, nr.inner_rewrite, kept, target))
    return RuleOutput(MatchEnvironment(bindings), inner)


class _Bindings(dict):
    """Bindings in which a deferred hole is bound on its first read."""

    def __init__(self, bindings: dict[str, Binding]):
        super().__init__(bindings)
        self.deferred: dict[str, Callable[[], Binding]] = {}

    def defer(self, name: str, bind: Callable[[], Binding]) -> None:
        self.pop(name, None)
        self.deferred[name] = bind

    def __missing__(self, name: str) -> Binding:
        binding = self[name] = self.deferred.pop(name)()
        return binding


def _joined(template: RewriteTemplate, kept: list[dict[str, Binding]], target: Binding) -> Binding:
    text = "\n".join([substitute(template, MatchEnvironment(found)) for found in kept])
    return target._replace(text=text)


# ---------------------------------------------------------------------------
# Fact generation


def _emit(
    lines: tuple[LinePlan, ...], bindings: dict[str, Binding], items: list, inner: dict[str, list] | None = None
) -> None:
    """Append each line's row as (relation, row), or its text for the text
    path; a line that is exactly a nested target's hole appends that
    target's inner items instead."""
    for line in lines:
        if line.relation is not None:
            try:
                row = _row(line.args, bindings)
            except KeyError as exc:
                raise UnboundHole(f"hole ${exc.args[0]} is not bound") from None
            if row is not None:
                items.append((line.relation, row))
                continue
        elif inner is not None and line.target in inner:
            items.extend(inner[line.target])
            continue
        items.append(substitute(line.template, MatchEnvironment(bindings)))


def _row(args: tuple[ArgPlan, ...], bindings: dict[str, Binding]) -> tuple | None:
    """The row args spell, or None when a value bound inside quotes holds a
    quote, a backslash or a newline, which only the text path reads as the
    fact-line grammar does.  An unbound hole raises KeyError."""
    row = []
    for before, hole, after in args:
        if hole is None:
            row.append(before)
            continue
        b = bindings[hole.name]
        if hole.prop is Property.VALUE:
            text = b.text
            if '"' in text or "\\" in text or "\n" in text:
                return None
        else:
            n = (b.line if hole.prop is Property.LINE else b.column) + hole.offset
            if after is None:
                row.append(n)
                continue
            text = str(n)
        row.append(sys.intern(before + text + after))
    return tuple(row)


def facts_for_smap(
    specs: tuple[FactSpec, ...], smap: SourceMap, path: str
) -> tuple[Database, dict[str, int], list[str]]:
    """Run fact specs over one classified source file.

    Returns the file's facts, the outer-template match count per spec name,
    and diagnostics (classifier warnings, then dropped fact lines), each
    prefixed with the path.  A match's rows are all built before any is
    added, so an unbound hole raises before a row's arity does.
    """
    db = Database()
    matches: dict[str, int] = {}
    diagnostics = [f"{path}: {w}" for w in smap.warnings]
    for spec in specs:
        rule, lines = spec.rule, spec.rewrite.lines
        has_rule = bool(rule.conditions or rule.nested_rewrites)
        count = 0
        for m in iter_matches(spec.match, smap):
            count += 1
            bindings, inner = m.env.bindings, None
            if has_rule:
                out = apply_rule(rule, m.env, smap)
                if out is None:
                    continue
                bindings, inner = out.env.bindings, out.inner
            items: list = []
            _emit(lines, bindings, items, inner)
            for item in items:
                if type(item) is tuple:
                    db.add(*item)
                    continue
                # split on "\n" only, as Database.from_dl_text does: a bound
                # string may hold a form feed or another separator splitlines() honors
                for raw in item.split("\n"):
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        db.add_fact(parse_fact_line(line))
                    except MalformedFact as exc:
                        where = smap.line_of(m.start)
                        diagnostics.append(f"{path}:{where}: dropped bad fact line: {exc}")
        matches[spec.name] = matches.get(spec.name, 0) + count
    return db, matches, diagnostics
