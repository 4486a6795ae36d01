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
"""

from __future__ import annotations

import re
from enum import Enum
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


class RewriteTemplate(NamedTuple):
    text: str
    atoms: tuple[RewriteAtom, ...]


_SUBSTITUTION_RE = re.compile(
    rf"""\$(?P<name>{HOLE_NAME})?
    (?: \.(?P<prop>line|column)(?![A-Za-z0-9_])
        (?: [ \t]*(?P<sign>[+-])[ \t]*(?P<digits>\d+) )?
      | \.value(?![A-Za-z0-9_])
    )?""",
    re.VERBOSE,
)


def parse_rewrite_template(text: str) -> RewriteTemplate:
    """Parse rewrite text into literal and substitution atoms."""
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
    return RewriteTemplate(text, tuple(atoms))


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


def apply_rule(rule: RuleSpec, env: MatchEnvironment, smap: SourceMap) -> MatchEnvironment | None:
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
    bindings = dict(env.bindings)
    inner_matches = iter_nested_matches if rule.nested else iter_matches
    for nr in rule.nested_rewrites:
        target = env[nr.target]
        names = set(nr.inner_match.hole_names())
        # every inner match binds all of its holes, which hide the outer ones
        conditions = [c for c in rule.conditions if c.hole in names]
        rewrite = _bind_outer(nr.inner_rewrite, bindings, names)
        lines: list[str] = []
        for m in inner_matches(nr.inner_match, smap, target.start, target.end):
            inner = m.env.bindings
            for cond in conditions:
                if not cond.holds(inner[cond.hole].text):
                    break
            else:
                lines.append(substitute(rewrite, m.env))
        bindings[nr.target] = Binding(
            "\n".join(lines), target.start, target.end, target.line, target.column
        )
    return MatchEnvironment(bindings)


def _bind_outer(template: RewriteTemplate, bindings: dict[str, Binding], inner: set[str]) -> RewriteTemplate:
    """The template with each bound hole not named in ``inner`` replaced by
    its text, and adjacent literals joined."""
    atoms: list[RewriteAtom] = []
    for atom in template.atoms:
        if isinstance(atom, Substitution) and atom.name not in inner and atom.name in bindings:
            atom = SubstLiteral(_render(atom, bindings[atom.name]))
        if isinstance(atom, SubstLiteral) and atoms and isinstance(atoms[-1], SubstLiteral):
            atom = SubstLiteral(atoms.pop().text + atom.text)
        atoms.append(atom)
    return RewriteTemplate(template.text, tuple(atoms))


# ---------------------------------------------------------------------------
# Fact generation


def facts_for_smap(
    specs: tuple[FactSpec, ...], smap: SourceMap, path: str
) -> tuple[Database, dict[str, int], list[str]]:
    """Run fact specs over one classified source file.

    Returns the file's facts, the outer-template match count per spec name,
    and diagnostics (classifier warnings, then dropped fact lines), each
    prefixed with the path.
    """
    db = Database()
    matches: dict[str, int] = {}
    diagnostics = [f"{path}: {w}" for w in smap.warnings]
    for spec in specs:
        count = 0
        for m in iter_matches(spec.match, smap):
            count += 1
            env = apply_rule(spec.rule, m.env, smap)
            if env is None:
                continue
            text = substitute(spec.rewrite, env)
            # split on "\n" only, as Database.from_dl_text does: a bound
            # string may hold a form feed or another separator splitlines() honors
            for raw in text.split("\n"):
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
