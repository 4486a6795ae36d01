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
from typing import NamedTuple, Union

from .errors import MalformedFact, MalformedHole, SpecFormatError, UnboundHole, read_text
from .facts import Database, parse_fact_line
from .languages import SourceMap, get_language
from .templates import (
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


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PROP_RE = re.compile(r"\.(line|column|value)(?![A-Za-z0-9_])")
_OFFSET_RE = re.compile(r"[ \t]*([+-])[ \t]*(\d+)")

_PROPS = {"line": Property.LINE, "column": Property.COLUMN, "value": Property.VALUE}


def parse_rewrite_template(text: str) -> RewriteTemplate:
    """Parse rewrite text into literal and substitution atoms."""
    atoms: list[RewriteAtom] = []
    lit: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "$":
            lit.append(ch)
            i += 1
            continue
        m = _NAME_RE.match(text, i + 1)
        if m is None:
            raise MalformedHole(f"'$' at offset {i} is not followed by a hole name")
        name = m.group(0)
        i = m.end()
        prop = Property.VALUE
        pm = _PROP_RE.match(text, i)
        if pm is not None:
            prop = _PROPS[pm.group(1)]
            i = pm.end()
        offset = 0
        if prop in (Property.LINE, Property.COLUMN):
            om = _OFFSET_RE.match(text, i)
            if om is not None:
                offset = int(om.group(1) + om.group(2))
                i = om.end()
        if lit:
            atoms.append(SubstLiteral("".join(lit)))
            lit.clear()
        atoms.append(Substitution(name, prop, offset))
    if lit:
        atoms.append(SubstLiteral("".join(lit)))
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


def parse_rule(text: str) -> RuleSpec:
    """Parse ``where nested, $h != "lit", rewrite $h { tin -> tout }``."""
    src = text.strip()
    if not src:
        return EMPTY_RULE
    cur = _Cursor(src)
    if cur.take_word() != "where":
        raise SpecFormatError(f"rule must start with 'where': {src[:40]!r}")
    nested = False
    conditions: list[Condition] = []
    rewrites: list[NestedRewrite] = []
    while True:
        cur.skip_ws()
        if cur.at_end():
            break
        word = cur.peek_word()
        if word == "nested":
            cur.take_word()
            nested = True
        elif word == "rewrite":
            cur.take_word()
            rewrites.append(_parse_rewrite_clause(cur))
        elif cur.peek() == "$":
            conditions.append(_parse_condition(cur))
        else:
            raise SpecFormatError(f"unexpected rule item at {cur.rest()[:40]!r}")
        cur.skip_ws()
        if cur.at_end():
            break
        if cur.peek() == ",":
            cur.advance(1)
            continue
        raise SpecFormatError(f"expected ',' between rule items at {cur.rest()[:40]!r}")
    return RuleSpec(nested, tuple(conditions), tuple(rewrites))


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def peek_word(self) -> str:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        return m.group(0) if m else ""

    def take_word(self) -> str:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if m is None:
            raise SpecFormatError(f"expected a word at {self.rest()[:40]!r}")
        self.pos = m.end()
        return m.group(0)

    def advance(self, n: int) -> None:
        self.pos += n

    def rest(self) -> str:
        return self.text[self.pos :]

    def expect(self, token: str) -> None:
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise SpecFormatError(f"expected {token!r} at {self.rest()[:40]!r}")
        self.pos += len(token)


def _parse_condition(cur: _Cursor) -> Condition:
    cur.expect("$")
    name = cur.take_word()
    cur.skip_ws()
    if cur.text.startswith("==", cur.pos):
        op = CondOp.EQ
    elif cur.text.startswith("!=", cur.pos):
        op = CondOp.NEQ
    else:
        raise SpecFormatError(f"expected '==' or '!=' after ${name}")
    cur.advance(2)
    cur.skip_ws()
    cur.expect('"')
    chars: list[str] = []
    while cur.pos < len(cur.text):
        ch = cur.text[cur.pos]
        if ch == "\\" and cur.pos + 1 < len(cur.text):
            chars.append(cur.text[cur.pos + 1])
            cur.advance(2)
            continue
        if ch == '"':
            cur.advance(1)
            return Condition(name, op, "".join(chars))
        chars.append(ch)
        cur.advance(1)
    raise SpecFormatError(f"unterminated string in condition on ${name}")


def _parse_rewrite_clause(cur: _Cursor) -> NestedRewrite:
    cur.expect("$")
    target = cur.take_word()
    cur.expect("{")
    body, end = _until_matching_brace(cur.text, cur.pos)
    cur.pos = end
    arrow = _find_arrow(body)
    if arrow == -1:
        raise SpecFormatError(f"rewrite clause for ${target} lacks '->'")
    inner_match = parse_template(body[:arrow].strip())
    inner_rewrite = parse_rewrite_template(body[arrow + 2 :].strip())
    return NestedRewrite(target, inner_match, inner_rewrite)


def _until_matching_brace(text: str, pos: int) -> tuple[str, int]:
    """Content between pos and its matching '}', quote aware."""
    depth = 1
    start = pos
    in_string = False
    while pos < len(text):
        ch = text[pos]
        if in_string:
            if ch == "\\":
                pos += 2
                continue
            if ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[start:pos], pos + 1
        pos += 1
    raise SpecFormatError("unterminated '{' in rewrite clause")


def _find_arrow(body: str) -> int:
    in_string = False
    pos = 0
    while pos < len(body) - 1:
        ch = body[pos]
        if in_string:
            if ch == "\\":
                pos += 2
                continue
            if ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "-" and body[pos + 1] == ">":
            return pos
        pos += 1
    return -1


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


def parse_fact_spec(text: str, name: str = "spec", language: str = "") -> FactSpec:
    """Parse the three-section spec format ([match], [rule], [rewrite]).

    With a language, the match template and every inner template are
    compiled for it here, once.
    """
    sections = _split_sections(text, name)
    for required in ("match", "rewrite"):
        if required not in sections:
            raise SpecFormatError(f"{name}: missing [{required}] section")
    match_text = _section_body(sections["match"])
    rewrite_text = _section_body(sections["rewrite"])
    rule_text = _section_body(sections.get("rule", []))
    if not match_text:
        raise SpecFormatError(f"{name}: [match] section is empty")
    match = parse_template(match_text)
    rule = parse_rule(rule_text)
    if language:
        lang = get_language(language)
        match = compile_template(match, lang)
        inner = tuple(nr._replace(inner_match=compile_template(nr.inner_match, lang)) for nr in rule.nested_rewrites)
        rule = rule._replace(nested_rewrites=inner)
    return FactSpec(name, language, match, rule, parse_rewrite_template(rewrite_text))


def _split_sections(text: str, name: str) -> dict[str, list[tuple[int, str]]]:
    """Section name -> its (1-based line number, raw line) pairs."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for number, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if stripped.startswith("[") and stripped.endswith("]") and stripped[1:-1] in _SECTIONS:
            current = stripped[1:-1]
            if current in sections:
                raise SpecFormatError(f"{name}: duplicate [{current}] section")
            sections[current] = []
            continue
        if current is None:
            if stripped and not stripped.startswith("#"):
                raise SpecFormatError(f"{name}: text before the first section header: {stripped!r}")
            continue
        sections[current].append((number, raw))
    return sections


def _section_body(lines: list[tuple[int, str]]) -> str:
    start, end = 0, len(lines)
    while start < end and not lines[start][1].strip():
        start += 1
    while end > start and not lines[end - 1][1].strip():
        end -= 1
    return "\n".join(raw for _, raw in lines[start:end])


def load_fact_spec(path: str | Path, language: str = "") -> FactSpec:
    """Parse a spec file and check that every hole its [rule] and [rewrite]
    name is bound, whether or not any source ever matches."""
    path = Path(path)
    text = read_text(path)
    spec = parse_fact_spec(text, name=path.stem, language=language)
    unbound = _unbound_holes(spec)
    if unbound:
        section, hole = unbound[0]
        lines = _split_sections(text, spec.name)[section]
        pattern = re.compile(rf"\${hole}(?![A-Za-z0-9_])")
        number = next((n for n, raw in lines if pattern.search(raw)), lines[0][0])
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
