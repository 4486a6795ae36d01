"""The Datalog front end: the program's syntax tree, its parser, and the
checks made before any evaluation.

Grammar (whitespace-insensitive; ``//`` starts a line comment):

    program     := statement*
    statement   := declaration | clause
    declaration := '.decl' IDENT '(' [param (',' param)*] ')'
    param       := IDENT ':' ('symbol' | 'number')
    clause      := atom '.'
                 | atom ':-' literal (',' literal)* '.'
    literal     := ('!' | '¬')? atom
    atom        := IDENT '(' [term (',' term)*] ')'
    term        := STRING | INT | IDENT

In rule clauses an identifier term is a variable (``_`` is anonymous); fact
clauses must be ground, so unquoted identifiers there are rejected.  Missing
declarations are inferred: arity from first use, and a column is numeric only
when every constant observed in it is an integer, with types propagated
through rule variables.  Every error names the line of the clause or token at
fault.

Loading a preset parses its program and needs nothing else, so this module
imports neither the engine (``datalog``) nor the fact layer (``facts``); both
import from it.  ``decode_symbol`` lives here for the same reason: fact lines
and programs share that one decoder.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from collections import namedtuple
from typing import TYPE_CHECKING, Iterator, Union

from .errors import ArityMismatch, DatalogSyntaxError, TypeMismatch, UnsafeRule

# \n, \r, and \t decode to control characters; any other \x folds to x
DECODE_ESCAPES = {"n": "\n", "r": "\r", "t": "\t"}


def decode_symbol(body: str) -> str:
    """The interned symbol that a quoted body (without its quotes) spells.

    Fact lines and Datalog programs share this decoder, so a written
    database re-parses losslessly either way.
    """
    if "\\" in body:
        body = re.sub(r"\\(.)", lambda m: DECODE_ESCAPES.get(m[1], m[1]), body, flags=re.DOTALL)
    return sys.intern(body)


# ---------------------------------------------------------------------------
# AST


Variable = namedtuple("Variable", "name")
Variable.__doc__ = "Variable(name: str): a rule variable; ``_`` is anonymous."

if TYPE_CHECKING:
    Term = Union[Variable, str, int]


class Atom(namedtuple("Atom", "relation terms line column", defaults=(0, 0))):
    """Atom(relation: str, terms: tuple[Term, ...], line: int = 0, column: int = 0):
    a relation applied to terms.  Equality and hash leave the source
    position (line, column) out."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return self.relation == other.relation and self.terms == other.terms

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((self.relation, self.terms))

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> Iterator[str]:
        for t in self.terms:
            if isinstance(t, Variable) and t.name != "_":
                yield t.name


BodyLiteral = namedtuple("BodyLiteral", "atom positive", defaults=(True,))
BodyLiteral.__doc__ = "BodyLiteral(atom: Atom, positive: bool = True): a body atom, negated when not positive."

DatalogRule = namedtuple("DatalogRule", "head body")
DatalogRule.__doc__ = "DatalogRule(head: Atom, body: tuple[BodyLiteral, ...])"


class Declaration(namedtuple("Declaration", "relation params")):
    """Declaration(relation: str, params: tuple[tuple[str, str | None], ...]):
    each param is (name, "symbol" | "number" | None)."""

    __slots__ = ()

    @property
    def arity(self) -> int:
        return len(self.params)

    def column_types(self) -> tuple[str | None, ...]:
        return tuple(t for _, t in self.params)


class DatalogProgram:
    def __init__(self, declarations: dict[str, Declaration], facts: list[Atom], rules: list[DatalogRule]) -> None:
        self.declarations = declarations
        self.facts = facts
        self.rules = rules
        self.path: str | None = None  # the file it was read from, named by errors found later

    def all_relations(self) -> set[str]:
        return set(self.declarations)

    def idb_relations(self) -> set[str]:
        return {r.head.relation for r in self.rules}


# ---------------------------------------------------------------------------
# Tokenizer


_Token = namedtuple("_Token", "kind value line column")
_Token.__doc__ = "_Token(kind: str, value: str, line: int, column: int)"


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*)
    | (?P<directive>\.[A-Za-z_][A-Za-z0-9_]*)
    | (?P<turnstile>:-)
    | (?P<string>"(?:\\.|[^"\\\n])*")
    | (?P<int>-?\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>[(),.:])
    | (?P<neg>[!¬])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    line_starts = [0]
    for m in re.finditer(r"\n", text):
        line_starts.append(m.end())

    def loc(offset: int) -> tuple[int, int]:
        ln = bisect_right(line_starts, offset)
        return ln, offset - line_starts[ln - 1] + 1

    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            ln, col = loc(pos)
            raise DatalogSyntaxError(f"unexpected character {text[pos]!r}", ln, col)
        kind = m.lastgroup or ""
        if kind not in ("ws", "comment"):
            ln, col = loc(m.start())
            tokens.append(_Token(kind, m.group(0), ln, col))
        pos = m.end()
    ln, col = loc(len(text) - 1) if text else (1, 1)
    tokens.append(_Token("eof", "", ln, col + 1 if text else 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> DatalogSyntaxError:
        tok = tok or self.peek()
        return DatalogSyntaxError(message, tok.line, tok.column)

    def expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise self.error(f"expected {want!r}, found {tok.value or 'end of input'!r}", tok)
        return tok

    def program(self) -> tuple[list[tuple[_Token, Declaration]], list[Atom], list[DatalogRule]]:
        decls: list[tuple[_Token, Declaration]] = []
        facts: list[Atom] = []
        rules: list[DatalogRule] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "directive":
                if tok.value != ".decl":
                    raise self.error(f"unknown directive {tok.value!r}")
                decls.append(self.declaration())
            elif tok.kind == "ident":
                self.clause(facts, rules)
            else:
                raise self.error(f"expected a declaration or clause, found {tok.value!r}")
        return decls, facts, rules

    def declaration(self) -> tuple[_Token, Declaration]:
        start = self.expect("directive")
        name = self.expect("ident").value
        self.expect("punct", "(")
        params: list[tuple[str, str | None]] = []
        if not (self.peek().kind == "punct" and self.peek().value == ")"):
            while True:
                pname = self.expect("ident").value
                self.expect("punct", ":")
                ptype_tok = self.expect("ident")
                if ptype_tok.value not in ("symbol", "number"):
                    raise self.error(
                        f"unknown column type {ptype_tok.value!r} (expected symbol or number)",
                        ptype_tok,
                    )
                params.append((pname, ptype_tok.value))
                if self.peek().value == ",":
                    self.next()
                    continue
                break
        self.expect("punct", ")")
        return start, Declaration(sys.intern(name), tuple(params))

    def clause(self, facts: list[Atom], rules: list[DatalogRule]) -> None:
        head = self.atom()
        tok = self.next()
        if tok.kind == "punct" and tok.value == ".":
            for t in head.terms:
                if isinstance(t, Variable):
                    raise DatalogSyntaxError(
                        f"facts must be ground; {t.name!r} is a variable "
                        "(quote it to make a symbol)",
                        head.line,
                        head.column,
                    )
            facts.append(head)
            return
        if tok.kind != "turnstile":
            raise self.error(f"expected '.' or ':-' after atom, found {tok.value!r}", tok)
        body: list[BodyLiteral] = []
        while True:
            positive = True
            if self.peek().kind == "neg":
                self.next()
                positive = False
            body.append(BodyLiteral(self.atom(), positive))
            tok = self.next()
            if tok.kind == "punct" and tok.value == ",":
                continue
            if tok.kind == "punct" and tok.value == ".":
                break
            raise self.error(f"expected ',' or '.' in rule body, found {tok.value!r}", tok)
        rules.append(DatalogRule(head, tuple(body)))

    def atom(self) -> Atom:
        name_tok = self.expect("ident")
        self.expect("punct", "(")
        terms: list[Term] = []
        if not (self.peek().kind == "punct" and self.peek().value == ")"):
            while True:
                terms.append(self.term())
                if self.peek().value == ",":
                    self.next()
                    continue
                break
        self.expect("punct", ")")
        return Atom(sys.intern(name_tok.value), tuple(terms), name_tok.line, name_tok.column)

    def term(self) -> Term:
        tok = self.next()
        if tok.kind == "string":
            return decode_symbol(tok.value[1:-1])
        if tok.kind == "int":
            return int(tok.value)
        if tok.kind == "ident":
            return Variable(sys.intern(tok.value))
        raise self.error(f"expected a term, found {tok.value or 'end of input'!r}", tok)


def parse_program(text: str) -> DatalogProgram:
    """Parse and validate a program: syntax, arity, safety, type consistency."""
    parser = _Parser(_tokenize(text))
    decl_list, facts, rules = parser.program()

    declared: dict[str, Declaration] = {}
    for tok, decl in decl_list:
        if decl.relation in declared:
            raise DatalogSyntaxError(
                f"duplicate declaration of {decl.relation!r}", tok.line, tok.column
            )
        declared[decl.relation] = decl

    arity = {name: (d.arity, None) for name, d in declared.items()}

    def check_arity(atom: Atom) -> None:
        seen = arity.get(atom.relation)
        if seen is None:
            arity[atom.relation] = (atom.arity, atom)
        elif seen[0] != atom.arity:
            raise ArityMismatch(
                f"{atom.relation!r} used with arity {atom.arity} at line {atom.line} "
                f"but has arity {seen[0]}"
            )

    for fact in facts:
        check_arity(fact)
    for rule in rules:
        check_arity(rule.head)
        for lit in rule.body:
            check_arity(lit.atom)
        _check_safety(rule)

    types = _infer_types(declared, facts, rules, arity)
    declarations: dict[str, Declaration] = {}
    for name, (n, _) in arity.items():
        if name in declared:
            params = tuple(
                (pname, types[(name, i)]) for i, (pname, _) in enumerate(declared[name].params)
            )
            declarations[name] = Declaration(name, params)
        else:
            params = tuple((f"x{i}", types[(name, i)]) for i in range(n))
            declarations[name] = Declaration(name, params)
    return DatalogProgram(declarations, facts, rules)


def _check_safety(rule: DatalogRule) -> None:
    positive_vars = set()
    for lit in rule.body:
        if lit.positive:
            positive_vars.update(lit.atom.variables())
    for t in rule.head.terms:
        if isinstance(t, Variable) and t.name == "_":
            raise UnsafeRule(
                f"'_' is not allowed in the head of the rule at line {rule.head.line}"
            )
    for v in rule.head.variables():
        if v not in positive_vars:
            raise UnsafeRule(
                f"head variable {v!r} at line {rule.head.line} does not occur "
                "in any positive body literal"
            )
    for lit in rule.body:
        if lit.positive:
            continue
        for v in lit.atom.variables():
            if v not in positive_vars:
                raise UnsafeRule(
                    f"variable {v!r} in negated {lit.atom.relation!r} at line "
                    f"{lit.atom.line} does not occur in any positive body literal"
                )
        for t in lit.atom.terms:
            if isinstance(t, Variable) and t.name == "_":
                raise UnsafeRule(
                    f"'_' is not allowed in negated {lit.atom.relation!r} at line {lit.atom.line}"
                )


def _infer_types(
    declared: dict[str, Declaration],
    facts: list[Atom],
    rules: list[DatalogRule],
    arity: dict[str, tuple[int, Atom | None]],
) -> dict[tuple[str, int], str | None]:
    """Union-find over (relation, column) nodes; constants and explicit
    declarations pin concrete types, rule variables merge nodes."""
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(x: tuple[str, int]) -> tuple[str, int]:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pinned: dict[tuple[str, int], str] = {}

    def constrain(node: tuple[str, int], t: str, where: str) -> None:
        root = find(node)
        existing = pinned.get(root)
        if existing is not None and existing != t:
            rel, col = node
            raise TypeMismatch(
                f"column {col + 1} of {rel!r} is used as both "
                f"{existing} and {t} ({where})"
            )
        pinned[root] = t

    def union(a: tuple[str, int], b: tuple[str, int], where: str) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        ta, tb = pinned.get(ra), pinned.get(rb)
        if ta is not None and tb is not None and ta != tb:
            raise TypeMismatch(
                f"column {a[1] + 1} of {a[0]!r} ({ta}) is joined with "
                f"column {b[1] + 1} of {b[0]!r} ({tb}) in the {where}"
            )
        parent[rb] = ra
        if ta is None and tb is not None:
            pinned[ra] = tb
        pinned.pop(rb, None)

    for name, decl in declared.items():
        for i, (_, t) in enumerate(decl.params):
            if t is not None:
                constrain((name, i), t, "declared")

    def constrain_constants(atom: Atom, where: str) -> None:
        for i, t in enumerate(atom.terms):
            if isinstance(t, int):
                constrain((atom.relation, i), "number", where)
            elif isinstance(t, str):
                constrain((atom.relation, i), "symbol", where)

    for fact in facts:
        constrain_constants(fact, f"fact at line {fact.line}")
    for rule in rules:
        where = f"rule at line {rule.head.line}"
        occurrences: dict[str, list[tuple[str, int]]] = {}
        for atom in [rule.head] + [lit.atom for lit in rule.body]:
            constrain_constants(atom, where)
            for i, t in enumerate(atom.terms):
                if isinstance(t, Variable) and t.name != "_":
                    occurrences.setdefault(t.name, []).append((atom.relation, i))
        for nodes in occurrences.values():
            for other in nodes[1:]:
                union(nodes[0], other, where)

    return {
        (name, i): pinned.get(find((name, i)))
        for name, (n, _) in arity.items()
        for i in range(n)
    }


def parse_query(text: str) -> Atom:
    """Parse a query pattern like ``calls("main", X)``."""
    parser = _Parser(_tokenize(text))
    atom = parser.atom()
    tail = parser.next()
    if tail.kind == "punct" and tail.value == ".":
        tail = parser.next()
    if tail.kind != "eof":
        raise parser.error(f"unexpected trailing input {tail.value!r}", tail)
    return atom
