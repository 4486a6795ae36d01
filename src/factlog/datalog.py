"""Datalog subset: parser, stratifier, semi-naive evaluator, and queries.

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
through rule variables.  Negation must be stratified; evaluation runs one
semi-naive fixpoint per stratum and returns the least model.

Each rule is compiled, once per stratum, into one Python function per delta
literal plus one for the seeding round: nested ``for`` loops that read
variables straight from tuple slots.  The join order is the delta literal,
then the body order, then the negations as ``not in`` tests.  Plans add
every head they derive; each round subtracts the known tuples, one set
difference per derived relation, and what is left is the next delta.  A
literal with bound columns probes a hash index on them; an index is built on
the first probe of a non-empty relation and extended as tuples are
inserted, never rebuilt.  Queries run through the same compiler.

A query can be goal-directed (``goal_directed``): a pattern that binds an
argument of a derived relation evaluates a magic-set rewrite of only the
rules it reaches, seeded with its constants, and a query on a relation no
rule derives evaluates no rules at all.  A pattern of variables only, and a
query that reaches a negated derived relation, evaluate the whole program.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from itertools import count
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from .errors import (
    ArityMismatch,
    DatalogSyntaxError,
    TypeMismatch,
    UnknownRelation,
    UnsafeRule,
    UnstratifiableProgram,
)
from .facts import Database, decode_symbol


# ---------------------------------------------------------------------------
# AST


class Variable(NamedTuple):
    name: str


Term = Union[Variable, str, int]


class Atom(NamedTuple):
    """A relation applied to terms.  Equality and hash leave the source
    position (line, column) out."""

    relation: str
    terms: tuple[Term, ...]
    line: int = 0
    column: int = 0

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


class BodyLiteral(NamedTuple):
    atom: Atom
    positive: bool = True


class DatalogRule(NamedTuple):
    head: Atom
    body: tuple[BodyLiteral, ...]


class Declaration(NamedTuple):
    relation: str
    params: tuple[tuple[str, str | None], ...]  # (name, "symbol" | "number" | None)

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

    def all_relations(self) -> set[str]:
        return set(self.declarations)

    def idb_relations(self) -> set[str]:
        return {r.head.relation for r in self.rules}


# ---------------------------------------------------------------------------
# Tokenizer


class _Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int


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

    def union(a: tuple[str, int], b: tuple[str, int]) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        ta, tb = pinned.get(ra), pinned.get(rb)
        if ta is not None and tb is not None and ta != tb:
            raise TypeMismatch(
                f"column {a[1] + 1} of {a[0]!r} ({ta}) is joined with "
                f"column {b[1] + 1} of {b[0]!r} ({tb})"
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
        occurrences: dict[str, list[tuple[str, int]]] = {}
        for atom in [rule.head] + [lit.atom for lit in rule.body]:
            constrain_constants(atom, f"rule at line {rule.head.line}")
            for i, t in enumerate(atom.terms):
                if isinstance(t, Variable) and t.name != "_":
                    occurrences.setdefault(t.name, []).append((atom.relation, i))
        for nodes in occurrences.values():
            for other in nodes[1:]:
                union(nodes[0], other)

    return {
        (name, i): pinned.get(find((name, i)))
        for name, (n, _) in arity.items()
        for i in range(n)
    }


# ---------------------------------------------------------------------------
# Stratification


def stratify(program: DatalogProgram) -> list[set[str]]:
    """Partition relations into strata; every negated relation sits strictly
    below its users.  Raises UnstratifiableProgram on a negative cycle."""
    relations = sorted(program.all_relations())
    deps: dict[str, set[str]] = {r: set() for r in relations}
    negative: set[tuple[str, str]] = set()
    for rule in program.rules:
        h = rule.head.relation
        for lit in rule.body:
            deps[h].add(lit.atom.relation)
            if not lit.positive:
                negative.add((h, lit.atom.relation))

    sccs = _tarjan(relations, deps)  # emitted dependencies-first
    component = {rel: i for i, scc in enumerate(sccs) for rel in scc}
    for h, b in sorted(negative):
        if component[h] == component[b]:
            raise UnstratifiableProgram(
                f"{h!r} depends negatively on {b!r} inside a recursive cycle"
            )

    level: dict[int, int] = {}
    for i, scc in enumerate(sccs):
        lv = 0
        for rel in scc:
            for dep in deps[rel]:
                j = component[dep]
                if j != i:
                    lv = max(lv, level[j] + 1)
        level[i] = lv

    height = max(level.values(), default=-1) + 1
    out: list[set[str]] = [set() for _ in range(height)]
    for i, scc in enumerate(sccs):
        out[level[i]].update(scc)
    return out


def _tarjan(nodes: list[str], deps: dict[str, set[str]]) -> list[set[str]]:
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[set[str]] = []
    counter = count()

    for start in nodes:
        if start in index:
            continue
        index[start] = low[start] = next(counter)
        stack.append(start)
        on_stack.add(start)
        work: list[tuple[str, Iterator[str]]] = [(start, iter(sorted(deps[start])))]
        while work:
            node, it = work[-1]
            descended = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = next(counter)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(deps[succ]))))
                    descended = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp: set[str] = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                sccs.append(comp)
    return sccs


# ---------------------------------------------------------------------------
# Evaluation


class _Indexes:
    """Hash indexes over the live relation sets, one per (relation, key
    positions).  An index is built the first time a plan asks for it while
    the relation is non-empty; ``insert`` then extends it in place, so it is
    never rebuilt.
    A one-column key is the value itself, a longer key is a tuple."""

    def __init__(self, relations: dict[str, set[tuple]]):
        self.relations = relations
        self.built: dict[str, dict[tuple[int, ...], dict]] = {}

    def get(self, rel: str, positions: tuple[int, ...]) -> dict:
        tuples = self.relations[rel]
        if not tuples:
            return {}
        by_positions = self.built.setdefault(rel, {})
        index = by_positions.get(positions)
        if index is None:
            index = by_positions[positions] = {}
            _extend(index, positions, tuples)
        return index

    def insert(self, rel: str, fresh: set[tuple]) -> None:
        """Add tuples not yet in the relation, to it and to its indexes."""
        self.relations[rel].update(fresh)
        for positions, index in self.built.get(rel, {}).items():
            _extend(index, positions, fresh)


def _extend(index: dict, positions: tuple[int, ...], tuples: Iterable[tuple]) -> None:
    key = itemgetter(*positions)
    for t in tuples:
        k = key(t)
        bucket = index.get(k)
        if bucket is None:
            index[k] = [t]
        else:
            bucket.append(t)


def _tuple_src(parts: list[str]) -> str:
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


# CPython allows 20 statically nested loops, and 100 levels of indentation,
# in one function: a plan that would need more continues in another.
_MAX_LOOPS = 20
_MAX_BLOCKS = 64


def _compile_rule(rule: DatalogRule, delta_pos: int | None) -> Callable[..., None]:
    """Generate ``plan(relations, indexes, delta, new)`` for the rule: nested
    loops that add every derived head tuple to ``new``, known or not.

    The positive literal at ``delta_pos`` ranges over the ``delta`` argument
    (the semi-naive substitution) and comes first; the other positive
    literals follow in body order, each a full scan, an index probe on its
    bound positions, or a membership test when it is fully bound.  Negations
    are ``not in`` tests after them.  Variables are read from tuple slots;
    constants reach the code only through the namespace (``C0``, ``C1``...),
    never as source text.  A body too long for one function continues in
    nested functions (``part1``...) that take the tuples bound so far.  A
    negation that tests the head's own tuple comes last, and the tuple it
    builds is the one added.
    """
    order = [i for i, lit in enumerate(rule.body) if lit.positive and i != delta_pos]
    if delta_pos is not None:
        order.insert(0, delta_pos)
    consts: dict[str, Term] = {}
    slots: dict[str, str] = {}  # variable -> the tuple slot that binds it
    setup: list[str] = []
    rows: list[str] = []  # the tuple variables bound so far
    blocks: list[tuple[str, tuple[str, ...]]] = []  # each opens a block nested in the previous; rows bound before it

    def value(t: Term) -> str:
        if isinstance(t, Variable):
            return slots[t.name]
        name = f"C{len(consts)}"
        consts[name] = t
        return name

    def block(line: str) -> None:
        blocks.append((line, tuple(rows)))

    for k, i in enumerate(order):
        atom = rule.body[i].atom
        row = f"t{k}"
        keyed: list[tuple[int, str]] = []  # positions known before this literal
        checks: list[str] = []
        binds: dict[str, str] = {}
        for j, t in enumerate(atom.terms):
            if not isinstance(t, Variable) or t.name in slots:
                keyed.append((j, value(t)))
            elif t.name in binds:
                checks.append(f"{row}[{j}] == {binds[t.name]}")
            elif t.name != "_":
                binds[t.name] = f"{row}[{j}]"
        if i == delta_pos:
            block(f"for {row} in D:")
            checks = [f"{row}[{j}] == {e}" for j, e in keyed] + checks
        elif not binds and len(keyed) == atom.arity:
            setup.append(f"S{k} = R[{atom.relation!r}]")
            block(f"if {_tuple_src([e for _, e in keyed])} in S{k}:")
            row = ""
        elif keyed:
            positions = tuple(j for j, _ in keyed)
            setup.append(f"I{k} = X.get({atom.relation!r}, {positions!r}).get")
            key = keyed[0][1] if len(keyed) == 1 else _tuple_src([e for _, e in keyed])
            block(f"for {row} in I{k}({key}, ()):")
        else:
            setup.append(f"S{k} = R[{atom.relation!r}]")
            block(f"for {row} in S{k}:")
        if row:
            rows.append(row)
        if checks:
            block(f"if {' and '.join(checks)}:")
        slots.update(binds)
    head = _tuple_src([value(t) for t in rule.head.terms])
    negated = [
        (n, _tuple_src([value(t) for t in lit.atom.terms])) for n, lit in enumerate(rule.body) if not lit.positive
    ]
    # a negation that tests the head's own tuple goes last and builds it once
    negated.sort(key=lambda test: test[1] == head)
    for n, source in negated:
        setup.append(f"N{n} = R[{rule.body[n].atom.relation!r}]")
        if source == head:
            source, head = f"(h := {head})", "h"
        block(f"if {source} not in N{n}:")

    parts: list[list[tuple[str, tuple[str, ...]]]] = [[]]
    loops = 0
    for line, before in blocks:
        loop = line.startswith("for ")
        if (loop and loops == _MAX_LOOPS) or len(parts[-1]) == _MAX_BLOCKS:
            parts.append([])
            loops = 0
        parts[-1].append((line, before))
        loops += loop
    lines = ["def plan(R, X, D, new):", "    add = new.add"]
    lines += ["    " + line for line in setup]
    for n in reversed(range(len(parts))):
        part = parts[n]
        if n + 1 < len(parts):
            args = ", ".join(parts[n + 1][0][1])
            innermost = [f"part{n + 1}({args})"]
        else:
            innermost = [f"add({head})"]
        base = 1
        if n:
            lines.append(f"    def part{n}({', '.join(part[0][1])}):")
            base = 2
        lines += ["    " * (base + depth) + line for depth, (line, _) in enumerate(part)]
        lines += ["    " * (base + len(part)) + line for line in innermost]
    namespace: dict[str, object] = dict(consts)
    code = compile("\n".join(lines) + "\n", f"<rule at line {rule.head.line}>", "exec")
    exec(code, namespace)
    return namespace["plan"]  # type: ignore[return-value]


def evaluate(program: DatalogProgram, edb: Database | None = None) -> Database:
    """Least model of the program over the given EDB (copied, not mutated).

    Per stratum: one naive seeding round, then semi-naive delta passes until
    no rule derives a new tuple.  The plans add every head they derive, and
    each round subtracts the known tuples from each derived set at once: the
    rest is the next delta.  Each rule's seeding plan and each of its
    delta plans (one per body literal on a relation of the stratum) is
    compiled once per stratum.  EDB relations unknown to the program are
    carried through unchanged.
    """
    db = Database()
    if edb is not None:
        _check_edb(program, edb)
        for rel, tuples in edb.relations.items():
            db.relations.setdefault(rel, set()).update(tuples)
    for fact in program.facts:
        db.relations.setdefault(fact.relation, set()).add(tuple(fact.terms))
    for rel in program.all_relations():
        db.relations.setdefault(rel, set())

    strata = stratify(program)
    relations = db.relations
    indexes = _Indexes(relations)
    for stratum in strata:
        rules = [r for r in program.rules if r.head.relation in stratum]
        if not rules:
            continue
        delta_plans = [
            (rule.head.relation, lit.atom.relation, _compile_rule(rule, i))
            for rule in rules
            for i, lit in enumerate(rule.body)
            if lit.positive and lit.atom.relation in stratum
        ]
        derived: dict[str, set[tuple]] = {}
        for rule in rules:
            _compile_rule(rule, None)(relations, indexes, None, derived.setdefault(rule.head.relation, set()))
        while True:
            for rel, fresh in derived.items():
                # walks the smaller set, where ``fresh -= relations[rel]``
                # walks all of the relation once fresh is an eighth of it
                fresh -= fresh & relations[rel]
            delta = {rel: fresh for rel, fresh in derived.items() if fresh}
            if not delta:
                break
            for rel, fresh in delta.items():
                indexes.insert(rel, fresh)
            derived = {}
            for head, body_rel, plan in delta_plans:
                dset = delta.get(body_rel)
                if dset:
                    plan(relations, indexes, dset, derived.setdefault(head, set()))
    return db


def _check_edb(program: DatalogProgram, edb: Database) -> None:
    for rel, tuples in edb.relations.items():
        decl = program.declarations.get(rel)
        if decl is None or not tuples:
            continue
        sample = next(iter(tuples))
        if len(sample) != decl.arity:
            raise ArityMismatch(
                f"input relation {rel!r} has arity {len(sample)}, "
                f"program expects {decl.arity}"
            )
        col_types = decl.column_types()
        checked = [(i, t) for i, t in enumerate(col_types) if t is not None]
        if not checked:
            continue
        for tup in tuples:
            for i, t in checked:
                v = tup[i]
                if t == "number" and not isinstance(v, int):
                    raise TypeMismatch(
                        f"{rel!r} column {i + 1} expects a number, got {v!r}"
                    )
                if t == "symbol" and not isinstance(v, str):
                    raise TypeMismatch(
                        f"{rel!r} column {i + 1} expects a symbol, got {v!r}"
                    )


# ---------------------------------------------------------------------------
# Queries


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


def query(db: Database, pattern: str | Atom) -> set[tuple]:
    """Bindings of the pattern's variables over matching tuples.

    All-constant patterns act as a membership test: ``{()}`` when the fact
    holds, the empty set otherwise.
    """
    atom = parse_query(pattern) if isinstance(pattern, str) else pattern
    if atom.relation not in db.relations:
        raise UnknownRelation(f"unknown relation {atom.relation!r}")
    tuples = db.relations[atom.relation]
    if not tuples:
        return set()
    arity = len(next(iter(tuples)))
    if arity != atom.arity:
        raise ArityMismatch(f"{atom.relation!r} has arity {arity}, query uses {atom.arity}")
    # one positive literal, scanned as a delta, with the variables as the head
    head = Atom(atom.relation, tuple(Variable(v) for v in dict.fromkeys(atom.variables())), atom.line)
    plan = _compile_rule(DatalogRule(head, (BodyLiteral(atom),)), 0)
    out: set[tuple] = set()
    plan(db.relations, None, tuples, out)
    return out


# ---------------------------------------------------------------------------
# Goal-directed queries


class Goal(NamedTuple):
    """What to evaluate for one query: ``query(evaluate(program, edb), pattern)``."""

    program: DatalogProgram
    edb: Database
    pattern: Atom


def goal_directed(program: DatalogProgram, edb: Database, pattern: Atom) -> Goal:
    """The magic-set rewrite of the rules a query depends on, or the query
    itself when it needs the whole model.

    A query on a relation no rule derives needs no rules, only its EDB rows
    and program facts.  A query on a derived relation that binds at least one
    argument gets adorned copies (``calls@bf``: b for a bound, f for a free
    position) of the derived relations it reaches, bindings passed left to
    right through each body, and one magic relation per copy
    (``magic@calls@bf``) holding the bindings asked for, seeded with the
    query's constants.  ``@`` is not an identifier character, so no parsed
    relation takes these names.  Each guard on a magic relation comes last
    in its body.  In a rewritten rule the positive literals before it bind
    all its variables, so the compiled plan tests it by membership instead
    of scanning the magic relation for each delta tuple.  EDB rows and
    program facts of a derived relation reach its copies through one more
    rule each.

    Full evaluation, ``Goal(program, edb, pattern)``, answers a pattern of
    variables only and a query that reaches a negated derived relation.
    Otherwise the whole program is checked here as ``evaluate`` checks it,
    EDB types first, then stratification, so a rewritten query fails as the
    full one would.  A pattern whose arity differs from its relation's
    declaration fails after those checks, before any evaluation.
    """
    rel = pattern.relation
    decl = program.declarations.get(rel)
    if decl is not None and decl.arity != pattern.arity:
        _check_edb(program, edb)
        stratify(program)
        raise ArityMismatch(f"{rel!r} has arity {decl.arity}, query uses {pattern.arity}")
    by_head: dict[str, list[DatalogRule]] = {}
    for rule in program.rules:
        by_head.setdefault(rule.head.relation, []).append(rule)
    inputs: set[str] = set() if rel in by_head else {rel}
    rules: list[DatalogRule] = []
    seeds: list[Atom] = []
    asked = pattern
    whole = Goal(program, edb, pattern)
    if rel in by_head:
        if all(isinstance(t, Variable) for t in pattern.terms):
            return whole
        has_rows = {r for r, rows in edb.relations.items() if rows} | {f.relation for f in program.facts}
        adornments: list[tuple[str, str]] = []  # grows while it is walked

        def adorn(atom: Atom, bound: set[str]) -> str:
            """b for each term known before the atom, f for each other one."""
            adornment = "".join(
                "f" if isinstance(t, Variable) and t.name not in bound else "b" for t in atom.terms
            )
            if (atom.relation, adornment) not in adornments:
                adornments.append((atom.relation, adornment))
            return adornment

        def copy(atom: Atom, adornment: str) -> Atom:
            return Atom(f"{atom.relation}@{adornment}", atom.terms, atom.line, atom.column)

        def guard(atom: Atom, adornment: str) -> BodyLiteral:
            """The magic literal of an atom: its terms at the bound positions."""
            terms = tuple(t for t, a in zip(atom.terms, adornment) if a == "b")
            return BodyLiteral(Atom(f"magic@{atom.relation}@{adornment}", terms, atom.line, atom.column))

        adornment = adorn(pattern, set())
        seeds.append(guard(pattern, adornment).atom)
        asked = copy(pattern, adornment)
        for name, adornment in adornments:
            for rule in by_head[name]:
                head_guard = guard(rule.head, adornment)
                bound = set(head_guard.atom.variables())
                body: list[BodyLiteral] = []
                for lit in rule.body:
                    atom = lit.atom
                    if atom.relation not in by_head:
                        inputs.add(atom.relation)
                    elif not lit.positive:
                        return whole
                    else:
                        sub = adorn(atom, bound)
                        magic = guard(atom, sub)
                        if magic != head_guard:
                            prior = [b for b in body if b.positive]
                            rules.append(DatalogRule(magic.atom, (*prior, head_guard)))
                        atom = copy(atom, sub)
                    body.append(BodyLiteral(atom, lit.positive))
                    if lit.positive:
                        bound.update(atom.variables())
                rules.append(DatalogRule(copy(rule.head, adornment), (*body, head_guard)))
            if name in has_rows:
                inputs.add(name)
                row = Atom(name, tuple(Variable(f"V{i}") for i in range(len(adornment))))
                rules.append(DatalogRule(copy(row, adornment), (BodyLiteral(row), guard(row, adornment))))
    _check_edb(program, edb)
    stratify(program)
    return Goal(_rewritten(program, inputs, rules, seeds), _restrict(edb, inputs), asked)


def _rewritten(
    program: DatalogProgram, inputs: set[str], rules: list[DatalogRule], seeds: list[Atom]
) -> DatalogProgram:
    """The program of the given rules over the given input relations.

    Its declarations carry no column types: ``goal_directed`` has checked
    the EDB against the whole program's already.
    """
    arity = {name: program.declarations[name].arity for name in inputs if name in program.declarations}
    for rule in rules:
        arity[rule.head.relation] = rule.head.arity
    for atom in seeds:
        arity[atom.relation] = atom.arity
    declarations = {
        name: Declaration(name, tuple((f"x{i}", None) for i in range(n))) for name, n in arity.items()
    }
    facts = [f for f in program.facts if f.relation in inputs] + seeds
    return DatalogProgram(declarations, facts, rules)


def _restrict(edb: Database, relations: set[str]) -> Database:
    """The EDB's relations among the given ones, sharing their tuple sets."""
    out = Database()
    out.relations = {rel: tuples for rel, tuples in edb.relations.items() if rel in relations}
    return out
