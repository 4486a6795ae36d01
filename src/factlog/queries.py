"""Queries: ``query`` over a solved database, and the goal-directed rewrite.

A query runs through the engine's rule compiler as one positive literal.  A
query can be goal-directed (``goal_directed``): a pattern that binds an
argument of a derived relation evaluates a magic-set rewrite of only the
rules it reaches, seeded with its constants, and a query on a relation no
rule derives evaluates no rules at all.  A pattern of variables only, and a
query that reaches a negated derived relation, evaluate the whole program.

Only ``factlog query`` and library callers ask queries, so ``solve`` never
compiles this module.  ``datalog.query``, ``datalog.goal_directed`` and
``datalog.Goal`` still resolve: ``datalog`` imports them from here on first
access.
"""

from __future__ import annotations

from typing import NamedTuple

from .datalog import _check_edb, _compile_rule, stratify
from .errors import ArityMismatch, UnknownRelation
from .facts import Database
from .syntax import Atom, BodyLiteral, DatalogProgram, DatalogRule, Declaration, Variable, parse_query


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
