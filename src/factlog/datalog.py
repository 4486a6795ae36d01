"""The Datalog engine: stratifier and semi-naive evaluator.

Programs come from the front end (``syntax``), which parses and checks them;
its public names are imported here too, so ``datalog.parse_program`` and
``datalog.Atom`` still resolve.  Negation must be stratified; evaluation runs
one semi-naive fixpoint per stratum and returns the least model.

Each rule is compiled, once per stratum, into one Python function per delta
literal plus one for the seeding round: nested ``for`` loops that read
variables straight from tuple slots.  The join order is the delta literal,
then the body order, then the negations as ``not in`` tests.  Plans add
every head they derive; each round subtracts the known tuples, one set
difference per derived relation, and what is left is the next delta.  A
literal with bound columns probes a hash index on them; an index is built on
the first probe of a non-empty relation and extended as tuples are
inserted, never rebuilt.

Queries, ``query`` and the goal-directed ``goal_directed``, run through the
same compiler but live in ``queries``, which ``solve`` never needs.  They
still resolve here (``datalog.query``): this module imports them from
``queries`` on first access.
"""

from __future__ import annotations

from itertools import count
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .errors import ArityMismatch, TypeMismatch, UnstratifiableProgram, in_file
from .facts import Database
from .syntax import (  # the front end's public names, re-exported
    Atom,
    BodyLiteral,
    DatalogProgram,
    DatalogRule,
    Declaration,
    Term,
    Variable,
    parse_program,
    parse_query,
)

_QUERY_NAMES = ("Goal", "goal_directed", "query")


def __getattr__(name: str):
    if name not in _QUERY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import queries

    return getattr(queries, name)


# ---------------------------------------------------------------------------
# Stratification


def stratify(program: DatalogProgram) -> list[set[str]]:
    """Partition relations into strata; every negated relation sits strictly
    below its users.  Raises UnstratifiableProgram on a negative cycle, its
    message prefixed with the program's ``path`` when it has one."""
    relations = sorted(program.all_relations())
    deps: dict[str, set[str]] = {r: set() for r in relations}
    negative: dict[tuple[str, str], int] = {}  # (head, negated) -> line of the first rule with it
    for rule in program.rules:
        h = rule.head.relation
        for lit in rule.body:
            deps[h].add(lit.atom.relation)
            if not lit.positive:
                negative.setdefault((h, lit.atom.relation), rule.head.line)

    sccs = _tarjan(relations, deps)  # emitted dependencies-first
    component = {rel: i for i, scc in enumerate(sccs) for rel in scc}
    for (h, b), line in sorted(negative.items()):
        if component[h] == component[b]:
            exc = UnstratifiableProgram(
                f"{h!r} depends negatively on {b!r} inside a recursive cycle (rule at line {line})"
            )
            raise exc if program.path is None else in_file(exc, program.path)

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
