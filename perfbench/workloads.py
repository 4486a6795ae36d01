"""Seeded workload generators and their independent references.

Each workload writes the input files factlog receives and computes, without
calling into factlog, the tuples a correct run must produce: the full IDB
relation that ``solve`` writes and the answers to seeded bound queries.

The sizes are well below the 100 KLOC figures quoted in the roadmap, so that
one CLI solve takes under a second on a 2-core machine and a timed run holds
15 to 20 rounds.  Each generator fixes its totals (files, functions, nodes,
edges, lines), so seeds change the shape of the input but hardly its size,
and run-to-run spread across seeds stays small.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Workload:
    """Generated inputs plus the reference answers for one (workload, seed)."""

    preset: str
    inputs: list[Path]
    relation: str  # the IDB relation solve writes and queries ask about
    expected: set[tuple]  # reference tuples of that relation
    queries: list[str]  # seeded bound queries, first argument fixed
    lines: int
    files: int
    edb_tuples: int
    extra: dict = field(default_factory=dict)

    def answers(self, query_text: str) -> set[str]:
        """Reference answers to ``rel("k", X)``, rendered as the CLI prints them."""
        key = _query_key(query_text)
        return {str(t[1]) for t in self.expected if str(t[0]) == key}


def _query_key(query_text: str) -> str:
    inside = query_text[query_text.index("(") + 1 : query_text.rindex(")")]
    return inside.split(",")[0].strip().strip('"')


def _closure(edges: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """Transitive closure by one breadth-first search per source node."""
    succ: dict[str, list[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    out: set[tuple[str, str]] = set()
    for src in succ:
        seen: set[str] = set()
        todo = deque(succ[src])
        while todo:
            node = todo.popleft()
            if node in seen:
                continue
            seen.add(node)
            todo.extend(succ.get(node, ()))
        out.update((src, node) for node in seen)
    return out


def _pick_queries(rng: random.Random, expected: set[tuple], count: int, relation: str) -> list[str]:
    """Bound queries on sources with at least one answer, chosen by the seed."""
    sources = sorted({t[0] for t in expected}, key=str)
    return [f'{relation}("{s}", X)' for s in rng.sample(sources, count)]


# ---------------------------------------------------------------------------
# c-callgraph
#
# Why: the matcher-heavy path.  Every function body goes through the nested
# descent (rewrite.apply_rule calling templates.first_match), which dominated
# a profile of the 100 KLOC corpus, while the Datalog part is a small,
# file-local closure.  The generator mirrors scripts/make_c_corpus.py,
# including call-shaped text inside comments and strings that must not
# match, but records every planted call edge so the reference closure does
# not depend on factlog's matcher.

C_FILES = 10
C_FUNCTIONS_PER_FILE = 50
C_LIBRARY = ("printf", "putchar", "abs")
C_FILLERS = (
    "    int t{n} = a * {k} + b;",
    "    a = a + {k};",
    "    b ^= a >> {small};",
    "    /* fake(call) inside a comment {{ ignored */",
    "    // trailing note: not_a_call(b)",
    '    const char *m{n} = "junk(call) {{ /* tricky */";',
    '    a += sizeof("label(text)");',
)
C_BLOCK_FILLERS = (
    "    if(a > {k}) {{\n        a = a - {small};\n    }}",
    "    while(b > {k}) {{\n        b = b - {small};\n    }}",
)


def _c_function(rng: random.Random, name: str, prior: list[str], edges: set) -> list[str]:
    lines = [f"int {name}(int a, int b) {{"]
    pool = prior[-3:] + list(C_LIBRARY)
    for n in range(rng.randint(4, 9)):
        roll = rng.random()
        if roll < 0.40:
            callee = rng.choice(pool)
            edges.add((name, callee))
            if callee == "printf":
                lines.append('    a += printf("%d:%d\\n", a, b);')
            else:
                lines.append(f"    a += {callee}(a, b);")
        elif roll < 0.55:
            callee = rng.choice(pool)
            edges.add((name, callee))
            lines.append(f"    if(b > {rng.randint(1, 9)}) {{")
            lines.append(f"        b = {callee}(b, a);")
            lines.append("    }")
        elif roll < 0.70:
            filler = rng.choice(C_BLOCK_FILLERS)
            lines.append(filler.format(k=rng.randint(1, 99), small=rng.randint(1, 9)))
        else:
            filler = rng.choice(C_FILLERS)
            lines.append(filler.format(n=n, k=rng.randint(1, 99), small=rng.randint(1, 9)))
    lines += ["    return a + b;", "}", ""]
    return lines


def c_callgraph(seed: int, out: Path) -> Workload:
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    edges: set[tuple[str, str]] = set()
    paths: list[Path] = []
    total_lines = 0
    for idx in range(C_FILES):
        lines = [
            f"/* generated scheduler shard {idx} */",
            "#include <stdio.h>",
            "#include <stdlib.h>",
            "",
            f"static int state{idx} = 0;",
            "",
        ]
        names: list[str] = []
        for j in range(C_FUNCTIONS_PER_FILE):
            name = f"fn{idx}_{j}"
            lines.extend(_c_function(rng, name, names, edges))
            names.append(name)
        text = "\n".join(lines) + "\n"
        path = out / f"shard{idx:04d}.c"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
        total_lines += text.count("\n")
    expected = _closure(edges)
    return Workload(
        preset="callgraph-c",
        inputs=[out],
        relation="calls",
        expected=expected,
        queries=_pick_queries(rng, expected, 20, "calls"),
        lines=total_lines,
        files=len(paths),
        edb_tuples=len(edges),
        extra={"functions": C_FILES * C_FUNCTIONS_PER_FILE},
    )


# ---------------------------------------------------------------------------
# tc-random
#
# Why: no matcher work at all.  One .dl fact file goes straight to
# callgraph-c's program, so the time is loading facts, the Datalog join
# path with large deltas over few rounds, and serialising a big closure.  A
# matcher optimisation should leave this workload unchanged.  The DAG is
# layered (each node has edges to random nodes of the next layer), so the
# closure size, and with it the time, hardly changes from seed to seed; an
# unlayered random DAG's closure varied by about 10%.

TC_LAYERS = 12
TC_WIDTH = 28
TC_OUT_DEGREE = 3


def tc_random(seed: int, out: Path) -> Workload:
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    labels = [f"n{i}" for i in range(TC_LAYERS * TC_WIDTH)]
    rng.shuffle(labels)
    layers = [labels[i * TC_WIDTH : (i + 1) * TC_WIDTH] for i in range(TC_LAYERS)]
    edges = {
        (a, b)
        for here, nxt in zip(layers, layers[1:])
        for a in here
        for b in rng.sample(nxt, TC_OUT_DEGREE)
    }
    path = out / "edges.dl"
    lines = [f'edge("{a}", "{b}").' for a, b in sorted(edges)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = _closure(edges)
    return Workload(
        preset="callgraph-c",
        inputs=[path],
        relation="calls",
        expected=expected,
        queries=_pick_queries(rng, expected, 20, "calls"),
        lines=len(lines),
        files=1,
        edb_tuples=len(edges),
        extra={"nodes": len(labels), "layers": TC_LAYERS},
    )


# ---------------------------------------------------------------------------
# arith-liveness
#
# Why: the same layers used differently.  The templates are flat (no nested
# descent), every line yields four facts, so fact-line parsing and
# substitution weigh more, and the Datalog program has integer columns,
# negation and long chains of small semi-naive deltas.

ARITH_LINES = 1500
ARITH_VARS = 40


def arith_liveness(seed: int, out: Path) -> Workload:
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    names = [f"v{i}" for i in range(ARITH_VARS)]
    stmts = [
        (rng.choice(names), rng.choice(names), rng.choice("+-"), rng.choice(names))
        for _ in range(ARITH_LINES)
    ]
    path = out / "program.arith"
    path.write_text("".join(f"{d} = {a} {op} {b}\n" for d, a, op, b in stmts), encoding="utf-8")
    expected = _forward_liveness(stmts)
    edb = {("read", a, n) for n, (_, a, _, _) in enumerate(stmts, 1)}
    edb |= {("read", b, n) for n, (_, _, _, b) in enumerate(stmts, 1)}
    return Workload(
        preset="liveness-arith",
        inputs=[path],
        relation="live",
        expected=expected,
        queries=_pick_queries(rng, expected, 20, "live"),
        lines=ARITH_LINES,
        files=1,
        # read (unique per line), write and next (one each per line)
        edb_tuples=len(edb) + 2 * ARITH_LINES,
        extra={"variables": ARITH_VARS},
    )


def _forward_liveness(stmts: list[tuple[str, str, str, str]]) -> set[tuple]:
    """live(X, L) for liveness-arith's program, by one forward scan.

    X is live at line L if L reads X, or X was live at L-1 and L does not
    write X.  Every line 1..N is a statement with an edge to the next line,
    so line N+1 (which writes nothing) inherits line N's live set.
    """
    live: set[str] = set()
    out: set[tuple] = set()
    for n, (dst, a, _, b) in enumerate(stmts, 1):
        live = {x for x in live if x != dst} | {a, b}
        out.update((x, n) for x in live)
    out.update((x, len(stmts) + 1) for x in live)
    return out


GENERATORS = {
    "c-callgraph": c_callgraph,
    "tc-random": tc_random,
    "arith-liveness": arith_liveness,
}
