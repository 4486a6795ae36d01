"""The benchmark's own readers for factlog's outputs.

These parse ``idb.dl`` and ``query`` output with code of their own, so a
bug in factlog's fact parser or serialiser cannot hide a wrong answer.
"""

from __future__ import annotations

import re

_FACT_RE = re.compile(r'\s*([A-Za-z_]\w*)\((.*)\)\.?\s*\Z')
_ARG_RE = re.compile(r'\s*(?:"((?:[^"\\]|\\.)*)"|(-?\d+))\s*(?:,|\Z)')
_UNESCAPE = {"n": "\n", "r": "\r", "t": "\t"}


def _unescape(body: str) -> str:
    return re.sub(r"\\(.)", lambda m: _UNESCAPE.get(m.group(1), m.group(1)), body)


def parse_dl(text: str) -> dict[str, set[tuple]]:
    """Relation name -> tuples, from ``rel("sym", 12).`` lines.

    Raises ValueError on a line that is not a well-formed fact.
    """
    out: dict[str, set[tuple]] = {}
    for line in text.split("\n"):
        if not line.strip():
            continue
        m = _FACT_RE.match(line)
        if m is None:
            raise ValueError(f"not a fact line: {line!r}")
        args: list[str | int] = []
        pos, body = 0, m.group(2)
        while pos < len(body):
            a = _ARG_RE.match(body, pos)
            if a is None:
                raise ValueError(f"bad argument list: {line!r}")
            args.append(_unescape(a.group(1)) if a.group(2) is None else int(a.group(2)))
            pos = a.end()
        out.setdefault(m.group(1), set()).add(tuple(args))
    return out


def solve_output_ok(text: str, relation: str, expected: set[tuple]) -> bool:
    """idb.dl holds exactly the expected tuples of relation and nothing else."""
    try:
        got = parse_dl(text)
    except ValueError:
        return False
    return set(got) == {relation} and got[relation] == expected


def query_output_ok(text: str, expected: set[str]) -> bool:
    """One answer per line, each exactly once, matching the expected set."""
    lines = [line for line in text.split("\n") if line]
    return len(lines) == len(set(lines)) and set(lines) == expected
