"""The reference interpreter of rewrite rules: one match at a time, its
conditions, its nested rewrites and its rows, read off the rule's plan.

A fact spec of the shape every bundled spec has compiles to one generated
function (see ``rewrite._generated``), which does not run this code.  Any
other spec runs here, one outer match at a time: apply_rule, then _emit.
The interpreter is also the library's ``apply_rule`` and the in-package
reference the generated functions are checked against.  ``rewrite``
imports it only when a spec of another shape compiles, so a run over
sources whose specs are all generated never compiles it.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import partial
from typing import Callable

from .errors import UnboundHole
from .languages import SourceMap
from .rewrite import ArgPlan, LinePlan, RewriteTemplate, RuleSpec, substitute
from .templates import Binding, MatchEnvironment, Property, iter_matches, iter_nested_matches


RuleOutput = namedtuple("RuleOutput", "env inner")
RuleOutput.__doc__ = """RuleOutput(env: MatchEnvironment, inner: dict[str, list]): a match after
its rule.  In env, a nested target is bound to its inner rewrites joined by
newlines, built when env first reads it; inner holds each nested target's
rows and text-path lines, in order."""


def apply_rule(rule: RuleSpec, env: MatchEnvironment, smap: SourceMap) -> RuleOutput | None:
    """Apply conditions and nested rewrites; None means the rule vetoed the match.

    Conditions on holes bound by the outer match gate the whole rule;
    conditions naming holes bound only inside nested rewrites filter the
    individual inner matches instead.  Each hole's conditions are one test
    of the rule's plan; a vetoed inner match still consumes its window.
    """
    plan = rule.plan
    found = env.bindings
    if not found.keys() >= plan.outer:  # a condition names a hole no match binds
        return _gate_in_order(rule, env)
    for hole, values, keep in plan.gates:
        b = found.get(hole)
        if b is not None and (b.text in values) is not keep:
            return None
    bindings = _Bindings(found)
    inner: dict[str, list] = {}
    inner_matches = iter_nested_matches if rule.nested else iter_matches
    for nr, (tests, names) in zip(rule.nested_rewrites, plan.nested):
        target = env[nr.target]
        outer = {}
        for name in names:
            try:
                outer[name] = bindings[name]
            except KeyError:
                pass  # unbound: the first inner match that is kept raises
        items: list = []
        kept = []
        lines = nr.inner_rewrite.lines
        for m in inner_matches(nr.inner_match, smap, target.start, target.end):
            found = m.env.bindings
            for hole, values, keep in tests:
                if (found[hole].text in values) is not keep:
                    break
            else:
                found = {**found, **outer} if outer else found
                _emit(lines, found, items)
                kept.append(found)
        inner[nr.target] = items
        bindings.defer(nr.target, partial(_joined, nr.inner_rewrite, kept, target))
    return RuleOutput(MatchEnvironment(bindings), inner)


def _gate_in_order(rule: RuleSpec, env: MatchEnvironment) -> None:
    """The conditions one at a time, in the rule's order, when one of them
    names an unbound hole: a failed one before it vetoes the match (None),
    and otherwise that condition raises."""
    for cond in rule.conditions:
        if cond.hole in env:
            if not cond.holds(env[cond.hole].text):
                return
        elif cond.hole not in rule.plan.inner_names:
            raise UnboundHole(f"condition names unbound hole ${cond.hole}")


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
