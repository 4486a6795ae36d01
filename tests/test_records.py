"""The record types of every layer: value semantics, immutability, pickling
and repr.

Records are NamedTuples or small classes rather than generated dataclasses,
so that importing factlog runs no code generation.  These checks pin what
the dataclasses gave: which fields equality ignores, that a frozen record
rejects assignment, that the --jobs pool can pickle what it sends, and the
repr bytes that the preset digests in test_analyses.py read.
"""

from __future__ import annotations

import pickle
import re

import pytest

from factlog import (
    ARITH,
    GO,
    AnalysisPreset,
    Atom,
    Binding,
    Hole,
    HoleKind,
    LanguageDefinition,
    LanguageError,
    Match,
    MatchEnvironment,
    Variable,
    load_preset,
    parse_fact_line,
    parse_fact_spec,
    parse_program,
    parse_query,
    parse_rewrite_template,
    parse_rule,
    parse_template,
)
from factlog.rewrite import SubstLiteral, Substitution
from factlog.templates import Literal, Property, compile_template

SPEC = (
    '[match]\nfunc $f() {$body*}\n\n'
    '[rule]\nwhere nested, $f != "main", rewrite $body { $c(...) -> edge("$f", "$c"). }\n\n'
    '[rewrite]\n$body\n'
)


def records() -> dict[str, object]:
    """One instance of each record type, by type name."""
    binding = Binding("a", 2, 3, 1, 3)
    env = MatchEnvironment({"x": binding})
    program = parse_program(".decl e(a: symbol, b: number)\nr(X) :- e(X, _), !s(X).\n")
    rule = program.rules[0]
    spec = parse_fact_spec(SPEC, name="calls", language="go")
    return {
        "Literal": Literal("f("),
        "Hole": Hole("x", HoleKind.STRING_BODY),
        "Template": spec.match,
        "Binding": binding,
        "MatchEnvironment": env,
        "Match": Match(0, 4, env),
        "SubstLiteral": SubstLiteral("e("),
        "Substitution": Substitution("x", Property.LINE, 1),
        "RewriteTemplate": parse_rewrite_template('e("$x", $x.line + 1).'),
        "Condition": spec.rule.conditions[0],
        "NestedRewrite": spec.rule.nested_rewrites[0],
        "RuleSpec": parse_rule("where nested"),
        "FactSpec": spec,
        "Fact": parse_fact_line('edge("a", -1).'),
        "Variable": Variable("X"),
        "Atom": parse_query('calls("a", X)'),
        "BodyLiteral": rule.body[1],
        "DatalogRule": rule,
        "Declaration": program.declarations["e"],
        "AnalysisPreset": AnalysisPreset("p", "arith", (), "", "", ("e",)),
        "LanguageDefinition": ARITH,
    }


# Taken from the dataclass versions of these records.
REPRS = {
    "Literal": "Literal(text='f(')",
    "Hole": "Hole(name='x', kind=<HoleKind.STRING_BODY: 'string_body'>)",
    "Template": (
        "Template(text='func $f() {$body*}', atoms=(Literal(text='func '), "
        "Hole(name='f', kind=<HoleKind.EXPRESSION: 'expression'>), Literal(text='() {'), "
        "Hole(name='body', kind=<HoleKind.EVERYTHING: 'everything'>), Literal(text='}')))"
    ),
    "Binding": "Binding(text='a', start=2, end=3, line=1, column=3)",
    "MatchEnvironment": (
        "MatchEnvironment(bindings={'x': Binding(text='a', start=2, end=3, line=1, "
        'column=3)})'
    ),
    "Match": (
        "Match(start=0, end=4, env=MatchEnvironment(bindings={'x': Binding(text='a', "
        'start=2, end=3, line=1, column=3)}))'
    ),
    "SubstLiteral": "SubstLiteral(text='e(')",
    "Substitution": "Substitution(name='x', prop=<Property.LINE: 'line'>, offset=1)",
    "RewriteTemplate": (
        'RewriteTemplate(text=\'e("$x", $x.line + 1).\', atoms=(SubstLiteral(text=\'e("\'), '
        "Substitution(name='x', prop=<Property.VALUE: 'value'>, offset=0), "
        'SubstLiteral(text=\'", \'), Substitution(name=\'x\', prop=<Property.LINE: \'line\'>, '
        "offset=1), SubstLiteral(text=').')))"
    ),
    "Condition": "Condition(hole='f', op=<CondOp.NEQ: '!='>, value='main')",
    "NestedRewrite": (
        "NestedRewrite(target='body', inner_match=Template(text='$c(...)', "
        "atoms=(Hole(name='c', kind=<HoleKind.EXPRESSION: 'expression'>), "
        "Literal(text='('), Hole(name=None, kind=<HoleKind.ANONYMOUS: 'anonymous'>), "
        'Literal(text=\')\'))), inner_rewrite=RewriteTemplate(text=\'edge("$f", "$c").\', '
        'atoms=(SubstLiteral(text=\'edge("\'), Substitution(name=\'f\', '
        'prop=<Property.VALUE: \'value\'>, offset=0), SubstLiteral(text=\'", "\'), '
        "Substitution(name='c', prop=<Property.VALUE: 'value'>, offset=0), "
        'SubstLiteral(text=\'").\'))))'
    ),
    "RuleSpec": 'RuleSpec(nested=True, conditions=(), nested_rewrites=())',
    "FactSpec": (
        "FactSpec(name='calls', language='go', match=Template(text='func $f() {$body*}', "
        "atoms=(Literal(text='func '), Hole(name='f', "
        "kind=<HoleKind.EXPRESSION: 'expression'>), Literal(text='() {'), "
        "Hole(name='body', kind=<HoleKind.EVERYTHING: 'everything'>), "
        "Literal(text='}'))), rule=RuleSpec(nested=True, conditions=(Condition(hole='f', "
        "op=<CondOp.NEQ: '!='>, value='main'),), "
        "nested_rewrites=(NestedRewrite(target='body', "
        "inner_match=Template(text='$c(...)', atoms=(Hole(name='c', "
        "kind=<HoleKind.EXPRESSION: 'expression'>), Literal(text='('), Hole(name=None, "
        "kind=<HoleKind.ANONYMOUS: 'anonymous'>), Literal(text=')'))), "
        'inner_rewrite=RewriteTemplate(text=\'edge("$f", "$c").\', '
        'atoms=(SubstLiteral(text=\'edge("\'), Substitution(name=\'f\', '
        'prop=<Property.VALUE: \'value\'>, offset=0), SubstLiteral(text=\'", "\'), '
        "Substitution(name='c', prop=<Property.VALUE: 'value'>, offset=0), "
        'SubstLiteral(text=\'").\')))),)), rewrite=RewriteTemplate(text=\'$body\', '
        "atoms=(Substitution(name='body', prop=<Property.VALUE: 'value'>, offset=0),)))"
    ),
    "Fact": "Fact(relation='edge', args=('a', -1))",
    "Variable": "Variable(name='X')",
    "Atom": "Atom(relation='calls', terms=('a', Variable(name='X')), line=1, column=1)",
    "BodyLiteral": (
        "BodyLiteral(atom=Atom(relation='s', terms=(Variable(name='X'),), line=2, "
        'column=19), positive=False)'
    ),
    "DatalogRule": (
        "DatalogRule(head=Atom(relation='r', terms=(Variable(name='X'),), line=2, "
        "column=1), body=(BodyLiteral(atom=Atom(relation='e', terms=(Variable(name='X'), "
        "Variable(name='_')), line=2, column=9), positive=True), "
        "BodyLiteral(atom=Atom(relation='s', terms=(Variable(name='X'),), line=2, "
        'column=19), positive=False)))'
    ),
    "Declaration": "Declaration(relation='e', params=(('a', 'symbol'), ('b', 'number')))",
    "AnalysisPreset": (
        "AnalysisPreset(name='p', language='arith', specs=(), program_text='', "
        "primary_output='', fact_relations=('e',), graph_relation=None)"
    ),
    "LanguageDefinition": (
        "LanguageDefinition(name='arith', line_comment_prefixes=(), "
        "block_comment_pairs=(), string_delimiters=(), balanced_pairs=(('(', ')'), ('[', "
        "']'), ('{', '}')), identifier_extra='_', value_prefix_chars='', "
        'nest_block_comments=False)'
    ),
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_unchanged(name):
    record = records()[name]
    assert type(record).__name__ == name
    assert repr(record) == REPRS[name]


@pytest.mark.parametrize("name", sorted(REPRS))
def test_fields_cannot_be_set(name):
    record = records()[name]
    field = re.match(r"\w+\((\w+)=", REPRS[name])[1]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize(
    "a, b, same",
    [
        (Atom("e", ("a",), 1, 2), Atom("e", ("a",), 3, 4), True),
        (Atom("e", ("a",), 1, 2), Atom("e", ("b",), 1, 2), False),
        (Atom("e", ("a",)), Atom("f", ("a",)), False),
        (parse_template("f($x)"), compile_template(parse_template("f($x)"), GO), True),
        (parse_template("f($x)"), parse_template("f($y)"), False),
    ],
)
def test_equality_ignores_position_and_compiled_form(a, b, same):
    assert (a == b) is same
    assert (a != b) is not same
    if same:
        assert hash(a) == hash(b)


def test_template_repr_leaves_out_compiled_form():
    template = parse_template("f($x)")
    compiled = compile_template(template, GO)
    assert compiled.compiled is not None
    assert repr(compiled) == repr(template) == (
        "Template(text='f($x)', atoms=(Literal(text='f('), "
        "Hole(name='x', kind=<HoleKind.EXPRESSION: 'expression'>), Literal(text=')')))"
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"name": ""},
        {"name": "x", "balanced_pairs": (("|", "|"),)},
        {"name": "x", "balanced_pairs": (("((", ")"),)},
        {"name": "x", "line_comment_prefixes": ("#", "##")},
        {"name": "x", "string_delimiters": (('"', '"', "ab"),)},
    ],
)
def test_language_definition_checks_at_construction(kwargs):
    with pytest.raises(LanguageError):
        LanguageDefinition(**kwargs)


def test_pool_payload_survives_pickle():
    lang = LanguageDefinition(name="toy", line_comment_prefixes=("#",), value_prefix_chars="*")
    assert pickle.loads(pickle.dumps(lang)) == lang
    assert type(pickle.loads(pickle.dumps(lang))) is LanguageDefinition

    def compiled(template):
        c = template.compiled
        return c.language, c.pieces, c.strategy, c.key, c.unit_start_re, c.scan_res

    for spec in load_preset("callgraph-go-methods").fact_specs:
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and repr(copy) == repr(spec)
        assert compiled(copy.match) == compiled(spec.match)
        for ours, theirs in zip(copy.rule.nested_rewrites, spec.rule.nested_rewrites):
            assert compiled(ours.inner_match) == compiled(theirs.inner_match)
