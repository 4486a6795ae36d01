"""The record types of every layer: value semantics, immutability, pickling
and repr.

Records are collections.namedtuple classes, or small classes, rather than
generated dataclasses or typing.NamedTuple classes, so that importing
factlog runs no code generation and evaluates no annotations.  These checks
pin what the dataclasses gave: which fields equality ignores, that a frozen
record rejects assignment, that the --jobs pool can pickle what it sends,
and the repr bytes that the preset digests in test_analyses.py read.
"""

from __future__ import annotations

import pickle
import re
import subprocess
import sys

import pytest

from factlog import (
    ARITH,
    GO,
    classify,
    AnalysisPreset,
    Atom,
    Binding,
    Database,
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
from factlog.corpus import RunStats
from factlog.rewrite import (
    Condition,
    CondOp,
    RewriteTemplate,
    RuleSpec,
    SubstLiteral,
    Substitution,
    _plan_rule,
    _spec_function,
)
from factlog.templates import Literal, Property, Template, _compile, compile_template, iter_matches

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


@pytest.mark.parametrize("name", sorted(REPRS))
def test_only_records_that_keep_what_they_derive_have_a_dict(name):
    # every other record is slotted: its instances are bare tuples
    keeps = name in {"AnalysisPreset", "RewriteTemplate", "RuleSpec", "Template"}
    assert hasattr(records()[name], "__dict__") is keeps


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


def test_pool_payload_survives_pickle(samples_dir):
    lang = LanguageDefinition(name="toy", line_comment_prefixes=("#",), value_prefix_chars="*")
    assert pickle.loads(pickle.dumps(lang)) == lang
    assert type(pickle.loads(pickle.dumps(lang))) is LanguageDefinition

    def compiled(template):
        c = template.compiled
        return c.atoms, c.language, c.pieces, c.strategy, c.key, c.unit_start_re

    def run(function, smap):
        db, diagnostics = Database(), []
        return db, function(smap, db, diagnostics, "example.go"), diagnostics

    # the generated matcher and spec function are not pickled: a copy
    # compiles its templates again and generates its function again
    smap = classify("func (s *T) Run(x int) error { return s.f(x) }\nfunc g() { h() }\n", GO)
    sample = classify((samples_dir / "example.go").read_text(encoding="utf-8"), GO)
    for spec in load_preset("callgraph-go-methods").fact_specs:
        payload = pickle.dumps(spec)
        original = _spec_function(spec)
        _compile.cache_clear()
        _spec_function.cache_clear()
        copy = pickle.loads(payload)
        rebuilt = _spec_function(copy)
        assert rebuilt is not original
        for source in (sample, smap):
            assert run(rebuilt, source) == run(original, source)
        assert run(rebuilt, smap)[0].fact_count() > 0
        assert copy == spec and repr(copy) == repr(spec)
        assert compiled(copy.match) == compiled(spec.match)
        assert list(iter_matches(copy.match, smap)) == list(iter_matches(spec.match, smap)) != []
        assert copy.rule.plan == spec.rule.plan and copy.rewrite.lines == spec.rewrite.lines
        for ours, theirs in zip(copy.rule.nested_rewrites, spec.rule.nested_rewrites):
            assert compiled(ours.inner_match) == compiled(theirs.inner_match)
            assert ours.inner_rewrite.lines == theirs.inner_rewrite.lines


@pytest.mark.parametrize(
    "record, fields",
    [
        (Template, ("text", "atoms")),
        (RuleSpec, ("nested", "conditions", "nested_rewrites")),
        (RewriteTemplate, ("text", "atoms")),
        (RunStats, ("files", "line_count", "fact_count", "function_count", "spec_matches", "elapsed_s")),
    ],
)
def test_records_hold_only_their_fields(record, fields):
    # what a record derives (a compiled form, a plan) sits beside its fields
    assert record._fields == fields
    assert RunStats._field_defaults == {}  # so no run shares a spec_matches dict


def test_replaced_rule_plans_its_new_conditions():
    rule = parse_rule('where $f != "main"')
    assert rule.plan.gates == (("f", frozenset({"main"}), False),)
    other = rule._replace(conditions=(Condition("f", CondOp.EQ, "x"),))
    assert tuple(other) == (False, other.conditions, ())
    assert other.plan == _plan_rule(other.conditions, ()) != rule.plan


def test_no_module_builds_a_forward_ref():
    # typing.NamedTuple turns each string annotation of a record into a
    # typing.ForwardRef when the class is defined
    code = (
        "import importlib, pkgutil, typing\n"
        "made = []\n"
        "init = typing.ForwardRef.__init__\n"
        "def counted(self, arg, *args, **kwargs):\n"
        "    made.append(arg)\n"
        "    init(self, arg, *args, **kwargs)\n"
        "typing.ForwardRef.__init__ = counted\n"
        "import factlog\n"
        "for name in factlog.list_presets():\n"
        "    factlog.load_preset(name).program()\n"
        "for module in pkgutil.iter_modules(factlog.__path__):\n"
        "    importlib.import_module(f'factlog.{module.name}')\n"
        "print(made)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
