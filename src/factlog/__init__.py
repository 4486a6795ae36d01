"""Declarative fact generation and Datalog analysis over source code.

The pipeline: classify source text into code/comment/string regions, match
declarative templates with typed holes against the code, rewrite each match
into ground facts, then evaluate Datalog rules over those facts and query
the result.

Importing the package loads no layer.  Each public name below is imported
from its module on first access (PEP 562), so a program that uses only the
Datalog side (``factlog.load_preset``, ``factlog.evaluate``) never loads the
matcher modules ``languages``, ``templates`` and ``rewrite``, and one that
only loads a preset's program (``factlog.load_preset``, ``factlog.parse_program``)
loads neither the engine ``datalog`` nor the fact layer ``facts``.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "analyses": (
        "AnalysisPreset RunStats discover_files list_presets load_preset run_analysis run_fact_generation"
    ),
    "datalog": "evaluate stratify",
    "errors": (
        "ArityMismatch DatalogError DatalogSyntaxError DuplicateHoleName FactlogError LanguageError "
        "MalformedFact MalformedHole SpecFormatError TypeMismatch UnboundHole UnknownRelation "
        "UnsafeRule UnstratifiableProgram"
    ),
    "facts": "Database Fact format_fact parse_fact_line",
    "languages": (
        "ARITH C GO ZIG LanguageDefinition Region SourceMap classify get_language language_names "
        "load_language_file register_language"
    ),
    "rewrite": (
        "Condition FactSpec NestedRewrite RewriteTemplate RuleSpec apply_rule load_fact_spec "
        "parse_fact_spec parse_rewrite_template parse_rule substitute"
    ),
    "queries": "query",
    "syntax": "Atom BodyLiteral DatalogProgram DatalogRule Declaration Variable parse_program parse_query",
    "templates": "Binding Hole HoleKind Match MatchEnvironment Template iter_matches parse_template",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
