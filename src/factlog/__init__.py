"""Declarative fact generation and Datalog analysis over source code.

The pipeline: classify source text into code/comment/string regions, match
declarative templates with typed holes against the code, rewrite each match
into ground facts, then evaluate Datalog rules over those facts and query
the result.
"""

from .analyses import (
    AnalysisPreset,
    RunStats,
    discover_files,
    list_presets,
    load_preset,
    run_analysis,
    run_fact_generation,
)
from .datalog import (
    Atom,
    BodyLiteral,
    DatalogProgram,
    DatalogRule,
    Declaration,
    Variable,
    evaluate,
    parse_program,
    parse_query,
    query,
    stratify,
)
from .errors import (
    ArityMismatch,
    DatalogError,
    DatalogSyntaxError,
    DuplicateHoleName,
    FactlogError,
    LanguageError,
    MalformedFact,
    MalformedHole,
    SpecFormatError,
    TypeMismatch,
    UnboundHole,
    UnknownRelation,
    UnsafeRule,
    UnstratifiableProgram,
)
from .facts import Database, Fact, format_fact, parse_fact_line
from .languages import (
    ARITH,
    C,
    GO,
    ZIG,
    LanguageDefinition,
    Region,
    SourceMap,
    classify,
    get_language,
    language_names,
    load_language_file,
    register_language,
)
from .rewrite import (
    Condition,
    FactSpec,
    NestedRewrite,
    RewriteTemplate,
    RuleSpec,
    apply_rule,
    load_fact_spec,
    parse_fact_spec,
    parse_rewrite_template,
    parse_rule,
    substitute,
)
from .templates import (
    Binding,
    Hole,
    HoleKind,
    Match,
    MatchEnvironment,
    Template,
    iter_matches,
    parse_template,
)

__version__ = "0.1.0"
