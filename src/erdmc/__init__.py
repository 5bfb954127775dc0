"""erdmc: compile Entity-Relationship data models into mathematical schemes."""

from .census import Tallies, census
from .diagnostics import Diagnostic, ParseError, ParseFailure
from .emitter import emit_structured, emit_text, load_structured
from .enrichment import EnrichmentAction, apply_actions, enrich_scheme
from .formula import Formula, format_formula, free_variables, parse_formula, quantifier_count
from .model import ERModel, classify_restriction, validate_model
from .parser import parse_model
from .scheme import EMDMScheme, check_scheme, is_implicit_key, structural_key
from .translator import (
    TranslationOptions,
    TranslationReport,
    TranslationResult,
    surrogate_digits,
    translate,
)

__version__ = "0.1.0"

__all__ = [
    "Tallies",
    "census",
    "Diagnostic",
    "ParseError",
    "ParseFailure",
    "emit_structured",
    "emit_text",
    "load_structured",
    "EnrichmentAction",
    "apply_actions",
    "enrich_scheme",
    "Formula",
    "format_formula",
    "free_variables",
    "parse_formula",
    "quantifier_count",
    "ERModel",
    "classify_restriction",
    "validate_model",
    "parse_model",
    "EMDMScheme",
    "check_scheme",
    "is_implicit_key",
    "structural_key",
    "TranslationOptions",
    "TranslationReport",
    "TranslationResult",
    "surrogate_digits",
    "translate",
    "__version__",
]
