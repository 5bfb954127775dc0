"""erdmc: compile Entity-Relationship data models into mathematical schemes."""

from .census import Tallies, census, verify_translation
from .diagnostics import Diagnostic, ParseError, ParseFailure
from .emitter import emit_structured, emit_text, encode_report, load_structured
from .enrichment import EnrichmentAction, enrich_scheme
from .formula import Formula, format_formula, parse_formula, quantifier_count
from .model import ERModel, validate_model
from .parser import parse_model
from .scheme import EMDMScheme, check_scheme, is_implicit_key
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
    "verify_translation",
    "Diagnostic",
    "ParseError",
    "ParseFailure",
    "emit_structured",
    "emit_text",
    "encode_report",
    "load_structured",
    "EnrichmentAction",
    "enrich_scheme",
    "Formula",
    "format_formula",
    "parse_formula",
    "quantifier_count",
    "ERModel",
    "validate_model",
    "parse_model",
    "EMDMScheme",
    "check_scheme",
    "is_implicit_key",
    "TranslationOptions",
    "TranslationReport",
    "TranslationResult",
    "surrogate_digits",
    "translate",
    "__version__",
]
