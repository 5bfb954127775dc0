"""Render schemes as readable text and as a lossless structured document.

The text form prints each set block in translation order: header (bare
name, or ``NAME = (role -> TARGET, ...)`` for relationship-derived sets),
inclusions, the object identifier, attribute and function lines, explicit
keys, and in-block tuple constraints; nonrelational constraints follow all
sets. Implicit keys are not printed: they are implied by the header.

The structured form is a versioned JSON document that round-trips the
scheme exactly, implicit keys and provenance included.
"""

from __future__ import annotations

import json
from collections import defaultdict
from json.encoder import encode_basestring_ascii as _q
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from .diagnostics import ERROR, Diagnostic, ParseFailure
from .formula import format_formula, parse_formula
from .lexer import GLYPH_OF, PLAIN, quote_string
from .model import (
    AsciiRange,
    Bound,
    DateBound,
    FuncBound,
    IntBound,
    Interval,
    NatRange,
    Pow10Bound,
    Range,
)
from .scheme import (
    ATTRIBUTE,
    COMPUTED,
    Constraint,
    EMDMScheme,
    EMDMSet,
    InclusionConstraint,
    Key,
    Mapping,
    NonrelationalConstraint,
    RELATIONSHIP_DERIVED,
    ROLE,
    TupleConstraint,
    check_scheme,
)

if TYPE_CHECKING:
    from .translator import TranslationReport

STRUCTURED_VERSION = 1


class EmitError(Exception):
    """Raised when asked to render a scheme that fails its soundness check."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(d.render() for d in diagnostics))


class StructuredFormatError(Exception):
    """Raised on malformed structured documents; carries a path or position."""

    def __init__(self, message: str, path: str = "$"):
        self.path = path
        super().__init__(f"{path}: {message}")


# --- text rendering ---

def format_bound(b: Bound) -> str:
    if isinstance(b, IntBound):
        return str(b.value)
    if isinstance(b, Pow10Bound):
        return f"10^{b.exponent}"
    if isinstance(b, (DateBound, FuncBound)):
        return b.text
    raise TypeError(f"not a bound: {b!r}")


def format_range(r: Range) -> str:
    if isinstance(r, Interval):
        return f"[{format_bound(r.lo)}, {format_bound(r.hi)}]"
    if isinstance(r, AsciiRange):
        return f"ASCII({r.length})"
    if isinstance(r, NatRange):
        return f"NAT({r.digits})"
    raise TypeError(f"not a range: {r!r}")


def emit_text(scheme: EMDMScheme, unicode: bool = False) -> str:
    """Render *scheme*; refuses schemes that fail the soundness check."""
    diagnostics = [d for d in check_scheme(scheme) if d.severity == ERROR]
    if diagnostics:
        raise EmitError(diagnostics)

    # One walk renders each constraint: inclusions and tuple checks are filed
    # under their set, in order; nonrelational constraints follow all sets.
    ops = GLYPH_OF if unicode else PLAIN
    inclusions: defaultdict[str, list[str]] = defaultdict(list)
    checks: defaultdict[str, list[str]] = defaultdict(list)
    trailing: list[str] = []
    for c in scheme.constraints:
        if isinstance(c, InclusionConstraint):
            inclusions[c.subset].append(f"  {c.subset} {ops['subset_of']} {c.superset}")
        elif isinstance(c, TupleConstraint):
            checks[c.set_name].append(f"  {c.label}: {format_formula(c.formula, unicode)}")
        elif c.formula is not None:
            trailing.append(f"{c.label}: {format_formula(c.formula, unicode)}")
        else:
            trailing.append(f"{c.label}: informal {quote_string(c.informal)}")

    blocks: list[str] = []
    for s in scheme.sets:
        blocks.append(_render_set(s, inclusions.get(s.name, ()), checks.get(s.name, ()), ops))
    if trailing:
        blocks.append("\n".join(trailing))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def _render_set(
    s: EMDMSet, inclusions: Sequence[str], checks: Sequence[str], ops: dict[str, str]
) -> str:
    if s.kind == COMPUTED:
        return f"{s.name} = {s.computed_definition}"

    arrows = (ops["->"], ops["<->"])  # indexed by one_to_one
    if s.kind == RELATIONSHIP_DERIVED:
        sig = ", ".join(f"{role} {arrows[0]} {target}" for role, target in s.role_signature)
        lines = [f"{s.name} = ({sig})", *inclusions]
    else:
        lines = [s.name, *inclusions]
    lines.append(_render_mapping(s.name, s.object_identifier, arrows))
    for m in s.mappings:
        if m.flavor == ATTRIBUTE:
            lines.append(_render_mapping(s.name, m, arrows))
    for m in s.mappings:
        if m.flavor != ATTRIBUTE and m.flavor != ROLE:
            lines.append(_render_mapping(s.name, m, arrows))
    bullet = f" {ops['.']} "
    for k in s.keys:
        if not k.implicit:
            lines.append(f"  {k.label}: {bullet.join(k.mappings)} key")
    lines += checks
    return "\n".join(lines)


def _render_mapping(set_name: str, m: Mapping, arrows: tuple[str, str]) -> str:
    """``name : SET -> T``, ``name -> RANGE`` or ``name``, then `` = definition``, ``, total``."""
    arrow = arrows[m.one_to_one]
    if isinstance(m.codomain, str):
        text = f"  {m.name} : {set_name} {arrow} {m.codomain}"
    elif m.codomain is not None:
        text = f"  {m.name} {arrow} {format_range(m.codomain)}"
    else:
        text = "  " + m.name
    if m.computed_definition is not None:
        text += f" = {m.computed_definition}"
    if m.total:
        text += ", total"
    return text


# --- structured document ---
#
# Both documents are written as json.dumps writes them with a two-space indent,
# one f-string per record at the depth it sits at. Every field's type is known,
# so no value takes json's per-value dispatch or its pure-Python indenting encoder.

_BOOL = {False: "false", True: "true"}


def _nullable(value: str | None) -> str:
    return "null" if value is None else _q(value)


def _array(items: Iterable[str], pad: str, brackets: str = "[]") -> str:
    """Written JSON *items* in a block whose first line is indented by *pad*."""
    body = f",\n{pad}  ".join(items)
    return f"{brackets[0]}\n{pad}  {body}\n{pad}{brackets[1]}" if body else brackets


def _object(pairs: Iterable[tuple[str, Any]], pad: str, write: Callable[[Any], str] = _q) -> str:
    return _array((f"{_q(k)}: {write(v)}" for k, v in pairs), pad, "{}")


def encode_report(report: TranslationReport) -> str:
    """*report*'s JSON text, as ``--report`` writes it and emit_structured embeds it."""
    t = report.tallies
    steps = [f'{{\n      "kind": {_q(s.kind)},\n      "source": {_q(s.source)},'
             f'\n      "produced": {_q(s.produced)}\n    }}' for s in report.steps]
    diagnostics = [
        f'{{\n      "severity": {_q(d.severity)},\n      "code": {_q(d.code)},'
        f'\n      "message": {_q(d.message)},\n      "element": {_q(d.element)}\n    }}'
        for d in report.diagnostics]
    pending = [
        f'{{\n      "subject": {_q(p.question.subject)},\n      "kind": {_q(p.question.kind)},'
        f'\n      "prompt": {_q(p.question.prompt)},\n      "answer": {_nullable(p.answer)},'
        f'\n      "origin": {_q(p.origin)}\n    }}' for p in report.pending_questions]
    implicit_keys = [
        f'{{\n      "set": {_q(k.set_name)},\n      "label": {_q(k.label)},'
        f'\n      "mappings": {_array(map(_q, k.mappings), "      ")},'
        f'\n      "origin": {_q(k.origin)}\n    }}' for k in report.implicit_keys]
    actions = [
        f'{{\n      "rule": {_q(a.rule)},\n      "target": {_q(a.target)},'
        f'\n      "description": {_q(a.description)},\n      "resulting_labels": '
        f'{_array(map(_q, a.resulting_labels), "      ")}\n    }}'
        for a in report.enrichment_actions]
    return f"""{{
  "conventions": {_array(map(_q, report.conventions), "  ")},
  "tallies": {"null" if t is None else _object(t.as_dict().items(), "  ", repr)},
  "steps": {_array(steps, "  ")},
  "diagnostics": {_array(diagnostics, "  ")},
  "pending_questions": {_array(pending, "  ")},
  "implicit_keys": {_array(implicit_keys, "  ")},
  "enrichment_actions": {_array(actions, "  ")}
}}"""


def emit_structured(scheme: EMDMScheme, report_text: str | None = None) -> str:
    """Serialize *scheme*, and the report that encode_report gave, to versioned JSON."""
    # The report goes last, one level deeper: each of its lines after the
    # first gains two spaces, as json indents it at that depth. A JSON
    # string holds no raw newline, so no value changes.
    report = "null" if report_text is None else report_text.replace("\n", "\n  ")
    return f"""{{
  "version": {STRUCTURED_VERSION},
  "sets": {_array(map(_set, scheme.sets), "  ")},
  "constraints": {_array(map(_constraint, scheme.constraints), "  ")},
  "provenance": {_object(scheme.provenance.items(), "  ")},
  "report": {report}
}}
"""


def _set(s: EMDMSet) -> str:
    ident = "null" if s.object_identifier is None else _mapping(s.object_identifier, "      ")
    mappings = _array([_mapping(m, "        ") for m in s.mappings], "      ")
    keys = _array([f'{{\n          "label": {_q(k.label)},\n          "mappings": '
                   f'{_array(map(_q, k.mappings), "          ")},\n          "implicit": '
                   f'{_BOOL[k.implicit]}\n        }}' for k in s.keys], "      ")
    roles = _array([_array(map(_q, pair), "        ") for pair in s.role_signature], "      ")
    return (f'{{\n      "name": {_q(s.name)},\n      "kind": {_q(s.kind)},'
            f'\n      "object_identifier": {ident},\n      "mappings": {mappings},'
            f'\n      "keys": {keys},\n      "role_signature": {roles},'
            f'\n      "computed_definition": {_nullable(s.computed_definition)}\n    }}')


def _mapping(m: Mapping, pad: str) -> str:
    sep = f",\n{pad}  "
    return (f'{{\n{pad}  "name": {_q(m.name)}{sep}"source": {_q(m.source)}'
            f'{sep}"codomain": {_codomain(m.codomain, pad + "  ")}{sep}"flavor": {_q(m.flavor)}'
            f'{sep}"total": {_BOOL[m.total]}{sep}"one_to_one": {_BOOL[m.one_to_one]}'
            f'{sep}"computed_definition": {_nullable(m.computed_definition)}'
            f'{sep}"source_labels": {_object(m.source_labels.items(), pad + "  ")}\n{pad}}}')


def _codomain(r: Range | Bound | str | None, pad: str) -> str:
    """A codomain, or a bound of an interval, tagged with its kind."""
    if r is None:
        return "null"
    if isinstance(r, Interval):
        inner = pad + "  "
        return (f'{{\n{inner}"kind": "interval",\n{inner}"lo": {_codomain(r.lo, inner)},'
                f'\n{inner}"hi": {_codomain(r.hi, inner)}\n{pad}}}')
    if isinstance(r, str):
        kind, field, value = "set", "name", _q(r)
    elif isinstance(r, AsciiRange):
        kind, field, value = "ascii", "length", repr(r.length)
    elif isinstance(r, NatRange):
        kind, field, value = "nat", "digits", repr(r.digits)
    elif isinstance(r, IntBound):
        kind, field, value = "int", "value", repr(r.value)
    elif isinstance(r, Pow10Bound):
        kind, field, value = "pow10", "exponent", repr(r.exponent)
    elif isinstance(r, DateBound):
        kind, field, value = "date", "text", _q(r.text)
    elif isinstance(r, FuncBound):
        kind, field, value = "func", "text", _q(r.text)
    else:
        raise TypeError(f"not a codomain or bound: {r!r}")
    return f'{{\n{pad}  "kind": "{kind}",\n{pad}  "{field}": {value}\n{pad}}}'


def _constraint(c: Constraint) -> str:
    if isinstance(c, InclusionConstraint):
        fields = (f'"kind": "inclusion",\n      "label": {_nullable(c.label)},'
                  f'\n      "subset": {_q(c.subset)},\n      "superset": {_q(c.superset)}')
    elif isinstance(c, TupleConstraint):
        fields = (f'"kind": "tuple",\n      "label": {_q(c.label)},\n      "set": '
                  f'{_q(c.set_name)},\n      "formula": {_q(format_formula(c.formula))}')
    elif isinstance(c, NonrelationalConstraint):
        formula = None if c.formula is None else format_formula(c.formula)
        fields = (f'"kind": "nonrelational",\n      "label": {_q(c.label)},\n      "formula": '
                  f'{_nullable(formula)},\n      "informal": {_nullable(c.informal)}')
    else:
        raise TypeError(f"not a constraint: {c!r}")
    return f"{{\n      {fields}\n    }}"


def load_structured(text: str) -> EMDMScheme:
    """Parse a structured document; unknown top-level fields are ignored."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuredFormatError(
            f"not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise StructuredFormatError("document must be an object")
    version = doc.get("version")
    if version != STRUCTURED_VERSION:
        raise StructuredFormatError(
            f"unknown version {version!r}; this reader understands {STRUCTURED_VERSION}",
            "$.version",
        )
    scheme = EMDMScheme()
    for i, raw in enumerate(_expect_list(doc, "sets")):
        scheme.add_set(_set_from_json(raw, f"$.sets[{i}]"))
    for i, raw in enumerate(_expect_list(doc, "constraints")):
        scheme.constraints.append(_constraint_from_json(raw, f"$.constraints[{i}]"))
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise StructuredFormatError("must be an object", "$.provenance")
    for ref, source in provenance.items():
        if not isinstance(source, str):
            raise StructuredFormatError("must be a string", f"$.provenance[{json.dumps(ref)}]")
        scheme.record(ref, source)
    return scheme


def _expect_list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise StructuredFormatError("must be an array", f"$.{key}")
    return value


def _text(raw: dict, key: str, path: str) -> str | None:
    """The text field *key* of *raw*: a string, or null when absent."""
    value = raw.get(key)
    if value is not None and not isinstance(value, str):
        raise StructuredFormatError(f"{key} must be a string or null", f"{path}.{key}")
    return value


_JSON_TYPE = {bool: "true or false", int: "an integer", str: "a string"}


def _typed(raw: dict, key: str, kind: type, path: str) -> Any:
    """The field *key* of *raw*, which must be of *kind*: bool, int or str.

    An absent flag is false, and JSON's true and false are not ints.
    """
    value = raw.get(key, False) if kind is bool else raw[key]
    if type(value) is not kind:
        raise StructuredFormatError(f"{key} must be {_JSON_TYPE[kind]}", f"{path}.{key}")
    return value


def _is_strings(value: Any, size: int | None = None) -> bool:
    """Whether *value* is an array of strings, of *size* items when given."""
    return (isinstance(value, list) and (size is None or len(value) == size)
            and all(isinstance(item, str) for item in value))


def _range_from_json(raw: Any, path: str) -> Range | str | None:
    if raw is None:
        return None
    if not isinstance(raw, dict) or "kind" not in raw:
        raise StructuredFormatError("codomain must be an object with a kind", path)
    kind = raw["kind"]
    try:
        if kind == "set":
            return _typed(raw, "name", str, path)
        if kind == "interval":
            return Interval(
                _bound_from_json(raw["lo"], f"{path}.lo"), _bound_from_json(raw["hi"], f"{path}.hi")
            )
        if kind == "ascii":
            return AsciiRange(_typed(raw, "length", int, path))
        if kind == "nat":
            return NatRange(_typed(raw, "digits", int, path))
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuredFormatError(f"malformed {kind} codomain: {exc}", path) from exc
    raise StructuredFormatError(f"unknown codomain kind {kind!r}", path)


def _bound_from_json(raw: Any, path: str) -> Bound:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise StructuredFormatError("bound must be an object with a kind", path)
    kind = raw["kind"]
    if kind == "int":
        return IntBound(_typed(raw, "value", int, path))
    if kind == "pow10":
        return Pow10Bound(_typed(raw, "exponent", int, path))
    if kind == "date":
        return DateBound(_typed(raw, "text", str, path))
    if kind == "func":
        return FuncBound(_typed(raw, "text", str, path))
    raise StructuredFormatError(f"unknown bound kind {kind!r}", path)


def _mapping_from_json(raw: Any, path: str) -> Mapping:
    if not isinstance(raw, dict):
        raise StructuredFormatError("mapping must be an object", path)
    labels = raw.get("source_labels", {})
    if not isinstance(labels, dict) or not all(isinstance(v, str) for v in labels.values()):
        raise StructuredFormatError("source_labels must be an object of strings",
                                    f"{path}.source_labels")
    try:
        return Mapping(
            name=_typed(raw, "name", str, path),
            source=_typed(raw, "source", str, path),
            codomain=_range_from_json(raw.get("codomain"), f"{path}.codomain"),
            flavor=_typed(raw, "flavor", str, path),
            total=_typed(raw, "total", bool, path),
            one_to_one=_typed(raw, "one_to_one", bool, path),
            computed_definition=_text(raw, "computed_definition", path),
            source_labels=dict(labels),
        )
    except KeyError as exc:
        raise StructuredFormatError(f"missing field {exc}", path) from exc


def _set_from_json(raw: Any, path: str) -> EMDMSet:
    if not isinstance(raw, dict):
        raise StructuredFormatError("set must be an object", path)
    try:
        ident = raw.get("object_identifier")
        keys = []
        for i, k in enumerate(raw.get("keys", [])):
            key_path = f"{path}.keys[{i}]"
            if not _is_strings(k["mappings"]):
                raise StructuredFormatError("mappings must be an array of strings",
                                            f"{key_path}.mappings")
            keys.append(Key(
                label=_typed(k, "label", str, key_path),
                mappings=tuple(k["mappings"]),
                implicit=_typed(k, "implicit", bool, key_path),
            ))
        signature = raw.get("role_signature", [])
        if not isinstance(signature, list) or not all(_is_strings(p, 2) for p in signature):
            raise StructuredFormatError("role_signature must be an array of string pairs",
                                        f"{path}.role_signature")
        return EMDMSet(
            name=_typed(raw, "name", str, path),
            kind=_typed(raw, "kind", str, path),
            object_identifier=(
                _mapping_from_json(ident, f"{path}.object_identifier") if ident else None
            ),
            mappings=[
                _mapping_from_json(m, f"{path}.mappings[{i}]")
                for i, m in enumerate(raw.get("mappings", []))
            ],
            keys=keys,
            role_signature=tuple((a, b) for a, b in signature),
            computed_definition=_text(raw, "computed_definition", path),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuredFormatError(f"malformed set: {exc}", path) from exc


def _constraint_from_json(raw: Any, path: str):
    if not isinstance(raw, dict) or "kind" not in raw:
        raise StructuredFormatError("constraint must be an object with a kind", path)
    kind = raw["kind"]
    try:
        if kind == "inclusion":
            return InclusionConstraint(
                subset=_typed(raw, "subset", str, path),
                superset=_typed(raw, "superset", str, path),
                label=_text(raw, "label", path),
            )
        if kind == "tuple":
            return TupleConstraint(
                label=_typed(raw, "label", str, path), set_name=_typed(raw, "set", str, path),
                formula=parse_formula(_typed(raw, "formula", str, path)),
            )
        if kind == "nonrelational":
            formula = _text(raw, "formula", path)
            return NonrelationalConstraint(
                label=_typed(raw, "label", str, path),
                formula=parse_formula(formula) if formula is not None else None,
                informal=_text(raw, "informal", path),
            )
    except (KeyError, TypeError, ValueError, ParseFailure) as exc:
        raise StructuredFormatError(f"malformed {kind} constraint: {exc}", path) from exc
    raise StructuredFormatError(f"unknown constraint kind {kind!r}", path)
