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
from typing import Any, Sequence

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


def encode_report(report: Any) -> str:
    """*report*'s JSON text, as ``--report`` writes it and emit_structured embeds it."""
    return json.dumps(report.to_json_dict(), indent=2)


def emit_structured(scheme: EMDMScheme, report_text: str | None = None) -> str:
    """Serialize *scheme*, and the report that encode_report gave, to versioned JSON."""
    doc = {
        "version": STRUCTURED_VERSION,
        "sets": [_set_to_json(s) for s in scheme.sets],
        "constraints": [_constraint_to_json(c) for c in scheme.constraints],
        "provenance": dict(scheme.provenance),
    }
    # The report goes last, in place of the closing "\n}", one level deeper:
    # each of its lines after the first gains two spaces, as indent=2 writes it
    # at that depth. A JSON string holds no raw newline, so no value changes.
    report = "null" if report_text is None else report_text.replace("\n", "\n  ")
    return json.dumps(doc, indent=2)[:-2] + f',\n  "report": {report}\n}}\n'


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
        scheme.record(str(ref), str(source))
    return scheme


def _expect_list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise StructuredFormatError("must be an array", f"$.{key}")
    return value


def _range_to_json(r: Range | str | None) -> Any:
    if r is None:
        return None
    if isinstance(r, str):
        return {"kind": "set", "name": r}
    if isinstance(r, Interval):
        return {"kind": "interval", "lo": _bound_to_json(r.lo), "hi": _bound_to_json(r.hi)}
    if isinstance(r, AsciiRange):
        return {"kind": "ascii", "length": r.length}
    if isinstance(r, NatRange):
        return {"kind": "nat", "digits": r.digits}
    raise TypeError(f"not a codomain: {r!r}")


def _bound_to_json(b: Bound) -> dict:
    if isinstance(b, IntBound):
        return {"kind": "int", "value": b.value}
    if isinstance(b, Pow10Bound):
        return {"kind": "pow10", "exponent": b.exponent}
    if isinstance(b, DateBound):
        return {"kind": "date", "text": b.text}
    if isinstance(b, FuncBound):
        return {"kind": "func", "text": b.text}
    raise TypeError(f"not a bound: {b!r}")


def _range_from_json(raw: Any, path: str) -> Range | str | None:
    if raw is None:
        return None
    if not isinstance(raw, dict) or "kind" not in raw:
        raise StructuredFormatError("codomain must be an object with a kind", path)
    kind = raw["kind"]
    try:
        if kind == "set":
            return str(raw["name"])
        if kind == "interval":
            return Interval(_bound_from_json(raw["lo"], path), _bound_from_json(raw["hi"], path))
        if kind == "ascii":
            return AsciiRange(int(raw["length"]))
        if kind == "nat":
            return NatRange(int(raw["digits"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuredFormatError(f"malformed {kind} codomain: {exc}", path) from exc
    raise StructuredFormatError(f"unknown codomain kind {kind!r}", path)


def _bound_from_json(raw: Any, path: str) -> Bound:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise StructuredFormatError("bound must be an object with a kind", path)
    kind = raw["kind"]
    if kind == "int":
        return IntBound(int(raw["value"]))
    if kind == "pow10":
        return Pow10Bound(int(raw["exponent"]))
    if kind == "date":
        return DateBound(str(raw["text"]))
    if kind == "func":
        return FuncBound(str(raw["text"]))
    raise StructuredFormatError(f"unknown bound kind {kind!r}", path)


def _mapping_to_json(m: Mapping) -> dict:
    return {
        "name": m.name,
        "source": m.source,
        "codomain": _range_to_json(m.codomain),
        "flavor": m.flavor,
        "total": m.total,
        "one_to_one": m.one_to_one,
        "computed_definition": m.computed_definition,
        "source_labels": dict(m.source_labels),
    }


def _mapping_from_json(raw: Any, path: str) -> Mapping:
    if not isinstance(raw, dict):
        raise StructuredFormatError("mapping must be an object", path)
    try:
        return Mapping(
            name=str(raw["name"]),
            source=str(raw["source"]),
            codomain=_range_from_json(raw.get("codomain"), f"{path}.codomain"),
            flavor=str(raw["flavor"]),
            total=bool(raw.get("total", False)),
            one_to_one=bool(raw.get("one_to_one", False)),
            computed_definition=raw.get("computed_definition"),
            source_labels={str(k): str(v) for k, v in raw.get("source_labels", {}).items()},
        )
    except KeyError as exc:
        raise StructuredFormatError(f"missing field {exc}", path) from exc


def _set_to_json(s: EMDMSet) -> dict:
    return {
        "name": s.name,
        "kind": s.kind,
        "object_identifier": (
            _mapping_to_json(s.object_identifier) if s.object_identifier else None
        ),
        "mappings": [_mapping_to_json(m) for m in s.mappings],
        "keys": [
            {"label": k.label, "mappings": list(k.mappings), "implicit": k.implicit}
            for k in s.keys
        ],
        "role_signature": [list(pair) for pair in s.role_signature],
        "computed_definition": s.computed_definition,
    }


def _set_from_json(raw: Any, path: str) -> EMDMSet:
    if not isinstance(raw, dict):
        raise StructuredFormatError("set must be an object", path)
    try:
        ident = raw.get("object_identifier")
        keys = []
        for i, k in enumerate(raw.get("keys", [])):
            keys.append(Key(
                label=str(k["label"]),
                mappings=tuple(str(n) for n in k["mappings"]),
                implicit=bool(k.get("implicit", False)),
            ))
        return EMDMSet(
            name=str(raw["name"]),
            kind=str(raw["kind"]),
            object_identifier=(
                _mapping_from_json(ident, f"{path}.object_identifier") if ident else None
            ),
            mappings=[
                _mapping_from_json(m, f"{path}.mappings[{i}]")
                for i, m in enumerate(raw.get("mappings", []))
            ],
            keys=keys,
            role_signature=tuple(
                (str(a), str(b)) for a, b in raw.get("role_signature", [])
            ),
            computed_definition=raw.get("computed_definition"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuredFormatError(f"malformed set: {exc}", path) from exc


def _constraint_to_json(c) -> dict:
    if isinstance(c, InclusionConstraint):
        return {"kind": "inclusion", "label": c.label, "subset": c.subset,
                "superset": c.superset}
    if isinstance(c, TupleConstraint):
        return {"kind": "tuple", "label": c.label, "set": c.set_name,
                "formula": format_formula(c.formula)}
    if isinstance(c, NonrelationalConstraint):
        return {
            "kind": "nonrelational", "label": c.label,
            "formula": format_formula(c.formula) if c.formula is not None else None,
            "informal": c.informal,
        }
    raise TypeError(f"not a constraint: {c!r}")


def _constraint_from_json(raw: Any, path: str):
    if not isinstance(raw, dict) or "kind" not in raw:
        raise StructuredFormatError("constraint must be an object with a kind", path)
    kind = raw["kind"]
    try:
        if kind == "inclusion":
            return InclusionConstraint(
                subset=str(raw["subset"]), superset=str(raw["superset"]),
                label=raw.get("label"),
            )
        if kind == "tuple":
            return TupleConstraint(
                label=str(raw["label"]), set_name=str(raw["set"]),
                formula=parse_formula(raw["formula"]),
            )
        if kind == "nonrelational":
            formula = raw.get("formula")
            return NonrelationalConstraint(
                label=str(raw["label"]),
                formula=parse_formula(formula) if formula is not None else None,
                informal=raw.get("informal"),
            )
    except (KeyError, TypeError, ValueError, ParseFailure) as exc:
        raise StructuredFormatError(f"malformed {kind} constraint: {exc}", path) from exc
    raise StructuredFormatError(f"unknown constraint kind {kind!r}", path)
