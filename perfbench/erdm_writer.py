"""Render an in-memory ERModel as `.erdm` DSL text.

The benchmark feeds the compiler text, not model objects, so that the
lexer and parser layers do the same work a user's file would cost them.
Every construct the generators emit is covered; the round trip is checked
by the benchmark at set-up and by its tests.
"""

from __future__ import annotations

from erdmc.formula import format_formula
from erdmc.model import (
    AsciiRange,
    Attribute,
    CardinalityBody,
    CompulsoryBody,
    DateBound,
    ERModel,
    FuncBound,
    InclusionBody,
    IntBound,
    Interval,
    NatRange,
    ObjectSet,
    OtherBody,
    Pow10Bound,
    RangeBody,
    Restriction,
    StructuralFunction,
    UniquenessBody,
)


def write_model(model: ERModel) -> str:
    """DSL text that parses back to *model*."""
    lines: list[str] = []
    if model.description is not None:
        lines.append(f"description {_string(model.description)}")
    for d in model.diagrams:
        lines.append(f"diagram {d.name} {{")
        for s in d.sets:
            lines.extend(_set_lines(s))
        lines.append("}")
    lines.extend(_restriction_line(r) for r in model.restrictions)
    return "\n".join(lines) + "\n"


def _string(text: str) -> str:
    escaped = (
        text.replace("\\", "\\\\").replace('"', '\\"')
        .replace("\n", "\\n").replace("\t", "\\t")
    )
    return f'"{escaped}"'


def _cardinality(maximum: int, pow10: int | None) -> str:
    return f"10^{pow10}" if pow10 is not None else str(maximum)


def _bound(b) -> str:
    if isinstance(b, IntBound):
        return str(b.value)
    if isinstance(b, Pow10Bound):
        return f"10^{b.exponent}"
    if isinstance(b, (DateBound, FuncBound)):
        return b.text
    raise TypeError(f"not a bound: {b!r}")


def _range(r) -> str:
    if isinstance(r, Interval):
        return f"[{_bound(r.lo)}, {_bound(r.hi)}]"
    if isinstance(r, AsciiRange):
        return f"ascii({r.length})"
    if isinstance(r, NatRange):
        return f"nat({r.digits})"
    raise TypeError(f"not a range: {r!r}")


def _computed(definition: str | None) -> str:
    return "" if definition is None else f" computed = {_string(definition)}"


def _attribute(a: Attribute) -> str:
    rng = "" if a.range is None else f" : {_range(a.range)}"
    return f"    attr {a.name}{rng}{_computed(a.computed_definition)}"


def _function(f: StructuralFunction) -> str:
    return f"    fn {f.name} -> {f.target}{_computed(f.computed_definition)}"


def _set_lines(s: ObjectSet) -> list[str]:
    header = f"  {s.kind} {s.name}"
    if s.included_in:
        header += " subset_of " + ", ".join(s.included_in)
    if s.max_cardinality is not None:
        header += f" card {_cardinality(s.max_cardinality, s.cardinality_pow10)}"
    if s.computed_definition is not None:
        header += f" = {_string(s.computed_definition)}"
    members = [_attribute(a) for a in s.attributes]
    members += [
        f"    role {r.name} -> {r.target}{' unique' if r.declared_unique else ''}"
        for r in s.roles
    ]
    members += [_function(f) for f in s.structural_functions]
    if not members:
        return [header + " { }"]
    return [header + " {", *members, "  }"]


def _restriction_line(r: Restriction) -> str:
    head = f"restriction {r.label} on {r.target}"
    body = r.body
    if isinstance(body, InclusionBody):
        return f"{head} subset_of {body.superset}"
    if isinstance(body, CardinalityBody):
        return f"{head} card {_cardinality(body.maximum, body.pow10)}"
    if isinstance(body, RangeBody):
        return f"{head} range {body.attribute} {_range(body.range)}"
    if isinstance(body, CompulsoryBody):
        return f"{head} compulsory {', '.join(body.mappings)}"
    if isinstance(body, UniquenessBody):
        return f"{head} unique {', '.join(body.mappings)}"
    if isinstance(body, OtherBody):
        text = f"{head} other"
        if body.informal is not None:
            text += f" informal {_string(body.informal)}"
        if body.formal is not None:
            text += f" formal {format_formula(body.formal)}"
        return text
    raise TypeError(f"unknown restriction body: {body!r}")
