"""Domain types for Entity-Relationship data models and their restriction set.

A model is a triple of diagrams, an ordered restriction list, and an
optional informal description. All types are immutable values after
construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .diagnostics import ERROR, WARNING, Diagnostic
from .formula import Formula, quantifier_count, quantifier_domains

ENTITY = "entity"
RELATIONSHIP = "relationship"
COMPUTED = "computed"

# Name reserved for the synthesized object identifier of every scheme set.
OBJECT_IDENTIFIER = "x"


# --- value ranges ---


@dataclass(frozen=True)
class IntBound:
    value: int


@dataclass(frozen=True)
class Pow10Bound:
    """A power-of-ten literal, kept in its surface form (``10^4``)."""

    exponent: int

    @property
    def value(self) -> int:
        return 10 ** self.exponent


@dataclass(frozen=True)
class DateBound:
    """A day/month/year literal, kept verbatim."""

    text: str

    @property
    def ordinal(self) -> tuple[int, int, int]:
        d, m, y = (int(p) for p in self.text.split("/"))
        return (y, m, d)


@dataclass(frozen=True)
class FuncBound:
    """An opaque function token such as a system-date call; never evaluated."""

    text: str


Bound = Union[IntBound, Pow10Bound, DateBound, FuncBound]


@dataclass(frozen=True)
class Interval:
    lo: Bound
    hi: Bound


@dataclass(frozen=True)
class AsciiRange:
    length: int


@dataclass(frozen=True)
class NatRange:
    digits: int


Range = Union[Interval, AsciiRange, NatRange]


# --- diagram members ---


@dataclass(frozen=True)
class Attribute:
    name: str
    range: Range | None = None
    computed_definition: str | None = None

    @property
    def is_computed(self) -> bool:
        return self.computed_definition is not None


@dataclass(frozen=True)
class Role:
    """A canonical Cartesian projection from a relationship set to a participant."""

    name: str
    target: str
    declared_unique: bool = False


@dataclass(frozen=True)
class StructuralFunction:
    """A functional arrow between object sets that is not an inclusion."""

    name: str
    target: str
    computed_definition: str | None = None

    @property
    def is_computed(self) -> bool:
        return self.computed_definition is not None


@dataclass(frozen=True)
class ObjectSet:
    name: str
    kind: str  # entity | relationship | computed
    attributes: tuple[Attribute, ...] = ()
    roles: tuple[Role, ...] = ()
    structural_functions: tuple[StructuralFunction, ...] = ()
    included_in: tuple[str, ...] = ()
    max_cardinality: int | None = None
    cardinality_pow10: int | None = None  # surface form of an inline cardinality
    computed_definition: str | None = None

    def member_names(self) -> list[str]:
        return (
            [a.name for a in self.attributes]
            + [r.name for r in self.roles]
            + [f.name for f in self.structural_functions]
        )

    def member(self, name: str) -> Attribute | Role | StructuralFunction | None:
        for group in (self.attributes, self.roles, self.structural_functions):
            for m in group:
                if m.name == name:
                    return m
        return None


@dataclass(frozen=True)
class Diagram:
    name: str
    sets: tuple[ObjectSet, ...] = ()


# --- restrictions ---


@dataclass(frozen=True)
class InclusionBody:
    subset: str
    superset: str


@dataclass(frozen=True)
class RangeBody:
    attribute: str  # bare name, resolved against the restriction target
    range: Range


@dataclass(frozen=True)
class CardinalityBody:
    maximum: int
    pow10: int | None = None  # surface form when written as 10^n


@dataclass(frozen=True)
class CompulsoryBody:
    mappings: tuple[str, ...]


@dataclass(frozen=True)
class UniquenessBody:
    mappings: tuple[str, ...]

    @property
    def is_singleton(self) -> bool:
        return len(self.mappings) == 1


@dataclass(frozen=True)
class OtherBody:
    informal: str | None = None
    formal: Formula | None = None


RestrictionBody = Union[
    InclusionBody, RangeBody, CardinalityBody, CompulsoryBody, UniquenessBody, OtherBody
]

INCLUSION = "inclusion"
RANGE = "range"
COMPULSORY = "compulsory"
UNIQUENESS = "uniqueness"
OTHER = "other"


@dataclass(frozen=True)
class Restriction:
    label: str
    target: str
    body: RestrictionBody


def classify_restriction(r: Restriction) -> str:
    """One of the five restriction classes.

    Cardinality bounds classify as ranges: they bound the set's extension
    the way an attribute range bounds a value set.
    """
    if isinstance(r.body, InclusionBody):
        return INCLUSION
    if isinstance(r.body, (RangeBody, CardinalityBody)):
        return RANGE
    if isinstance(r.body, CompulsoryBody):
        return COMPULSORY
    if isinstance(r.body, UniquenessBody):
        return UNIQUENESS
    if isinstance(r.body, OtherBody):
        return OTHER
    raise TypeError(f"unknown restriction body: {r.body!r}")


# --- the model ---


@dataclass(frozen=True)
class ERModel:
    diagrams: tuple[Diagram, ...] = ()
    restrictions: tuple[Restriction, ...] = ()
    description: str | None = None

    def object_sets(self) -> list[ObjectSet]:
        return [s for d in self.diagrams for s in d.sets]

    def set(self, name: str) -> ObjectSet | None:
        for d in self.diagrams:
            for s in d.sets:
                if s.name == name:
                    return s
        return None

    def restrictions_on(self, set_name: str) -> list[Restriction]:
        return [r for r in self.restrictions if r.target == set_name]


# --- derived views shared by the translator and its callers ---


def effective_cardinality(model: ERModel, s: ObjectSet) -> tuple[int | None, str | None]:
    """Maximum cardinality of *s* and the source reference that supplied it."""
    for r in model.restrictions:
        if r.target == s.name and isinstance(r.body, CardinalityBody):
            return r.body.maximum, src_restriction(r.label)
    if s.max_cardinality is not None:
        return s.max_cardinality, src_set(s.name)
    return None, None


def effective_range(model: ERModel, s: ObjectSet, attr: Attribute) -> tuple[Range | None, str | None]:
    """Value range of an attribute and the source reference that supplied it."""
    for r in model.restrictions:
        if (
            r.target == s.name
            and isinstance(r.body, RangeBody)
            and r.body.attribute == attr.name
        ):
            return r.body.range, src_restriction(r.label)
    if attr.range is not None:
        return attr.range, src_attribute(s.name, attr.name)
    return None, None


def effective_inclusions(model: ERModel, s: ObjectSet) -> list[tuple[str, str, str | None]]:
    """(superset, source reference, label) triples declared for *s*."""
    out = [(sup, src_inclusion(s.name, sup), None) for sup in s.included_in]
    for r in model.restrictions:
        if r.target == s.name and isinstance(r.body, InclusionBody):
            out.append((r.body.superset, src_restriction(r.label), r.label))
    return out


# --- source references (model-side element addresses) ---


def src_set(name: str) -> str:
    return f"set:{name}"


def src_attribute(set_name: str, attr: str) -> str:
    return f"attribute:{set_name}.{attr}"


def src_role(set_name: str, role: str) -> str:
    return f"role:{set_name}.{role}"


def src_function(set_name: str, fn: str) -> str:
    return f"function:{set_name}.{fn}"


def src_inclusion(subset: str, superset: str) -> str:
    return f"inclusion:{subset}<={superset}"


def src_restriction(label: str, member: str | None = None) -> str:
    return f"restriction:{label}[{member}]" if member else f"restriction:{label}"


def source_universe(model: ERModel) -> set[str]:
    """Source references of every model element that must appear in provenance."""
    refs: set[str] = set()
    for s in model.object_sets():
        refs.add(src_set(s.name))
        refs.update(src_attribute(s.name, a.name) for a in s.attributes)
        refs.update(src_role(s.name, r.name) for r in s.roles)
        refs.update(src_function(s.name, f.name) for f in s.structural_functions)
        refs.update(src_inclusion(s.name, sup) for sup in s.included_in)
    refs.update(src_restriction(r.label) for r in model.restrictions)
    return refs


# --- validation ---


def validate_model(model: ERModel) -> list[Diagnostic]:
    """Structural validation; idempotent and side-effect free.

    The model is translatable iff no returned entry has error severity.
    One-role relationships are tolerated with a warning.
    """
    errors: list[Diagnostic] = []
    sets_by_name: dict[str, ObjectSet] = {}

    def err(code: str, element: str, message: str, severity: str = ERROR) -> None:
        errors.append(Diagnostic(severity, code, message, element))

    for d in model.diagrams:
        for s in d.sets:
            if s.name in sets_by_name:
                err("duplicate-set-name", s.name, f"object set {s.name!r} declared twice")
            else:
                sets_by_name[s.name] = s

    def resolves(name: str) -> bool:
        return name in sets_by_name

    for d in model.diagrams:
        for s in d.sets:
            _validate_set(s, resolves, err)

    labels: set[str] = set()
    range_owners: dict[tuple[str, str], list[str]] = {}
    card_owners: dict[str, list[str]] = {}
    inclusion_pairs: dict[tuple[str, str], int] = {}
    key_sets: dict[tuple[str, frozenset[str]], list[str]] = {}

    for s in sets_by_name.values():
        for sup in s.included_in:
            inclusion_pairs[(s.name, sup)] = inclusion_pairs.get((s.name, sup), 0) + 1
        if s.max_cardinality is not None:
            card_owners.setdefault(s.name, []).append("(inline)")
        for a in s.attributes:
            if a.range is not None:
                range_owners.setdefault((s.name, a.name), []).append("(inline)")

    for r in model.restrictions:
        if r.label in labels:
            err("duplicate-label", r.label, f"restriction label {r.label!r} reused")
        labels.add(r.label)
        target = sets_by_name.get(r.target)
        if target is None:
            err("unresolved-set", r.label, f"restriction {r.label} targets unknown set {r.target!r}")
            continue
        if target.kind == COMPUTED and not isinstance(r.body, OtherBody):
            err(
                "restriction-on-computed-set",
                r.label,
                f"restriction {r.label} targets computed set {r.target!r}; "
                "computed sets carry only their definition",
            )
            continue
        _validate_restriction_body(
            r, target, sets_by_name, err,
            range_owners, card_owners, inclusion_pairs, key_sets,
        )

    for (set_name, attr), sources in range_owners.items():
        if len(sources) > 1:
            err(
                "duplicate-range",
                f"{set_name}.{attr}",
                f"range declared more than once for {set_name}.{attr}: {', '.join(sources)}",
            )
    for set_name, sources in card_owners.items():
        if len(sources) > 1:
            err(
                "duplicate-cardinality",
                set_name,
                f"maximum cardinality declared more than once for {set_name}",
            )
    for (sub, sup), count in inclusion_pairs.items():
        if count > 1:
            err("duplicate-inclusion", sub, f"inclusion {sub} in {sup} declared more than once")
    for (set_name, mappings), labels_ in key_sets.items():
        if len(labels_) > 1:
            err(
                "duplicate-key",
                set_name,
                f"identical uniqueness over {sorted(mappings)} declared by {', '.join(labels_)}",
            )
    return errors


def _validate_set(s: ObjectSet, resolves, err) -> None:
    seen: set[str] = set()
    for name in s.member_names():
        if name == OBJECT_IDENTIFIER:
            err(
                "reserved-identifier",
                f"{s.name}.{name}",
                f"{OBJECT_IDENTIFIER!r} is reserved for the object identifier",
            )
        if name in seen:
            err("duplicate-member", f"{s.name}.{name}", f"member {name!r} declared twice on {s.name}")
        seen.add(name)

    if s.kind == RELATIONSHIP:
        if not s.roles:
            err("relationship-without-roles", s.name, f"relationship {s.name} declares no roles")
        elif len(s.roles) == 1:
            err(
                "relationship-single-role",
                s.name,
                f"relationship {s.name} declares a single role",
                severity=WARNING,
            )
    elif s.roles:
        err("roles-on-non-relationship", s.name, f"{s.kind} set {s.name} declares roles")

    if s.kind == COMPUTED:
        if s.attributes or s.roles or s.structural_functions or s.included_in:
            err(
                "computed-set-structure",
                s.name,
                f"computed set {s.name} must not declare members or inclusions",
            )
        if s.max_cardinality is not None:
            err(
                "computed-set-cardinality",
                s.name,
                f"computed set {s.name} cannot carry a cardinality bound",
            )

    for a in s.attributes:
        if a.range is not None and a.computed_definition is not None:
            err(
                "computed-attribute-range",
                f"{s.name}.{a.name}",
                f"attribute {a.name} cannot be both computed and ranged",
            )
        if a.range is not None:
            _validate_range(a.range, f"{s.name}.{a.name}", err)
    for role in s.roles:
        if not resolves(role.target):
            err(
                "unresolved-set",
                f"{s.name}.{role.name}",
                f"role {role.name} targets unknown set {role.target!r}",
            )
    for fn in s.structural_functions:
        if not resolves(fn.target):
            err(
                "unresolved-set",
                f"{s.name}.{fn.name}",
                f"structural function {fn.name} targets unknown set {fn.target!r}",
            )
    for sup in s.included_in:
        if sup == s.name:
            err("self-inclusion", s.name, f"{s.name} cannot be included in itself")
        elif not resolves(sup):
            err("unresolved-set", s.name, f"{s.name} included in unknown set {sup!r}")
    if s.max_cardinality is not None and s.max_cardinality < 1:
        err("bad-cardinality", s.name, "maximum cardinality must be at least 1")


def _validate_range(r: Range, element: str, err) -> None:
    if isinstance(r, AsciiRange) and r.length < 1:
        err("bad-range", element, "ascii length must be at least 1")
    elif isinstance(r, NatRange) and r.digits < 1:
        err("bad-range", element, "nat digits must be at least 1")
    elif isinstance(r, Interval):
        lo, hi = r.lo, r.hi
        if isinstance(lo, (IntBound, Pow10Bound)) and isinstance(hi, (IntBound, Pow10Bound)):
            if lo.value > hi.value:
                err("bad-range", element, f"interval lower bound {lo.value} exceeds upper bound {hi.value}")
        elif isinstance(lo, DateBound) and isinstance(hi, DateBound):
            if lo.ordinal > hi.ordinal:
                err("bad-range", element, "interval lower date exceeds upper date")


def _validate_restriction_body(
    r: Restriction,
    target: ObjectSet,
    sets_by_name: dict[str, ObjectSet],
    err,
    range_owners,
    card_owners,
    inclusion_pairs,
    key_sets,
) -> None:
    body = r.body
    if isinstance(body, InclusionBody):
        if body.subset != r.target:
            err("inclusion-target-mismatch", r.label, f"{r.label} subset differs from its target set")
        if body.superset == body.subset:
            err("self-inclusion", r.label, f"{r.label} includes {body.subset} in itself")
        elif body.superset not in sets_by_name:
            err("unresolved-set", r.label, f"{r.label} names unknown superset {body.superset!r}")
        if target.kind == COMPUTED:
            err("restriction-on-computed-set", r.label, "computed sets cannot be declared subsets")
        pair = (body.subset, body.superset)
        inclusion_pairs[pair] = inclusion_pairs.get(pair, 0) + 1
    elif isinstance(body, RangeBody):
        member = target.member(body.attribute)
        if member is None or not isinstance(member, Attribute):
            err(
                "unknown-mapping",
                r.label,
                f"{r.label} ranges unknown attribute {body.attribute!r} on {target.name}",
            )
        elif member.is_computed:
            err("computed-attribute-range", r.label, f"{r.label} ranges computed attribute {member.name}")
        else:
            range_owners.setdefault((target.name, body.attribute), []).append(r.label)
        _validate_range(body.range, r.label, err)
    elif isinstance(body, CardinalityBody):
        if body.maximum < 1:
            err("bad-cardinality", r.label, "maximum cardinality must be at least 1")
        card_owners.setdefault(target.name, []).append(r.label)
    elif isinstance(body, CompulsoryBody):
        if not body.mappings:
            err("empty-mappings", r.label, f"{r.label} lists no mappings")
        seen: set[str] = set()
        for name in body.mappings:
            if name in seen:
                err("duplicate-member", r.label, f"{r.label} lists {name!r} twice")
            seen.add(name)
            if target.member(name) is None:
                err("unknown-mapping", r.label, f"{r.label} names unknown mapping {name!r} on {target.name}")
    elif isinstance(body, UniquenessBody):
        if not body.mappings:
            err("empty-mappings", r.label, f"{r.label} lists no mappings")
        seen = set()
        for name in body.mappings:
            if name in seen:
                err("duplicate-member", r.label, f"{r.label} lists {name!r} twice")
            seen.add(name)
            if target.member(name) is None:
                err("unknown-mapping", r.label, f"{r.label} names unknown mapping {name!r} on {target.name}")
        if len(body.mappings) >= 1 and not (seen - set(target.member_names())):
            key_sets.setdefault((target.name, frozenset(body.mappings)), []).append(r.label)
    elif isinstance(body, OtherBody):
        if body.informal is None and body.formal is None:
            err("empty-restriction", r.label, f"{r.label} carries neither informal nor formal text")
        if body.formal is not None:
            domains = quantifier_domains(body.formal)
            for dom in domains:
                owner = sets_by_name.get(dom)
                if owner is None:
                    err("unresolved-set", r.label, f"{r.label} quantifies over unknown set {dom!r}")
                elif owner.kind == COMPUTED and quantifier_count(body.formal) == 1:
                    err(
                        "restriction-on-computed-set",
                        r.label,
                        f"{r.label} is a tuple check over computed set {dom!r}",
                    )
            if quantifier_count(body.formal) == 1 and domains and domains[0] != r.target:
                err(
                    "tuple-domain-mismatch",
                    r.label,
                    f"{r.label} quantifies over {domains[0]!r} but targets {r.target!r}",
                )


def validation_errors(model: ERModel) -> list[Diagnostic]:
    """Only the entries that make the model untranslatable."""
    return [e for e in validate_model(model) if e.is_error]
