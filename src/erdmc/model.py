"""Domain types for Entity-Relationship data models and their restriction set.

A model is a triple of diagrams, an ordered restriction list, and an
optional informal description. All types are immutable values after
construction and safe to share across threads.
"""

from __future__ import annotations

import re
from collections.abc import Container
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Union

from .diagnostics import WARNING, Diagnostics, record
from .formula import Formula, quantifier_domains
from .lexer import DATE_FORM, MAX_DIGITS, NAME_FORM, is_integer

ENTITY = "entity"
RELATIONSHIP = "relationship"
COMPUTED = "computed"

# Name reserved for the synthesized object identifier of every scheme set.
OBJECT_IDENTIFIER = "x"

# What may follow "#" in the provenance reference of a mapping's flag or
# codomain (scheme.ref_mapping). Names may contain "#", so a member named
# like another member's facet would share that facet's reference.
FACETS = ("codomain", "total", "unique")


def facet_of(name: str, members: Container[str]) -> tuple[str, str] | None:
    """(member, facet) when *name* reads as a facet of one of *members*, else None."""
    owner, _, facet = name.rpartition("#")
    return (owner, facet) if facet in FACETS and owner in members else None


def breaks_line(text: str) -> bool:
    """True iff *text* holds a character that str.splitlines breaks at."""
    return "".join(text.splitlines()) != text


_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def holds_surrogate(text: str) -> bool:
    """True iff *text* holds a surrogate code point, which UTF-8 cannot encode."""
    return _SURROGATE_RE.search(text) is not None


# --- value ranges ---


@record
class IntBound:
    value: int


@record
class Pow10Bound:
    """A power-of-ten literal, kept in its surface form (``10^4``)."""

    exponent: int

    @property
    def value(self) -> int:
        return 10 ** self.exponent


@record
class DateBound:
    """A day/month/year literal, kept verbatim."""

    text: str

    @property
    def ordinal(self) -> tuple[int, int, int]:
        d, m, y = (int(p) for p in self.text.split("/"))
        return (y, m, d)


@record
class FuncBound:
    """An opaque function token such as a system-date call; never evaluated."""

    text: str


Bound = Union[IntBound, Pow10Bound, DateBound, FuncBound]


@record
class Interval:
    lo: Bound
    hi: Bound


@record
class AsciiRange:
    length: int


@record
class NatRange:
    digits: int


Range = Union[Interval, AsciiRange, NatRange]

_INTEGER = ("an integer", is_integer)
# What each bound kind and sized range must hold, as words and a test: what the text reader
# takes. validate_range and load_structured refuse others, which compare or print unlike it.
BOUND_FORMS: dict[type, tuple[str, Callable[[Any], bool]]] = {
    IntBound: _INTEGER,
    AsciiRange: _INTEGER,
    NatRange: _INTEGER,
    Pow10Bound: (f"an integer from 0 to {MAX_DIGITS - 1}",
                 lambda v: type(v) is int and 0 <= v < MAX_DIGITS),
    DateBound: (f"day/month/year of at most {MAX_DIGITS} digits each",
                lambda v: isinstance(v, str) and bool(re.fullmatch(DATE_FORM, v))
                and len(max(v.split("/"), key=len)) <= MAX_DIGITS),
    FuncBound: ("a name followed by ()",
                lambda v: isinstance(v, str) and bool(re.fullmatch(NAME_FORM + r"\(\)", v))),
}


# --- diagram members ---


@record
class Attribute:
    name: str
    range: Range | None = None
    computed_definition: str | None = None

    @property
    def is_computed(self) -> bool:
        return self.computed_definition is not None


@record
class Role:
    """A canonical Cartesian projection from a relationship set to a participant."""

    name: str
    target: str
    declared_unique: bool = False


@record
class StructuralFunction:
    """A functional arrow between object sets that is not an inclusion."""

    name: str
    target: str
    computed_definition: str | None = None

    @property
    def is_computed(self) -> bool:
        return self.computed_definition is not None


@record
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

    @property
    def members(self) -> tuple[Member, ...]:
        return (*self.attributes, *self.roles, *self.structural_functions)


Member = Union[Attribute, Role, StructuralFunction]


@record
class Diagram:
    name: str
    sets: tuple[ObjectSet, ...] = ()


# --- restrictions ---


@record
class InclusionBody:
    subset: str
    superset: str


@record
class RangeBody:
    attribute: str  # bare name, resolved against the restriction target
    range: Range


@record
class CardinalityBody:
    maximum: int
    pow10: int | None = None  # surface form when written as 10^n


@record
class CompulsoryBody:
    mappings: tuple[str, ...]


@record
class UniquenessBody:
    mappings: tuple[str, ...]

    @property
    def is_singleton(self) -> bool:
        return len(self.mappings) == 1


@record
class OtherBody:
    informal: str | None = None
    formal: Formula | None = None


RestrictionBody = Union[
    InclusionBody, RangeBody, CardinalityBody, CompulsoryBody, UniquenessBody, OtherBody
]


@record
class Restriction:
    label: str
    target: str
    body: RestrictionBody


# --- the model ---


@dataclass(frozen=True)  # no slots: the cached_property indexes need a __dict__
class ERModel:
    diagrams: tuple[Diagram, ...] = ()
    restrictions: tuple[Restriction, ...] = ()
    description: str | None = None

    def object_sets(self) -> list[ObjectSet]:
        return [s for d in self.diagrams for s in d.sets]

    def set(self, name: str) -> ObjectSet | None:
        return next((s for s in self.object_sets() if s.name == name), None)

    def restrictions_on(self, set_name: str) -> list[Restriction]:
        return list(self._restrictions_by_target.get(set_name, ()))

    # Indexes built on first use. They are not fields, so they take no part
    # in ==, hash or repr; the model is immutable, so they never go stale.

    @cached_property
    def _restrictions_by_target(self) -> dict[str, list[Restriction]]:
        """Each target set name to its restrictions, in declaration order."""
        index: dict[str, list[Restriction]] = {}
        for r in self.restrictions:
            index.setdefault(r.target, []).append(r)
        return index

    @cached_property
    def _ranges(self) -> dict[str, dict[str, Restriction]]:
        """Each target set name to its attributes' first range restrictions, filled as asked."""
        return {}


# --- derived views shared by the translator and its callers ---


def effective_cardinality(model: ERModel, s: ObjectSet) -> tuple[int | None, str | None]:
    """Maximum cardinality of *s* and the source reference that supplied it."""
    for r in model._restrictions_by_target.get(s.name, ()):
        if isinstance(r.body, CardinalityBody):
            return r.body.maximum, src_restriction(r.label)
    if s.max_cardinality is not None:
        return s.max_cardinality, src_set(s.name)
    return None, None


def effective_range(model: ERModel, s: ObjectSet, attr: Attribute) -> tuple[Range | None, str | None]:
    """Value range of an attribute, and the label of the range restriction that gave it, or None."""
    if (ranges := model._ranges.get(s.name)) is None:  # per set: one map of all measured slower
        ranges = model._ranges[s.name] = {r.body.attribute: r for r in reversed(
            model._restrictions_by_target.get(s.name, ())) if isinstance(r.body, RangeBody)}
    if (r := ranges.get(attr.name)) is not None:
        return r.body.range, r.label
    return attr.range, None


def effective_inclusions(model: ERModel, s: ObjectSet) -> list[tuple[str, str, str | None]]:
    """(superset, source reference, label) triples declared for *s*."""
    out = [(sup, src_inclusion(s.name, sup), None) for sup in s.included_in]
    for r in model._restrictions_by_target.get(s.name, ()):
        if isinstance(r.body, InclusionBody):
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


def restriction_of(source: str) -> str:
    return source.partition("[")[0]  # a member's restriction:L[m] covers restriction:L


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


def validate_model(model: ERModel) -> Diagnostics:
    """Structural validation; idempotent and side-effect free. Set names resolve in the
    map that the walk for duplicate names fills: the model keeps no other.

    translate refuses a model with any entry of error severity, but not only
    those: it resolves each formula on the scheme it builds, and may refuse
    the model there (formula-resolution). One-role relationships only warn.
    """
    errors = Diagnostics()
    err = errors.add

    # Each kind of declaration to its subjects, and each subject to the
    # sources that declared it: inline declarations first, then restrictions.
    declared: dict[str, dict] = {"range": {}, "cardinality": {}, "inclusion": {}, "key": {}}
    sets: dict[str, ObjectSet] = {}  # each name to the first set declared under it
    for s in model.object_sets():
        if s.name in sets:
            err("duplicate-set-name", s.name, f"object set {s.name!r} declared twice")
            continue
        sets[s.name] = s
        for sup in s.included_in:
            declared["inclusion"].setdefault((s.name, sup), []).append("(inline)")
        if s.max_cardinality is not None:
            declared["cardinality"].setdefault(s.name, []).append("(inline)")
        for a in s.attributes:
            if a.range is not None:
                declared["range"].setdefault((s.name, a.name), []).append("(inline)")
    members: dict[str, dict[str, Member]] = {}  # of the first set under each name
    for s in {id(s): s for s in model.object_sets()}.values():  # each set object once
        members.setdefault(s.name, _validate_set(s, sets, err))

    labels: set[str] = set()
    for r in model.restrictions:
        if r.label in labels:
            err("duplicate-label", r.label, f"restriction label {r.label!r} reused")
        labels.add(r.label)
        target = sets.get(r.target)
        if target is None:
            err("unresolved-set", r.label, f"restriction {r.label} targets unknown set {r.target!r}")
        elif target.kind == COMPUTED and not isinstance(r.body, OtherBody):
            err(
                "restriction-on-computed-set",
                r.label,
                f"restriction {r.label} targets computed set {r.target!r}; "
                "computed sets carry only their definition",
            )
        elif claim := _validate_restriction_body(r, members[r.target], sets, err):
            kind, subject = claim
            declared[kind].setdefault(subject, []).append(r.label)

    for kind, subjects in declared.items():
        for subject, sources in subjects.items():
            if len(sources) < 2:
                continue
            if kind == "range":
                element = ".".join(subject)
                err("duplicate-range", element,
                    f"range declared more than once for {element}: {', '.join(sources)}")
            elif kind == "cardinality":
                err("duplicate-cardinality", subject,
                    f"maximum cardinality declared more than once for {subject}")
            elif kind == "inclusion":
                err("duplicate-inclusion", subject[0],
                    f"inclusion {subject[0]} in {subject[1]} declared more than once")
            else:
                err("duplicate-key", subject[0], "identical uniqueness over "
                    f"{sorted(subject[1])} declared by {', '.join(sources)}")
    return errors


def _validate_set(s: ObjectSet, sets: dict[str, ObjectSet], err) -> dict[str, Member]:
    """Check *s*; return each of its member names to the first member under it."""
    members: dict[str, Member] = {}
    for m in s.members:
        if m.name == OBJECT_IDENTIFIER:
            err(
                "reserved-identifier",
                f"{s.name}.{m.name}",
                f"{OBJECT_IDENTIFIER!r} is reserved for the object identifier",
            )
        if m.name in members:
            err("duplicate-member", f"{s.name}.{m.name}", f"member {m.name!r} declared twice on {s.name}")
        members.setdefault(m.name, m)
    for m in s.members:
        if collision := facet_of(m.name, members):
            owner, facet = collision
            err(
                "reference-collision",
                f"{s.name}.{m.name}",
                f"member {m.name} of {s.name} is named like the {facet} facet of member "
                f"{owner}, so their provenance references would collide",
            )

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
    if s.kind != COMPUTED and s.computed_definition is not None:
        err("definition-on-non-computed-set", s.name,
            f"{s.kind} set {s.name} cannot carry a definition; only computed sets do")

    if s.kind == COMPUTED:
        if s.members or s.included_in:
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

    for defined in (s, *s.attributes, *s.structural_functions):
        element = s.name if defined is s else f"{s.name}.{defined.name}"
        validate_definition(defined.computed_definition, element, err)

    for a in s.attributes:
        if a.range is not None and a.computed_definition is not None:
            err(
                "computed-attribute-range",
                f"{s.name}.{a.name}",
                f"attribute {a.name} cannot be both computed and ranged",
            )
        if a.range is not None:
            validate_range(a.range, f"{s.name}.{a.name}", err)
    for what, arrows in (("role", s.roles), ("structural function", s.structural_functions)):
        for m in arrows:
            if m.target not in sets:
                err("unresolved-set", f"{s.name}.{m.name}",
                    f"{what} {m.name} targets unknown set {m.target!r}")
    for sup in s.included_in:
        if sup == s.name:
            err("self-inclusion", s.name, f"{s.name} cannot be included in itself")
        elif sup not in sets:
            err("unresolved-set", s.name, f"{s.name} included in unknown set {sup!r}")
    if s.max_cardinality is not None and s.max_cardinality < 1:
        err("bad-cardinality", s.name, "maximum cardinality must be at least 1")
    return members


def validate_definition(definition: str | None, element: str, err) -> None:
    """Call ``err(code, element, message)`` if *definition* would spoil the text output."""
    if definition is not None and type(definition) is not str:
        err("definition-encoding", element,
            f"computed definition of {element} is {definition!r}, which is no text")
        return
    if definition and breaks_line(definition):
        err("definition-line-break", element,
            f"computed definition of {element} holds a line break, "
            "which would split its line of the text output")
    if definition and holds_surrogate(definition):
        err("definition-encoding", element, f"computed definition of {element} holds a "
            "lone surrogate, which UTF-8 cannot encode for the text output")


def range_form_fault(r: Range) -> str | None:
    """What *r* or a bound of it is not but should be (BOUND_FORMS), or None."""
    interval = isinstance(r, Interval)
    for part in (r.lo, r.hi) if interval else (r,):
        form = BOUND_FORMS.get(type(part))
        if form is None or (type(part) in (AsciiRange, NatRange)) == interval:
            return f"{type(part).__name__} is not a {'bound' if interval else 'range'}"
        # Each bound and size holds one field, the one __match_args__ names.
        if not form[1](getattr(part, part.__match_args__[0])):
            return f"{type(part).__name__} must hold {form[0]}"
    return None


def validate_range(r: Range, element: str, err) -> None:
    """Call ``err("bad-range", element, message)`` if *r* holds no value or an unreadable
    bound or size; it compares nothing that is not of its form."""
    if fault := range_form_fault(r):
        err("bad-range", element, fault)
    elif isinstance(r, AsciiRange) and r.length < 1:
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
    r: Restriction, members: dict[str, Member], sets: dict[str, ObjectSet], err
) -> tuple[str, object] | None:
    """Check the body of *r*, whose target has *members*; return what it declares, if anything."""
    body = r.body
    if isinstance(body, InclusionBody):
        if body.subset != r.target:
            err("inclusion-target-mismatch", r.label, f"{r.label} subset differs from its target set")
        if body.superset == body.subset:
            err("self-inclusion", r.label, f"{r.label} includes {body.subset} in itself")
        elif body.superset not in sets:
            err("unresolved-set", r.label, f"{r.label} names unknown superset {body.superset!r}")
        return "inclusion", (body.subset, body.superset)
    elif isinstance(body, RangeBody):
        member = members.get(body.attribute)
        claim = None
        if not isinstance(member, Attribute):
            err(
                "unknown-mapping",
                r.label,
                f"{r.label} ranges unknown attribute {body.attribute!r} on {r.target}",
            )
        elif member.is_computed:
            err("computed-attribute-range", r.label, f"{r.label} ranges computed attribute {member.name}")
        else:
            claim = "range", (r.target, body.attribute)
        validate_range(body.range, r.label, err)
        return claim
    elif isinstance(body, CardinalityBody):
        if body.maximum < 1:
            err("bad-cardinality", r.label, "maximum cardinality must be at least 1")
        return "cardinality", r.target
    elif isinstance(body, (CompulsoryBody, UniquenessBody)):
        if not body.mappings:
            err("empty-mappings", r.label, f"{r.label} lists no mappings")
        seen: set[str] = set()
        for name in body.mappings:
            if name in seen:
                err("duplicate-member", r.label, f"{r.label} lists {name!r} twice")
            seen.add(name)
            if name not in members:
                err("unknown-mapping", r.label, f"{r.label} names unknown mapping {name!r} on {r.target}")
        if isinstance(body, UniquenessBody) and body.mappings and seen <= members.keys():
            return "key", (r.target, frozenset(body.mappings))
    elif isinstance(body, OtherBody):
        if not body.informal and body.formal is None:
            err("empty-restriction", r.label, f"{r.label} carries neither informal nor formal text")
        if body.formal is not None:
            domains = quantifier_domains(body.formal)
            if not domains:
                err("unquantified-formula", r.label, f"{r.label} quantifies no variable")
            for dom in domains:
                owner = sets.get(dom)
                if owner is None:
                    err("unresolved-set", r.label, f"{r.label} quantifies over unknown set {dom!r}")
                elif owner.kind == COMPUTED and len(domains) == 1:
                    err(
                        "restriction-on-computed-set",
                        r.label,
                        f"{r.label} is a tuple check over computed set {dom!r}",
                    )
            if len(domains) == 1 and domains[0] != r.target:
                err(
                    "tuple-domain-mismatch",
                    r.label,
                    f"{r.label} quantifies over {domains[0]!r} but targets {r.target!r}",
                )
