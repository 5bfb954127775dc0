"""Seeded random generator of valid models for fuzzing the translation properties."""

from __future__ import annotations

import random

from .formula import Apply, Binary, Compare, Forall, Formula, Literal, Var
from .model import (
    AsciiRange,
    Attribute,
    CardinalityBody,
    CompulsoryBody,
    Diagram,
    ERModel,
    IntBound,
    Interval,
    ObjectSet,
    OtherBody,
    RangeBody,
    Restriction,
    RestrictionBody,
    Role,
    StructuralFunction,
    UniquenessBody,
)


def _attributes(count: int) -> tuple[Attribute, ...]:
    return tuple(Attribute(f"a{j + 1}") for j in range(count))


def _restrict(restrictions: list[Restriction], target: str, body: RestrictionBody) -> None:
    """Append a restriction on *target* under the next label: R01, R02, ..."""
    restrictions.append(Restriction(f"R{len(restrictions) + 1:02d}", target, body))


def random_model(
    seed: int,
    *,
    max_entities: int = 6,
    max_relationships: int = 3,
    max_computed: int = 1,
    max_attributes: int = 4,
    max_restrictions: int = 20,
) -> ERModel:
    """A random valid model; identical seeds yield identical models."""
    rng = random.Random(seed)
    n_entities = rng.randint(1, max(1, max_entities))
    entity_names = [f"SET{i + 1}" for i in range(n_entities)]
    entity_attributes = [_attributes(rng.randint(0, max_attributes)) for _ in entity_names]
    # occasional entity-to-entity inclusions, kept acyclic by indexing down
    entity_supersets = [()] + [
        (entity_names[rng.randrange(i)],) if rng.random() < 0.15 else ()
        for i in range(1, n_entities)
    ]

    computed = [
        ObjectSet(name=f"VIEW{i + 1}", kind="computed",
                  computed_definition=f"selection over SET{rng.randint(1, n_entities)}")
        for i in range(rng.randint(0, max_computed))
    ]

    relationships: list[ObjectSet] = []
    available = list(entity_names)
    for i in range(rng.randint(0, max_relationships)):
        n_roles = rng.randint(2, min(3, max(2, len(available))))
        targets = [rng.choice(available) for _ in range(n_roles)]
        roles = tuple(
            Role(f"r{j + 1}", target, n_roles == 2 and rng.random() < 0.15)
            for j, target in enumerate(targets)
        )
        attributes = _attributes(rng.randint(0, 2))
        if any(role.declared_unique for role in roles) and rng.random() < 0.5:
            attributes = ()  # attribute-free so the collapse rule can fire
        name = f"LINK{i + 1}"
        relationships.append(
            ObjectSet(name=name, kind="relationship", attributes=attributes, roles=roles)
        )
        available.append(name)

    # structural functions from entities into any other set
    all_names = entity_names + [s.name for s in computed + relationships]
    entities = [
        ObjectSet(
            name=name, kind="entity", attributes=attributes,
            structural_functions=tuple(
                StructuralFunction(f"f{j + 1}", rng.choice(all_names))
                for j in range(rng.randint(0, 2))
            ),
            included_in=supersets,
        )
        for name, attributes, supersets in zip(entity_names, entity_attributes, entity_supersets)
    ]

    sets = entities + computed + relationships
    rng.shuffle(sets)

    restrictions: list[Restriction] = []

    def room_for_more() -> bool:
        return len(restrictions) < max_restrictions

    for s in sets:
        if s.kind == "computed":
            continue
        if rng.random() < 0.8 and room_for_more():
            _restrict(restrictions, s.name, CardinalityBody(10 ** rng.randint(1, 6), None))
        for a in s.attributes:
            if rng.random() < 0.6 and room_for_more():
                lo = rng.randint(0, 50)
                body = (
                    RangeBody(a.name, Interval(IntBound(lo), IntBound(lo + rng.randint(0, 100))))
                    if rng.random() < 0.7
                    else RangeBody(a.name, AsciiRange(rng.choice((32, 64, 255))))
                )
                _restrict(restrictions, s.name, body)
        members = [m.name for m in s.members]
        if members and rng.random() < 0.7 and room_for_more():
            count = rng.randint(1, len(members))
            _restrict(restrictions, s.name, CompulsoryBody(tuple(rng.sample(members, count))))
        if members and rng.random() < 0.6 and room_for_more():
            count = rng.randint(1, min(3, len(members)))
            _restrict(restrictions, s.name, UniquenessBody(tuple(rng.sample(members, count))))

    # tuple checks over interval-ranged attributes
    interval_attrs: dict[str, list[str]] = {}
    for r in restrictions:
        if isinstance(r.body, RangeBody) and isinstance(r.body.range, Interval):
            interval_attrs.setdefault(r.target, []).append(r.body.attribute)
    for set_name, attrs in interval_attrs.items():
        if rng.random() < 0.4 and room_for_more():
            attr = rng.choice(attrs)
            formula: Formula = Forall(
                "x", set_name,
                Compare(">=", Apply(attr, Var("x")), Literal(0)),
            )
            _restrict(restrictions, set_name, OtherBody(None, formula))

    # cross-set and functional-dependency style nonrelational rules
    ranged_sets = [name for name, attrs in interval_attrs.items() if attrs]
    if len(ranged_sets) >= 2 and rng.random() < 0.5 and room_for_more():
        a_set, b_set = rng.sample(ranged_sets, 2)
        formula = Forall("x", a_set, Forall(
            "y", b_set,
            Compare("<>",
                    Apply(rng.choice(interval_attrs[a_set]), Var("x")),
                    Apply(rng.choice(interval_attrs[b_set]), Var("y"))),
        ))
        _restrict(restrictions, a_set, OtherBody("generated cross-set exclusion", formula))
    for set_name, attrs in interval_attrs.items():
        if len(attrs) >= 2 and rng.random() < 0.3 and room_for_more():
            p, q = rng.sample(attrs, 2)
            formula = Forall("x", set_name, Forall(
                "y", set_name,
                Binary("=>",
                       Compare("=", Apply(p, Var("x")), Apply(p, Var("y"))),
                       Compare("=", Apply(q, Var("x")), Apply(q, Var("y")))),
            ))
            _restrict(restrictions, set_name, OtherBody("generated functional dependency", formula))
    if rng.random() < 0.2 and room_for_more():
        target = rng.choice([s.name for s in sets if s.kind != "computed"])
        _restrict(restrictions, target, OtherBody("generated rule awaiting formalization", None))

    return ERModel(diagrams=(Diagram("generated", tuple(sets)),),
                   restrictions=tuple(restrictions))


def sized_model(seed: int, element_target: int) -> ERModel:
    """A valid model whose census total is close to *element_target*."""
    rng = random.Random(seed)
    sets: list[ObjectSet] = []
    restrictions: list[Restriction] = []
    elements = 0
    i = 0
    while elements < element_target:
        i += 1
        name = f"BULK{i}"
        n_attrs = rng.randint(1, 4)
        attributes = _attributes(n_attrs)
        sets.append(ObjectSet(name=name, kind="entity", attributes=attributes))
        elements += 1 + n_attrs
        if rng.random() < 0.7 and elements < element_target:
            _restrict(restrictions, name, CardinalityBody(10 ** rng.randint(1, 6), None))
            # cardinalities add no elements; attach a compulsory line instead
        if elements + n_attrs <= element_target and rng.random() < 0.8:
            _restrict(restrictions, name, CompulsoryBody(tuple(a.name for a in attributes)))
            elements += n_attrs
        if elements < element_target and rng.random() < 0.5:
            _restrict(restrictions, name, UniquenessBody((attributes[0].name,)))
            elements += 1
    return ERModel(diagrams=(Diagram("bulk", tuple(sets)),),
                   restrictions=tuple(restrictions))
