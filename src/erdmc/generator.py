"""Seeded random generator of valid models for fuzzing the translation properties."""

from __future__ import annotations

import random

from .formula import Apply, Compare, Forall, Formula, Implies, IntLit, Var
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
    Role,
    StructuralFunction,
    UniquenessBody,
    validation_errors,
)


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
    label_counter = [0]

    def next_label() -> str:
        label_counter[0] += 1
        return f"R{label_counter[0]:02d}"

    entities: list[ObjectSet] = []
    n_entities = rng.randint(1, max(1, max_entities))
    for i in range(n_entities):
        attributes = tuple(
            Attribute(f"a{j + 1}") for j in range(rng.randint(0, max_attributes))
        )
        entities.append(ObjectSet(name=f"SET{i + 1}", kind="entity", attributes=attributes))

    # occasional entity-to-entity inclusions, kept acyclic by indexing down
    for i in range(1, len(entities)):
        if rng.random() < 0.15:
            superset = entities[rng.randrange(i)].name
            entities[i] = ObjectSet(
                name=entities[i].name, kind="entity",
                attributes=entities[i].attributes, included_in=(superset,),
            )

    computed: list[ObjectSet] = []
    for i in range(rng.randint(0, max_computed)):
        computed.append(ObjectSet(
            name=f"VIEW{i + 1}", kind="computed",
            computed_definition=f"selection over SET{rng.randint(1, n_entities)}",
        ))

    relationships: list[ObjectSet] = []
    available = [s.name for s in entities]
    for i in range(rng.randint(0, max_relationships)):
        n_roles = rng.randint(2, min(3, max(2, len(available))))
        targets = [rng.choice(available) for _ in range(n_roles)]
        unique_roles = 0
        roles = []
        for j, target in enumerate(targets):
            declared_unique = n_roles == 2 and rng.random() < 0.15
            unique_roles += declared_unique
            roles.append(Role(f"r{j + 1}", target, declared_unique))
        attributes = tuple(
            Attribute(f"a{j + 1}") for j in range(rng.randint(0, 2))
        )
        if unique_roles and rng.random() < 0.5:
            attributes = ()  # attribute-free so the collapse rule can fire
        rel = ObjectSet(
            name=f"LINK{i + 1}", kind="relationship",
            attributes=attributes, roles=tuple(roles),
        )
        relationships.append(rel)
        available.append(rel.name)

    # structural functions from entities into any other set
    all_names = [s.name for s in entities + computed + relationships]
    new_entities = []
    for s in entities:
        functions = []
        for j in range(rng.randint(0, 2)):
            target = rng.choice(all_names)
            functions.append(StructuralFunction(f"f{j + 1}", target))
        new_entities.append(
            ObjectSet(
                name=s.name, kind=s.kind, attributes=s.attributes,
                structural_functions=tuple(functions), included_in=s.included_in,
            )
        )
    entities = new_entities

    sets = entities + computed + relationships
    rng.shuffle(sets)
    by_name = {s.name: s for s in sets}

    restrictions: list[Restriction] = []

    def room_for_more() -> bool:
        return len(restrictions) < max_restrictions

    for s in sets:
        if s.kind == "computed":
            continue
        if rng.random() < 0.8 and room_for_more():
            restrictions.append(Restriction(
                next_label(), s.name,
                CardinalityBody(10 ** rng.randint(1, 6), None),
            ))
        for a in s.attributes:
            if rng.random() < 0.6 and room_for_more():
                lo = rng.randint(0, 50)
                body = (
                    RangeBody(a.name, Interval(IntBound(lo), IntBound(lo + rng.randint(0, 100))))
                    if rng.random() < 0.7
                    else RangeBody(a.name, AsciiRange(rng.choice((32, 64, 255))))
                )
                restrictions.append(Restriction(next_label(), s.name, body))
        members = s.member_names()
        if members and rng.random() < 0.7 and room_for_more():
            count = rng.randint(1, len(members))
            restrictions.append(Restriction(
                next_label(), s.name, CompulsoryBody(tuple(rng.sample(members, count))),
            ))
        used_key_sets: set[frozenset[str]] = set()
        if members and rng.random() < 0.6 and room_for_more():
            count = rng.randint(1, min(3, len(members)))
            mappings = tuple(rng.sample(members, count))
            if frozenset(mappings) not in used_key_sets:
                used_key_sets.add(frozenset(mappings))
                restrictions.append(Restriction(
                    next_label(), s.name, UniquenessBody(mappings),
                ))

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
                Compare(">=", Apply(attr, Var("x")), IntLit(0)),
            )
            restrictions.append(Restriction(
                next_label(), set_name, OtherBody(None, formula),
            ))

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
        restrictions.append(Restriction(
            next_label(), a_set, OtherBody("generated cross-set exclusion", formula),
        ))
    for set_name, attrs in interval_attrs.items():
        if len(attrs) >= 2 and rng.random() < 0.3 and room_for_more():
            p, q = rng.sample(attrs, 2)
            formula = Forall("x", set_name, Forall(
                "y", set_name,
                Implies(
                    Compare("=", Apply(p, Var("x")), Apply(p, Var("y"))),
                    Compare("=", Apply(q, Var("x")), Apply(q, Var("y"))),
                ),
            ))
            restrictions.append(Restriction(
                next_label(), set_name,
                OtherBody("generated functional dependency", formula),
            ))
    if rng.random() < 0.2 and room_for_more():
        target = rng.choice([s.name for s in sets if s.kind != "computed"])
        restrictions.append(Restriction(
            next_label(), target,
            OtherBody("generated rule awaiting formalization", None),
        ))

    model = ERModel(diagrams=(Diagram("generated", tuple(sets)),),
                    restrictions=tuple(restrictions))
    problems = validation_errors(model)
    assert not problems, f"generator produced an invalid model: {problems[:3]}"
    return model


def sized_model(seed: int, element_target: int) -> ERModel:
    """A valid model whose census total is close to *element_target*."""
    rng = random.Random(seed)
    sets: list[ObjectSet] = []
    restrictions: list[Restriction] = []
    label = [0]

    def next_label() -> str:
        label[0] += 1
        return f"R{label[0]:02d}"

    elements = 0
    i = 0
    while elements < element_target:
        i += 1
        name = f"BULK{i}"
        n_attrs = rng.randint(1, 4)
        attributes = tuple(Attribute(f"a{j + 1}") for j in range(n_attrs))
        sets.append(ObjectSet(name=name, kind="entity", attributes=attributes))
        elements += 1 + n_attrs
        if rng.random() < 0.7 and elements < element_target:
            restrictions.append(Restriction(
                next_label(), name, CardinalityBody(10 ** rng.randint(1, 6), None),
            ))
            # cardinalities add no elements; attach a compulsory line instead
        if elements + n_attrs <= element_target and rng.random() < 0.8:
            restrictions.append(Restriction(
                next_label(), name,
                CompulsoryBody(tuple(a.name for a in attributes)),
            ))
            elements += n_attrs
        if elements < element_target and rng.random() < 0.5:
            restrictions.append(Restriction(
                next_label(), name, UniquenessBody((attributes[0].name,)),
            ))
            elements += 1
    model = ERModel(diagrams=(Diagram("bulk", tuple(sets)),),
                    restrictions=tuple(restrictions))
    assert not validation_errors(model)
    return model
