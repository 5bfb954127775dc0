"""The benchmark's workloads: which models each one compiles, and why.

Every workload is a list of (label, model) pairs made only from the seed.
`erdmc.generator` makes the models; its time is never measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from erdmc.census import census
from erdmc.generator import random_model, sized_model
from erdmc.model import ERModel

# Up to 4k elements: larger models touch more memory than the speed probe,
# and their times drift with the machine's load by more than the bounds allow.
BULK_LADDER = (500, 1000, 2000, 4000)

RELATIONAL_LIMITS = dict(
    max_entities=800, max_relationships=400, max_computed=40,
    max_attributes=6, max_restrictions=6400,
)
# Shapes of the relational draws: (census elements, entity sets,
# relationship sets). The large one matches random_model(3, **RELATIONAL_LIMITS):
# 3.6k census elements and 131 generated structural keys. It is drawn twice,
# which halves the part of the spread between seeds that comes from the
# models; the quarter-size draw gives the scaling exponent. Translate time
# grows faster than linearly, so the census window is tight: a draw 5%
# larger takes about 10% longer.
RELATIONAL_SHAPES = ((905, 61, 62), (3620, 244, 248), (3620, 244, 248))
CENSUS_TOLERANCE = 0.01
ENTITY_TOLERANCE = 0.03
RELATIONSHIP_TOLERANCE = 0.06
SEARCH_LIMIT = 1_000_000

CORPUS_SIZE = 300


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str
    build: Callable[[int], list[tuple[str, ERModel]]]


def bulk(seed: int) -> list[tuple[str, ERModel]]:
    return [(f"sized_model({seed}, {n})", sized_model(seed, n)) for n in BULK_LADDER]


def _within(value: int, target: int, tolerance: float) -> bool:
    return abs(value - target) <= tolerance * target


def relational(seed: int) -> list[tuple[str, ERModel]]:
    """For each shape, the first candidate seed whose draw has that shape."""
    models = []
    candidate = seed * SEARCH_LIMIT
    for elements, entities, relationships in RELATIONAL_SHAPES:
        for _ in range(SEARCH_LIMIT):
            candidate += 1
            # random_model draws its entity count first; peeking at that draw
            # skips most candidates without generating them.
            first_draw = random.Random(candidate).randint(1, RELATIONAL_LIMITS["max_entities"])
            if not _within(first_draw, entities, ENTITY_TOLERANCE):
                continue
            model = random_model(candidate, **RELATIONAL_LIMITS)
            tallies = census(model)
            if (_within(tallies.total, elements, CENSUS_TOLERANCE)
                    and _within(tallies.entity_sets, entities, ENTITY_TOLERANCE)
                    and _within(tallies.relationship_sets, relationships,
                                RELATIONSHIP_TOLERANCE)):
                models.append((f"random_model({candidate}, **RELATIONAL_LIMITS)", model))
                break
        else:
            raise RuntimeError(f"no relational draw near {elements} census elements")
    return models


def corpus(seed: int) -> list[tuple[str, ERModel]]:
    base = seed * CORPUS_SIZE
    return [(f"random_model({base + i})", random_model(base + i)) for i in range(CORPUS_SIZE)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "bulk",
            "entity-only size ladder: per-element model lookups, input defaults and "
            "rule deep copies dominate; no relationships, so labels and formulas are bypassed",
            "sized_model(seed, n) for n in 500, 1000, 2000, 4000",
            bulk,
        ),
        Workload(
            "relational",
            "relationship-heavy random models (0.9k and twice 3.6k elements): next_label "
            "rescans dominate, model lookups are minor; exercises formulas and resolve_formula",
            "random_model(s, max_entities=800, max_relationships=400, max_computed=40, "
            "max_attributes=6, max_restrictions=6400) for the next s after seed*1000000 "
            "whose entity and relationship sets are within 3% and 6%, and census within 1%, "
            "of (905, 61, 62), then (3620, 244, 248) twice",
            relational,
        ),
        Workload(
            "corpus",
            "300 small models, one per invocation as check --fuzz runs them: "
            "per-op fixed cost (copies, JSON, parsing, argparse) dominates",
            "random_model(seed*300 + i) for i in 0..299",
            corpus,
        ),
    )
}
