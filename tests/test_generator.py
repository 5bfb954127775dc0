from __future__ import annotations

from erdmc.census import census
from erdmc.generator import random_model, sized_model
from erdmc.model import validate_model
from test_pinned_outputs import RELATIONAL_LIMITS

# The bulk workload's size ladder, as perfbench/workloads.py sets it.
BULK_LADDER = (500, 1000, 2000, 4000)


def test_generated_models_are_valid_and_deterministic():
    # The generators do not validate what they return; these tests hold them to it.
    for seed in range(1000):
        model = random_model(seed)
        assert validate_model(model).errors == [], seed
        if seed < 60:
            assert random_model(seed) == model


def test_generated_models_at_the_relational_limits_are_valid():
    for seed in (1, 2, 3):
        assert validate_model(random_model(seed, **RELATIONAL_LIMITS)).errors == [], seed


def test_generated_models_cover_the_element_classes():
    seen = set()
    for seed in range(80):
        tallies = census(random_model(seed))
        for name, value in tallies.as_dict().items():
            if value:
                seen.add(name)
    for expected in (
        "entity_sets", "relationship_sets", "computed_sets", "roles",
        "structural_functions", "attributes", "inclusions",
        "compulsory_members", "unique_singletons", "concatenated_keys",
        "tuple_checks", "nonrelational",
    ):
        assert expected in seen, expected


def test_sized_models_hit_their_target_scale():
    for target in (10, 100, 1000):
        model = sized_model(7, target)
        total = census(model).total
        assert target <= total <= target + 12


def test_sized_models_on_the_bulk_ladder_are_valid():
    for seed in (1, 2):
        for target in BULK_LADDER:
            assert validate_model(sized_model(seed, target)).errors == [], (seed, target)
