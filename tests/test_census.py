from __future__ import annotations

import dataclasses

import pytest

from erdmc import verify_translation
from erdmc.translator import TranslationOptions, translate

OPTIONS = TranslationOptions()


@pytest.fixture
def result(teaching_model):
    """A fresh translation of the teaching fixture, free to tamper with."""
    return translate(teaching_model, OPTIONS)


def _failing(model, result) -> dict[str, list[str]]:
    return {k: v for k, v in verify_translation(model, result, OPTIONS).items() if v}


def test_untouched_translation_passes_all_four_in_order(teaching_model, result):
    witnesses = verify_translation(teaching_model, result, OPTIONS)
    assert list(witnesses) == ["linearity", "soundness", "completeness", "optimality"]
    assert witnesses == dict.fromkeys(witnesses, [])


def test_dropped_step_fails_linearity_and_so_optimality(teaching_model, result):
    del result.report.steps[3]
    assert _failing(teaching_model, result) == {
        "linearity": ["steps: 56 logged, 57 in the census"],
        "optimality": ["needs linearity, which fails"],
    }


def test_tally_differing_from_the_census_is_named(teaching_model, result):
    tallies = result.report.tallies
    result.report.tallies = dataclasses.replace(tallies, roles=tallies.roles + 1)
    assert _failing(teaching_model, result)["linearity"] == [
        "roles: 7 in the step tallies, 6 in the census",
        "mappings_total: 19 in the step tallies, 18 in the census",
        "total: 58 in the step tallies, 57 in the census",
    ]


def test_duplicated_step_source_fails_only_optimality(teaching_model, result):
    steps = result.report.steps
    steps[1].source = steps[0].source
    assert _failing(teaching_model, result) == {
        "optimality": [f"{steps[0].source} is the source of 2 steps"],
    }


def test_deleted_provenance_entry_fails_only_completeness(teaching_model, result):
    del result.scheme.provenance["mapping:STUDENTS.SSN#unique:R28"]
    assert _failing(teaching_model, result) == {
        "completeness": ["restriction:R28 has no provenance"],
    }


def test_compulsory_restriction_is_covered_through_its_member_entries(teaching_model, result):
    provenance = result.scheme.provenance
    assert "restriction:R20" not in provenance.values()
    del provenance["mapping:STUDENTS.SSN#total:R20"]
    assert _failing(teaching_model, result) == {}
    del provenance["mapping:STUDENTS.Name#total:R20"]
    assert _failing(teaching_model, result) == {
        "completeness": ["restriction:R20 has no provenance"],
    }


def test_partial_role_fails_only_soundness(teaching_model, result):
    result.scheme.set("ATTENDANCES").mapping("Student").total = False
    assert _failing(teaching_model, result) == {
        "soundness": ["error: role-totality: role Student is not total [ATTENDANCES.Student]"],
    }


def test_withheld_scheme_fails_all_four(teaching_source):
    from erdmc.parser import parse_model

    model = parse_model(teaching_source.replace("role Class -> CLASSES", "role Class -> CLASES"))
    result = translate(model, OPTIONS)
    assert result.scheme is None
    witnesses = verify_translation(model, result, OPTIONS)
    assert witnesses["linearity"][0] == "no step tallies were recorded"
    assert witnesses["soundness"] == [
        "error: unresolved-set: role Class targets unknown set 'CLASES' [ATTENDANCES.Class]",
    ]
    assert witnesses["completeness"] == ["no scheme was produced"]
    assert witnesses["optimality"] == ["needs linearity, which fails"]
