from __future__ import annotations

import dataclasses

import pytest

from erdmc import verify_translation
from erdmc.parser import parse_model
from erdmc.translator import TranslationOptions, translate

OPTIONS = TranslationOptions()


@pytest.fixture
def result(teaching_model):
    """A fresh translation of the teaching fixture, free to tamper with."""
    return translate(teaching_model, OPTIONS)


def _failing(result) -> dict[str, list[str]]:
    return {k: v for k, v in verify_translation(result).items() if v}


def test_untouched_translation_passes_all_four_in_order(result):
    witnesses = verify_translation(result)
    assert list(witnesses) == ["linearity", "soundness", "completeness", "optimality"]
    assert witnesses == dict.fromkeys(witnesses, [])


def test_dropped_step_fails_linearity_and_so_optimality(result):
    del result.report.steps[3]
    assert _failing(result) == {
        "linearity": ["steps: 56 logged, 57 in the census"],
        "optimality": ["needs linearity, which fails"],
    }


def test_tally_differing_from_the_census_is_named(result):
    tallies = result.report.tallies
    result.report.tallies = dataclasses.replace(tallies, roles=tallies.roles + 1)
    assert _failing(result)["linearity"] == [
        "roles: 7 in the step tallies, 6 in the census",
        "mappings_total: 19 in the step tallies, 18 in the census",
        "total: 58 in the step tallies, 57 in the census",
    ]


def test_duplicated_step_source_fails_only_optimality(result):
    steps = result.report.steps
    kind, _, produced = steps[1]
    steps[1] = (kind, steps[0][1], produced)
    assert _failing(result) == {
        "optimality": [f"{steps[0][1]} is the source of 2 steps"],
    }


def test_deleted_provenance_entry_fails_only_completeness(result):
    del result.scheme.provenance["mapping:STUDENTS.SSN#unique:R28"]
    assert _failing(result) == {
        "completeness": ["restriction:R28 has no provenance"],
    }


def test_an_attribute_whose_mapping_names_another_source_fails_only_completeness():
    result = translate(parse_model("diagram D { entity A card 10 { attr v attr w } }"), OPTIONS)
    result.scheme.provenance["mapping:A.v"] = "attribute:A.w"
    assert verify_translation(result) == {
        "linearity": [], "soundness": [], "completeness": ["attribute:A.v has no provenance"],
        "optimality": [],
    }


def test_compulsory_restriction_is_covered_through_its_member_entries(result):
    provenance = result.scheme.provenance
    assert "restriction:R20" not in provenance.values()
    del provenance["mapping:STUDENTS.SSN#total:R20"]
    assert _failing(result) == {}
    del provenance["mapping:STUDENTS.Name#total:R20"]
    assert _failing(result) == {
        "completeness": ["restriction:R20 has no provenance"],
    }


def test_a_source_that_is_no_text_fails_soundness_and_completeness(result):
    ref = "mapping:STUDENTS.SSN#unique:R28"
    result.scheme.provenance[ref] = 5
    assert _failing(result) == {
        "soundness": [f"error: stray-provenance: {ref} has the source 5, which is no reference [{ref}]"],
        "completeness": ["restriction:R28 has no provenance"],
    }


def test_partial_role_fails_only_soundness(result):
    result.scheme.set("ATTENDANCES").mapping("Student").total = False
    assert _failing(result) == {
        "soundness": ["error: role-totality: role Student is not total [ATTENDANCES.Student]"],
    }


def test_withheld_scheme_fails_all_four(teaching_source):
    from erdmc.parser import parse_model

    model = parse_model(teaching_source.replace("role Class -> CLASSES", "role Class -> CLASES"))
    result = translate(model, OPTIONS)
    assert result.scheme is None and result.model is model
    witnesses = verify_translation(result)
    assert witnesses["linearity"][0] == "no step tallies were recorded"
    assert witnesses["soundness"] == [
        "error: unresolved-set: role Class targets unknown set 'CLASES' [ATTENDANCES.Class]",
    ]
    assert witnesses["completeness"] == ["no scheme was produced"]
    assert witnesses["optimality"] == ["needs linearity, which fails"]


def test_a_prompted_definition_is_audited_as_translated():
    # The audit reads the model the translator translated, so a computed set
    # that only the prompter defined is in the census too.
    from erdmc.parser import parse_model

    model = parse_model(
        "diagram D { entity A card 10 { attr a } computed V { } }\n"
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
    )
    result = translate(model, TranslationOptions(prompter=lambda question: "all of A"))
    assert result.model.set("V").computed_definition == "all of A"
    assert result.report.tallies.computed_sets == 1
    assert verify_translation(result) == dict.fromkeys(
        ["linearity", "soundness", "completeness", "optimality"], []
    )
