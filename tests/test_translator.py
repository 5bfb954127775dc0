from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from erdmc.census import Tallies, census
from erdmc.emitter import emit_structured, emit_text
from erdmc.model import (
    Diagram,
    ERModel,
    NatRange,
    ObjectSet,
    StructuralFunction,
    source_universe,
)
from erdmc.parser import parse_model
from erdmc.scheme import RELATIONSHIP_DERIVED, check_scheme
from erdmc.translator import (
    TranslationOptions,
    Translator,
    surrogate_digits,
    translate,
)

# Frozen by hand from the teaching fixture: 5 entities + 3 relationships,
# 6 roles + 1 structural function + 11 attributes, and 4+0+17+4+5+1
# constraint steps under the per-mapping compulsory convention.
TEACHING_TALLIES = Tallies(
    entity_sets=5,
    relationship_sets=3,
    computed_sets=0,
    roles=6,
    structural_functions=1,
    attributes=11,
    nonrelational=4,
    inclusions=0,
    compulsory_members=17,
    unique_singletons=4,
    concatenated_keys=5,
    tuple_checks=1,
    compulsory_lines=8,
)


def _brute_force_digits(max_cardinality: int) -> int:
    n = 1
    while 10 ** n < max_cardinality:
        n += 1
    return n


@pytest.mark.parametrize(
    "cardinality,digits",
    [(10 ** 5, 5), (10 ** 3, 3), (500, 3), (1, 1), (10, 1), (11, 2), (10 ** 9, 9)],
)
def test_surrogate_digits(cardinality, digits):
    assert surrogate_digits(cardinality) == digits


@given(st.integers(min_value=1, max_value=10 ** 12))
def test_surrogate_digits_matches_brute_force(cardinality):
    assert surrogate_digits(cardinality) == _brute_force_digits(cardinality)


def _scheme_order(model: ERModel, diamonds: bool) -> list[str]:
    """Names of the emitted rectangles (or diamonds), in scheme order."""
    scheme = translate(model).scheme
    return [s.name for s in scheme.sets if (s.kind == RELATIONSHIP_DERIVED) == diamonds]


def _one_diagram(*sets: ObjectSet) -> ERModel:
    return ERModel(diagrams=(Diagram("d", sets),))


def test_order_rectangles_teaching(teaching_model):
    names = _scheme_order(teaching_model, diamonds=False)
    assert names == ["STUDENTS", "TEACHERS", "DISCIPLINES", "ROOMS", "CLASSES"]


def test_order_rectangles_singleton():
    model = _one_diagram(ObjectSet(name="A", kind="entity"))
    assert _scheme_order(model, diamonds=False) == ["A"]


def test_order_rectangles_referenced_set_first():
    a = ObjectSet(name="A", kind="entity",
                  structural_functions=(StructuralFunction("f", "B"),))
    b = ObjectSet(name="B", kind="entity")
    assert _scheme_order(_one_diagram(a, b), diamonds=False) == ["B", "A"]


def test_order_diamonds_teaching(teaching_model):
    names = _scheme_order(teaching_model, diamonds=True)
    assert names == ["COMPETENCES", "SCHEDULES", "ATTENDANCES"]


def test_order_diamonds_empty_and_single():
    assert _scheme_order(_one_diagram(), diamonds=True) == []
    source = (
        "diagram D { entity A { } entity B { }\n"
        "  relationship L { role a -> A role b -> B } }"
    )
    assert _scheme_order(parse_model(source), diamonds=True) == ["L"]


def test_reference_cycle_degrades_to_declaration_order_with_warning():
    source = (
        "diagram D {\n"
        "  entity A { fn f -> B }\n"
        "  entity B { fn g -> A }\n"
        "}\n"
    )
    result = translate(parse_model(source))
    assert result.scheme is not None
    assert [s.name for s in result.scheme.sets] == ["A", "B"]
    assert any(d.code == "reference-cycle" for d in result.report.diagnostics)


def test_self_reference_is_not_a_cycle():
    source = "diagram D { entity A { fn boss -> A } }"
    result = translate(parse_model(source))
    assert result.scheme is not None
    assert not any(d.code == "reference-cycle" for d in result.report.diagnostics)


def test_golden_tallies_match_hand_census(teaching_model):
    assert census(teaching_model) == TEACHING_TALLIES
    result = translate(teaching_model)
    assert result.report.tallies == TEACHING_TALLIES
    assert len(result.report.steps) == TEACHING_TALLIES.total == 57


def test_each_element_contributes_exactly_one_step(teaching_model):
    result = translate(teaching_model)
    sources = [s.source for s in result.report.steps]
    assert len(sources) == len(set(sources))


def test_every_input_element_has_provenance(teaching_model):
    result = translate(teaching_model)
    covered = set(result.scheme.provenance.values())
    for ref in source_universe(teaching_model):
        assert ref in covered or any(v.startswith(f"{ref}[") for v in covered), ref


def test_scheme_order_is_rectangles_then_diamonds(teaching_model):
    result = translate(teaching_model)
    assert [s.name for s in result.scheme.sets] == [
        "STUDENTS", "TEACHERS", "DISCIPLINES", "ROOMS", "CLASSES",
        "COMPETENCES", "SCHEDULES", "ATTENDANCES",
    ]


def test_identifier_digits_follow_cardinalities(teaching_model):
    result = translate(teaching_model)
    digits = {
        s.name: s.object_identifier.codomain.digits for s in result.scheme.sets
    }
    assert digits == {
        "STUDENTS": 5, "TEACHERS": 3, "DISCIPLINES": 3, "ROOMS": 3,
        "CLASSES": 4, "SCHEDULES": 5, "ATTENDANCES": 9, "COMPETENCES": 4,
    }


def test_add_set_builds_identifier(teaching_model):
    translator = Translator(teaching_model)
    translator.add_set(teaching_model.set("STUDENTS"))
    students = translator.scheme.set("STUDENTS")
    ident = students.object_identifier
    assert ident.codomain == NatRange(5)
    assert ident.total and ident.one_to_one


def test_re_adding_a_set_is_a_no_op_with_zero_steps(teaching_model):
    translator = Translator(teaching_model)
    translator.add_set(teaching_model.set("STUDENTS"))
    steps_before = len(translator.report.steps)
    translator.add_set(teaching_model.set("STUDENTS"))
    assert len(translator.report.steps) == steps_before
    assert len(translator.scheme.sets) == 1


def test_inclusion_declaration_becomes_constraint():
    source = (
        "diagram D {\n"
        "  entity EMPLOYEES card 10^4 { attr Name }\n"
        "  entity TEACHERS subset_of EMPLOYEES card 10^3 { attr Name }\n"
        "}\n"
        "restriction R01 on EMPLOYEES compulsory Name\n"
        "restriction R02 on EMPLOYEES unique Name\n"
        "restriction R03 on TEACHERS compulsory Name\n"
        "restriction R04 on TEACHERS unique Name\n"
    )
    result = translate(parse_model(source))
    assert result.scheme is not None
    inclusions = [
        c for c in result.scheme.constraints
        if getattr(c, "subset", None) == "TEACHERS"
    ]
    assert len(inclusions) == 1
    assert inclusions[0].superset == "EMPLOYEES"
    assert result.report.tallies.inclusions == 1


def test_complete_scheme_classes_block(teaching_model):
    result = translate(teaching_model)
    classes = result.scheme.set("CLASSES")
    date = classes.mapping("Date")
    assert date.total and not date.one_to_one
    assert date.source_labels == {"total": "R24", "codomain": "R12"}
    schedule = classes.mapping("Schedule")
    assert schedule.flavor == "structural-function"
    assert schedule.codomain == "SCHEDULES"
    assert schedule.total
    assert [k.label for k in classes.keys] == ["R32"]


def test_tuple_constraint_lands_in_schedules(teaching_model):
    result = translate(teaching_model)
    tuples = [
        c for c in result.scheme.constraints
        if c.__class__.__name__ == "TupleConstraint"
    ]
    assert len(tuples) == 1
    assert tuples[0].label == "R37"
    assert tuples[0].set_name == "SCHEDULES"


def test_grade_is_not_total(teaching_model):
    result = translate(teaching_model)
    grade = result.scheme.set("ATTENDANCES").mapping("Grade")
    assert not grade.total


def test_empty_model_translates_to_empty_scheme():
    result = translate(ERModel())
    assert result.scheme is not None
    assert result.scheme.sets == []
    assert result.report.steps == []
    assert result.report.tallies.total == 0


def test_translation_is_deterministic(teaching_model):
    first = translate(teaching_model)
    second = translate(teaching_model)
    assert emit_text(first.scheme) == emit_text(second.scheme)
    assert emit_structured(first.scheme) == emit_structured(second.scheme)
    assert json.dumps(first.report.to_json_dict()) == json.dumps(second.report.to_json_dict())


def test_errors_withhold_the_scheme(teaching_source):
    broken = teaching_source.replace("role Class -> CLASSES", "role Class -> CLASES")
    result = translate(parse_model(broken))
    assert result.scheme is None
    assert result.report.has_errors


def test_unformalized_rule_survives_as_informal_constraint():
    source = (
        "diagram D { entity A card 10 { attr a } }\n"
        "restriction R01 on A compulsory a\n"
        "restriction R02 on A unique a\n"
        "restriction R03 on A other informal \"no two alike\"\n"
    )
    result = translate(parse_model(source))
    assert result.scheme is not None
    assert any(d.code == "unformalized" for d in result.report.diagnostics)
    trailing = [c for c in result.scheme.constraints
                if c.__class__.__name__ == "NonrelationalConstraint"]
    assert len(trailing) == 1
    assert trailing[0].formula is None
    assert trailing[0].informal == "no two alike"
    assert result.report.tallies.nonrelational == 1


def test_scripted_answer_formalizes_a_rule():
    source = (
        "diagram D { entity A card 10 { attr a } entity B card 10 { attr b } }\n"
        "restriction R01 on A compulsory a\n"
        "restriction R02 on A unique a\n"
        "restriction R03 on B compulsory b\n"
        "restriction R04 on B unique b\n"
        "restriction R05 on A other informal \"disjoint values\"\n"
    )
    answers = {"R05": {"formalization": "(forall x in A)(forall y in B)(a(x) <> b(y))"}}
    result = translate(parse_model(source), TranslationOptions(answers=answers))
    assert result.scheme is not None
    trailing = [c for c in result.scheme.constraints
                if c.__class__.__name__ == "NonrelationalConstraint"]
    assert trailing[0].formula is not None
    assert [p.origin for p in result.report.pending_questions] == ["answers"]
    assert not any(d.code == "unformalized" for d in result.report.diagnostics)


def test_cardinality_labels_link_to_identifiers(teaching_model):
    result = translate(teaching_model)
    assert result.scheme.provenance["mapping:STUDENTS.x"] == "restriction:R01"
    assert result.scheme.provenance["mapping:ATTENDANCES.x"] == "restriction:R17"


def test_relationship_headers_preserve_role_order(teaching_model):
    result = translate(teaching_model)
    signatures = {
        s.name: s.role_signature for s in result.scheme.sets
        if s.kind == "relationship-derived"
    }
    assert signatures == {
        "SCHEDULES": (("Room", "ROOMS"), ("Competence", "COMPETENCES")),
        "ATTENDANCES": (("Student", "STUDENTS"), ("Class", "CLASSES")),
        "COMPETENCES": (("Teacher", "TEACHERS"), ("Discipline", "DISCIPLINES")),
    }


def test_computed_set_carries_its_definition():
    source = (
        'diagram D { entity A card 10 { attr a } computed V = "a view over A" { } }\n'
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
    )
    result = translate(parse_model(source))
    v = result.scheme.set("V")
    assert v.kind == "computed"
    assert v.computed_definition == "a view over A"
    assert v.object_identifier is None
    assert result.report.tallies.computed_sets == 1


def test_singleton_uniqueness_on_a_role_counts_and_resolves():
    source = (
        "diagram D {\n"
        "  entity A card 10 { attr a }\n"
        "  entity B card 10 { attr b }\n"
        "  relationship L { role ra -> A role rb -> B attr w }\n"
        "}\n"
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
        "restriction R03 on B compulsory b\nrestriction R04 on B unique b\n"
        "restriction R05 on L unique ra\n"
        "restriction R06 on L range w [1, 5]\n"
    )
    model = parse_model(source)
    result = translate(model)
    assert result.scheme is not None
    assert result.report.tallies.unique_singletons == 3
    assert len(result.report.steps) == census(model).total
    # the attribute w blocks the collapse, so the unique role stays visible
    ra = result.scheme.set("L").mapping("ra")
    assert ra.one_to_one
    assert ra.source_labels["unique"] == "R05"


def test_diamond_role_targeting_another_diamond_orders_correctly():
    source = (
        "diagram D {\n"
        "  entity A card 10 { attr a }\n"
        "  entity B card 10 { attr b }\n"
        "  relationship L1 { role ra -> A role rb -> B }\n"
        "  relationship L2 { role rl -> L1 role rc -> A attr w }\n"
        "}\n"
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
        "restriction R03 on B compulsory b\nrestriction R04 on B unique b\n"
        "restriction R05 on L2 range w [1, 5]\n"
    )
    model = parse_model(source)
    result = translate(model)
    names = [s.name for s in result.scheme.sets]
    assert names.index("L1") < names.index("L2")
    assert len(result.report.steps) == census(model).total
    assert check_scheme(result.scheme) == []


def test_labeled_inclusion_restriction_counts_as_inclusion():
    source = (
        "diagram D {\n"
        "  entity EMP card 100 { attr n }\n"
        "  entity MGR card 10 { attr n }\n"
        "}\n"
        "restriction R01 on EMP compulsory n\nrestriction R02 on EMP unique n\n"
        "restriction R03 on MGR compulsory n\nrestriction R04 on MGR unique n\n"
        "restriction R05 on MGR subset_of EMP\n"
    )
    model = parse_model(source)
    result = translate(model)
    assert census(model).inclusions == 1
    assert result.report.tallies.inclusions == 1
    inclusion = next(c for c in result.scheme.constraints
                     if c.__class__.__name__ == "InclusionConstraint")
    assert (inclusion.subset, inclusion.superset, inclusion.label) == ("MGR", "EMP", "R05")
    # the subset depends on its superset, so EMP is added first
    names = [s.name for s in result.scheme.sets]
    assert names.index("EMP") < names.index("MGR")


def test_multi_diagram_cross_references():
    source = (
        "diagram One { entity A card 10 { attr a } }\n"
        "diagram Two {\n"
        "  entity B card 10 { attr b fn f -> A }\n"
        "}\n"
        "restriction R01 on A compulsory a\n"
        "restriction R02 on A unique a\n"
        "restriction R03 on B compulsory b\n"
        "restriction R04 on B unique b\n"
    )
    result = translate(parse_model(source))
    assert result.scheme is not None
    assert check_scheme(result.scheme) == []
    assert result.report.tallies.total == census(parse_model(source)).total
