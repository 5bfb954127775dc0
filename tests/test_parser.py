from __future__ import annotations

import pytest

from erdmc.diagnostics import ParseFailure
from erdmc.model import (
    AsciiRange,
    DateBound,
    FuncBound,
    IntBound,
    Interval,
    Pow10Bound,
    validate_model,
)
from erdmc.parser import parse_model


def test_teaching_fixture_shape(teaching_model):
    sets = teaching_model.object_sets()
    assert len(sets) == 8
    kinds = [s.kind for s in sets]
    assert kinds.count("entity") == 5
    assert kinds.count("relationship") == 3
    assert len(teaching_model.restrictions) == 41


def test_parse_preserves_declaration_order(teaching_model):
    names = [s.name for s in teaching_model.object_sets()]
    assert names == [
        "STUDENTS", "TEACHERS", "DISCIPLINES", "ROOMS",
        "CLASSES", "SCHEDULES", "ATTENDANCES", "COMPETENCES",
    ]
    labels = [r.label for r in teaching_model.restrictions]
    assert labels == [f"R{i:02d}" for i in range(1, 42)]


def test_parsed_model_passes_validation(teaching_model):
    assert validate_model(teaching_model) == []


def test_empty_source_gives_empty_model():
    model = parse_model("")
    assert model.diagrams == ()
    assert model.restrictions == ()


def test_parsing_is_deterministic(teaching_source):
    assert parse_model(teaching_source) == parse_model(teaching_source)


def test_unterminated_range_bracket_reports_bracket_position():
    source = (
        "diagram D { entity A { attr a } }\n"
        "restriction R01 on A range a [1, \n"
    )
    with pytest.raises(ParseFailure) as info:
        parse_model(source)
    assert any(e.line == 2 for e in info.value.errors)


def test_recovery_collects_errors_from_several_statements():
    source = (
        "diagram D { entity A { attr a } }\n"
        "restriction R01 on A range a [1, 2\n"
        "restriction R02 on A bogus\n"
        "restriction R03 on A compulsory a\n"
    )
    with pytest.raises(ParseFailure) as info:
        parse_model(source)
    assert len(info.value.errors) >= 2


def test_range_bound_forms():
    source = (
        "diagram D { entity A { attr a attr b attr c attr d } }\n"
        "restriction R01 on A range a [1, 10^4]\n"
        "restriction R02 on A range b [01/10/2010, SysDate()]\n"
        "restriction R03 on A range c ascii(255)\n"
        "restriction R04 on A range d [-5, 5]\n"
    )
    model = parse_model(source)
    bodies = {r.label: r.body for r in model.restrictions}
    assert bodies["R01"].range == Interval(IntBound(1), Pow10Bound(4))
    assert bodies["R02"].range == Interval(DateBound("01/10/2010"), FuncBound("SysDate()"))
    assert bodies["R03"].range == AsciiRange(255)
    assert bodies["R04"].range == Interval(IntBound(-5), IntBound(5))


def test_hash_binds_to_names_but_opens_comments_after_space():
    source = (
        "diagram D {\n"
        "  entity ROOMS { attr Room# }  # trailing comment\n"
        "}\n"
        "# full-line comment\n"
        "restriction R01 on ROOMS unique Room#\n"
    )
    model = parse_model(source)
    assert model.set("ROOMS").attributes[0].name == "Room#"
    assert model.restrictions[0].body.mappings == ("Room#",)


def test_inline_set_clauses():
    source = (
        "diagram D {\n"
        "  entity EMPLOYEES card 10^4 { attr Name }\n"
        "  entity TEACHERS subset_of EMPLOYEES card 500 { attr Name }\n"
        "  computed SENIORS = \"employees hired before 2000\" { }\n"
        "}\n"
    )
    model = parse_model(source)
    employees = model.set("EMPLOYEES")
    assert employees.max_cardinality == 10_000
    assert employees.cardinality_pow10 == 4
    teachers = model.set("TEACHERS")
    assert teachers.included_in == ("EMPLOYEES",)
    assert teachers.max_cardinality == 500
    assert model.set("SENIORS").computed_definition == "employees hired before 2000"


def test_description_statement_is_carried_verbatim():
    model = parse_model('description "An informal sub-universe description."')
    assert model.description == "An informal sub-universe description."


def test_role_unique_flag_and_computed_members():
    source = (
        "diagram D {\n"
        "  entity MEN { attr Name }\n"
        "  entity WOMEN { attr Name }\n"
        "  relationship MARRIAGE {\n"
        "    role husband -> MEN unique\n"
        "    role wife -> WOMEN unique\n"
        "  }\n"
        "  entity STATS { attr Total computed = \"count of MARRIAGE\" }\n"
        "}\n"
    )
    model = parse_model(source)
    marriage = model.set("MARRIAGE")
    assert all(r.declared_unique for r in marriage.roles)
    assert model.set("STATS").attributes[0].computed_definition == "count of MARRIAGE"
