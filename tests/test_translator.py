from __future__ import annotations

import gc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from erdmc import translator
from erdmc.census import Tallies, census, verify_translation
from erdmc.emitter import emit_structured, emit_text, encode_report
from erdmc.generator import random_model
from erdmc.model import (
    Diagram,
    ERModel,
    NatRange,
    ObjectSet,
    StructuralFunction,
    validate_model,
)
from erdmc.parser import parse_model
from erdmc.scheme import RELATIONSHIP_DERIVED, check_scheme
from erdmc.translator import (
    TranslationOptions,
    TranslationResult,
    surrogate_digits,
    tallies_from_steps,
    translate,
)
from test_model import VALIDATE_CASES
from test_pinned_outputs import ANSWERED_SOURCE, RELATIONAL_LIMITS, _answered_options

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


@pytest.mark.parametrize("cardinality", [0, -1])
def test_surrogate_digits_refuses_a_cardinality_below_one(cardinality):
    with pytest.raises(ValueError, match="at least 1"):
        surrogate_digits(cardinality)


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


def test_tallies_come_off_the_step_log():
    fixtures = sorted((Path(__file__).parent / "fixtures").glob("*.erdm"))
    models = [parse_model(path.read_text(encoding="utf-8")) for path in fixtures]
    for model in models + [random_model(seed) for seed in range(100)]:
        report = translate(model).report
        assert report.tallies == tallies_from_steps(report.steps)


def test_compulsory_lines_count_the_restrictions_the_step_log_holds():
    result = translate(parse_model("diagram D { entity A card 10 { attr a attr b attr c } }\n"
                                   "restriction R01 on A compulsory a, b, c\n"))
    tallies = result.report.tallies
    assert (tallies.compulsory_lines, tallies.compulsory_members) == (1, 3)
    steps = [step for step in result.report.steps if not step[1].startswith("restriction:R01")]
    result.report.steps = steps
    result.report.tallies = tallies_from_steps(steps)
    assert result.report.tallies.compulsory_lines == 0
    linearity = verify_translation(result)["linearity"]
    assert "compulsory_lines: 0 in the step tallies, 1 in the census" in linearity


def test_each_element_contributes_exactly_one_step(teaching_model):
    result = translate(teaching_model)
    sources = [source for _, source, _ in result.report.steps]
    assert len(sources) == len(set(sources))


def test_steps_leave_the_collectors_books(teaching_model):
    # Exact tuples of strings: one collection stops tracking every step.
    steps = translate(teaching_model).report.steps
    gc.collect()
    assert len(steps) == 57
    assert [s for s in steps if gc.is_tracked(s)] == []


def test_every_input_element_has_provenance(teaching_model):
    result = translate(teaching_model, TranslationOptions())
    assert verify_translation(result)["completeness"] == []


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
    students = translate(teaching_model).scheme.set("STUDENTS")
    ident = students.object_identifier
    assert ident.codomain == NatRange(5)
    assert ident.total and ident.one_to_one


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
    assert encode_report(first.report) == encode_report(second.report)


def test_errors_withhold_the_scheme(teaching_source):
    broken = teaching_source.replace("role Class -> CLASSES", "role Class -> CLASES")
    result = translate(parse_model(broken))
    assert result.scheme is None
    assert result.report.diagnostics.errors


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


@pytest.mark.parametrize("first, second", [("EMP card 100", "MGR card 10"),
                                           ("MGR card 10", "EMP card 100")],
                         ids=["superset-declared-first", "subset-declared-first"])
def test_labeled_inclusion_restriction_counts_as_inclusion(first, second):
    source = (
        "diagram D {\n"
        f"  entity {first} {{ attr n }}\n"
        f"  entity {second} {{ attr n }}\n"
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
    # the subset depends on its superset, so EMP is added first, whichever is declared first
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


# --- constraints are checked once, after the last one is added ---


@pytest.mark.parametrize("source", [
    # S's check reaches into R, a diamond, which is added after every rectangle.
    "diagram D { entity A { attr a } entity S { attr s fn g -> R } "
    "relationship R { role r1 -> A role r2 -> A } }\n"
    "restriction R1 on S other formal (forall x in S)(a(r1(g(x))) = 1)\n",
    # A and B reference each other, so A is added first and its check reaches into B.
    "diagram D { entity A { attr a fn f -> B } entity B { attr b fn g -> A } }\n"
    "restriction R1 on A other formal (forall x in A)(b(f(x)) = 1)\n",
], ids=["diamond-after-rectangle", "reference-cycle"])
def test_a_check_may_reach_sets_added_after_its_own(source):
    result = translate(parse_model(source))
    assert not result.report.diagnostics.errors
    assert not any(verify_translation(result).values())


_INFORMAL_RULE = (
    'diagram D { entity A card 10 { attr a } computed V = "all" { } }\n'
    "restriction R1 on A compulsory a\nrestriction R2 on A unique a\n"
    'restriction R3 on A other informal "a rule"\n'
)


@pytest.mark.parametrize("formula, code, message", [
    ("1 = 1", "nonrelational-arity",
     "nonrelational constraint R3 must quantify at least two variables"),
    ("(forall x in V)(1 = 1)", "restriction-on-computed-set",
     "tuple constraint R3 is a check over computed set 'V'"),
    ("(forall x in A)(b(x) = 1)", "formula-resolution", "'b' is not a mapping on A"),
], ids=["no-quantifier", "over-computed-set", "unknown-mapping"])
def test_an_answered_formalization_is_checked_like_any_constraint(formula, code, message):
    options = TranslationOptions(answers={"R3": {"formalization": formula}})
    result = translate(parse_model(_INFORMAL_RULE), options)
    assert result.scheme is None
    errors = [(d.code, d.message, d.element) for d in result.report.diagnostics if d.is_error]
    assert errors == [(code, message, "constraint:R3")]


# --- the implicit-key inventory is read off the finished scheme ---


def test_a_key_of_a_collapsed_relationship_leaves_the_inventory():
    # R01 spans both roles of R, so it is implicit; rule (viii) then replaces
    # R by the mapping A.R, and R01 goes with it.
    result = translate(parse_model(
        "diagram D {\n"
        "  entity A card 10 { attr a }\n"
        "  entity B card 10 { attr b }\n"
        "  relationship R { role p -> A unique role q -> B }\n"
        "}\n"
        "restriction R01 on R unique p, q\n"
    ))
    assert result.scheme.set("R") is None and result.scheme.set("A").mapping("R") is not None
    assert result.scheme.provenance["mapping:A.R#absorbed:key:R.R01"] == "restriction:R01"
    assert result.report.implicit_keys == []


def test_the_inventory_lists_each_implicit_key_of_the_scheme_once():
    for seed in range(300):
        result = translate(random_model(seed))
        keys = {(s.name, k.label): k for s in result.scheme.sets for k in s.keys}
        listed = [(note.set_name, note.label) for note in result.report.implicit_keys]
        for note in result.report.implicit_keys:
            key = keys.get((note.set_name, note.label))
            assert key is not None and key.mappings == note.mappings, (seed, note)
        implicit = [ref for ref, key in keys.items() if key.implicit]
        assert sorted(listed) == sorted(implicit), seed


# --- the model is validated again after the input defaults only when they can break it ---

# Rule (iv) drops a computed attribute that a restriction names, so the defaults break it.
_DROPPED_SOURCE = (
    'diagram D { entity A card 10 { attr a : ASCII(8) attr c computed = "" } }\n'
    "restriction R01 on A compulsory c\n"
)

# A set whose cardinality rule (i) defaults, one whose inline cardinality and one whose
# card restriction rule (ii) clamps; at a DBMS maximum below 1, each breaks its model.
_BELOW_ONE_CASES = [
    ("diagram D { entity A { attr a : ASCII(8) } }\n", "A"),
    ("diagram D { entity A card 10 { attr a : ASCII(8) } }\n", "A"),
    ("diagram D { entity A { attr a : ASCII(8) } }\nrestriction R1 on A card 10\n", "R1"),
]


def assert_post_defaults_as_validated(model: ERModel, result: TranslationResult) -> None:
    """The oracle for validating after the input defaults: *result* reports there exactly
    what validate_model finds on the defaulted model, worded as translate words it, or
    nothing when the model as written was refused before the defaults ran."""
    prefix = "after input defaults: "
    reported = [(d.code, d.element, d.message) for d in result.report.diagnostics
                if d.message.startswith(prefix)]
    expected = [] if validate_model(model).errors else [
        (d.code, d.element, prefix + d.message) for d in validate_model(result.model).errors]
    assert reported == expected
    assert result.scheme is None or not expected


def _validate_calls(monkeypatch, model: ERModel, options=None) -> int:
    """How often translating *model* calls validate_model."""
    calls = []
    monkeypatch.setattr(translator, "validate_model",
                        lambda m: calls.append(m) or validate_model(m))
    translate(model, options)
    return len(calls)


def test_a_model_the_defaults_cannot_break_is_validated_once(monkeypatch, teaching_model):
    models = [teaching_model, random_model(3, **RELATIONAL_LIMITS)]
    models += [random_model(seed) for seed in range(50)]
    assert [_validate_calls(monkeypatch, model) for model in models] == [1] * len(models)


@pytest.mark.parametrize("source, options", [
    (ANSWERED_SOURCE, _answered_options()),
    (_DROPPED_SOURCE, None),
    (_BELOW_ONE_CASES[0][0], TranslationOptions(dbms_max_cardinality=0)),
], ids=["answered", "dropped", "maximum-0"])
def test_a_model_the_defaults_can_break_is_validated_again(monkeypatch, source, options):
    assert _validate_calls(monkeypatch, parse_model(source), options) == 2


@pytest.mark.parametrize("source, element", _BELOW_ONE_CASES,
                         ids=["defaulted", "clamped-inline", "clamped-restriction"])
def test_a_dbms_maximum_below_1_refuses_the_model(source, element):
    model = parse_model(source)
    result = translate(model, TranslationOptions(dbms_max_cardinality=0))
    assert result.scheme is None
    assert [d.render() for d in result.report.diagnostics.errors] == [
        "error: bad-cardinality: after input defaults: maximum cardinality must be at least 1 "
        f"[{element}]"
    ]
    assert_post_defaults_as_validated(model, result)


def test_translate_reports_what_validation_after_the_defaults_finds():
    models = [(parse_model(m) if isinstance(m, str) else m, None) for _, _, m in VALIDATE_CASES]
    models += [(random_model(seed), None) for seed in range(1000)]
    models += [(parse_model(_DROPPED_SOURCE), None),
               (parse_model(ANSWERED_SOURCE), _answered_options())]
    for model, options in models:
        assert_post_defaults_as_validated(model, translate(model, options))
