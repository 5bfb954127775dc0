from __future__ import annotations

import copy
import re
from pathlib import Path
from typing import Callable

import pytest

from erdmc import scheme as sch
from erdmc.diagnostics import Diagnostics
from erdmc.emitter import EmitError, emit_text
from erdmc.formula import Apply, Binary, Compare, Forall, Literal, Var, parse_formula
from erdmc.model import AsciiRange, DateBound, FuncBound, IntBound, Interval, NatRange, Pow10Bound
from erdmc.parser import parse_model
from erdmc.scheme import (
    EMDMScheme,
    EMDMSet,
    InclusionConstraint,
    Key,
    check_scheme,
    is_implicit_key,
    ref_owner,
    resolve_formula,
)
from erdmc.translator import translate


@pytest.fixture(scope="module")
def golden_scheme(teaching_model):
    result = translate(teaching_model)
    assert result.scheme is not None
    return result.scheme


def test_full_role_key_is_implicit(golden_scheme):
    attendances = golden_scheme.set("ATTENDANCES")
    r35 = next(k for k in attendances.keys if k.label == "R35")
    assert is_implicit_key(r35, attendances)


def test_key_with_attributes_is_not_implicit(golden_scheme):
    schedules = golden_scheme.set("SCHEDULES")
    r33 = next(k for k in schedules.keys if k.label == "R33")
    assert not is_implicit_key(r33, schedules)


def test_proper_subset_of_roles_is_not_implicit(golden_scheme):
    schedules = golden_scheme.set("SCHEDULES")
    assert not is_implicit_key(Key("K", ("Room",)), schedules)


def test_entity_key_is_never_implicit(golden_scheme):
    classes = golden_scheme.set("CLASSES")
    r32 = next(k for k in classes.keys if k.label == "R32")
    assert not is_implicit_key(r32, classes)


def test_check_scheme_accepts_golden(golden_scheme):
    assert check_scheme(golden_scheme) == []


def test_check_scheme_accepts_empty():
    assert check_scheme(EMDMScheme()) == []


def test_check_scheme_flags_missing_codomain_set(golden_scheme):
    mutated = copy.deepcopy(golden_scheme)
    schedules = mutated.set("SCHEDULES")
    schedules.mapping("Room").codomain = "ROOMZ"
    diagnostics = check_scheme(mutated)
    assert any(d.code == "unresolved-codomain" for d in diagnostics)


def test_check_scheme_flags_non_total_role(golden_scheme):
    mutated = copy.deepcopy(golden_scheme)
    mutated.set("SCHEDULES").mapping("Room").total = False
    assert any(d.code == "role-totality" for d in check_scheme(mutated))


def test_check_scheme_flags_singleton_key(golden_scheme):
    mutated = copy.deepcopy(golden_scheme)
    mutated.set("ROOMS").keys.append(Key("R90", ("Room#",)))
    diagnostics = check_scheme(mutated)
    assert any(d.code == "singleton-key" for d in diagnostics)


def test_check_scheme_flags_missing_provenance(golden_scheme):
    mutated = copy.deepcopy(golden_scheme)
    del mutated.provenance["set:STUDENTS"]
    assert any(d.code == "missing-provenance" for d in check_scheme(mutated))


def test_check_scheme_flags_wrong_implicit_flag(golden_scheme):
    mutated = copy.deepcopy(golden_scheme)
    schedules = mutated.set("SCHEDULES")
    next(k for k in schedules.keys if k.label == "R33").implicit = True
    assert any(d.code == "implicit-flag" for d in check_scheme(mutated))


def test_check_scheme_flags_broken_formula(teaching_source):
    broken = teaching_source.replace(
        "(forall x in STUDENTS)(forall y in TEACHERS)(SSN(x) <> SSN(y))",
        "(forall x in STUDENTS)(forall y in TEACHERS)(SSN(x) <> Name(x))",
    )
    # Name(x) vs SSN: value-to-value comparison is fine; break it harder
    broken = broken.replace("SSN(x) <> Name(x)", "Nope(x) <> SSN(y)")
    result = translate(parse_model(broken))
    assert result.scheme is None
    assert any(d.code == "formula-resolution" for d in result.report.diagnostics)


@pytest.mark.parametrize("formula, problem", [
    ("(forall x in STUDENTS)(forall y in TEACHERS)(x = y)",
     "comparison mixes STUDENTS with TEACHERS"),
    ("(forall x in STUDENTS)(x = 1)", "comparison mixes an object set with a plain value"),
    ("(forall x in STUDENTS)(SSN(1) = SSN(x))", "'SSN' applied to a plain value"),
    ("(forall x in NOPE)(1 = 1)", "quantifier domain 'NOPE' is not a scheme set"),
    ("(forall x in STUDENTS)(Nope(x) = 1)", "'Nope' is not a mapping on STUDENTS"),
    # The formula parser refuses a free variable; a hand-built formula may hold one.
    (Forall("x", "STUDENTS", Compare("=", Apply("SSN", Var("y")), Literal(1))),
     "variable 'y' is not quantified"),
])
def test_resolve_formula_names_each_problem(golden_scheme, formula, problem):
    if isinstance(formula, str):
        formula = parse_formula(formula)
    found = Diagnostics()
    members = {s.name: {m.name: m for m in [s.object_identifier, *s.mappings] if m is not None}
               for s in golden_scheme.sets}
    resolve_formula(members, formula, "constraint:R99", found.add)
    assert [(d.code, d.element, d.message) for d in found] == [
        ("formula-resolution", "constraint:R99", problem)]


def test_no_two_keys_share_a_mapping_set(golden_scheme):
    for s in golden_scheme.sets:
        seen = set()
        for k in s.keys:
            frozen = frozenset(k.mappings)
            assert frozen not in seen
            seen.add(frozen)


def test_set_finds_the_first_match_and_remove_sets_goes_by_identity():
    first, second, other = (EMDMSet("A", "entity-derived"), EMDMSet("A", "computed"),
                            EMDMSet("B", "entity-derived"))
    scheme = EMDMScheme(sets=[first])
    assert scheme.set("A") is first  # a list given to the constructor
    scheme.sets += [second, other]
    assert scheme.sets == [first, second, other]
    assert scheme.set("A") is first and scheme.set("B") is other
    scheme.remove_sets([first])
    assert scheme.set("A") is second  # a duplicate name falls back to its next set
    scheme.remove_sets([second, other])
    assert scheme.set("A") is None and scheme.set("B") is None and scheme.sets == []
    assert scheme == EMDMScheme()


def test_set_finds_a_set_renamed_in_place():
    scheme = translate(parse_model("diagram D { entity A card 10 { attr v } }")).scheme
    found = scheme.set("A")
    found.name = "Z"
    assert scheme.set("Z") is found and scheme.set("A") is None


def test_remove_sets_removes_the_given_objects_not_equal_ones():
    first, twin, other = (EMDMSet("A", "entity-derived"), EMDMSet("A", "entity-derived"),
                          EMDMSet("B", "entity-derived"))
    scheme = EMDMScheme(sets=[first, twin, other])
    held = scheme.sets
    scheme.remove_sets([first])
    assert scheme.sets is held and len(held) == 2
    assert held[0] is twin and held[1] is other and scheme.set("A") is twin
    scheme.remove_sets([EMDMSet("B", "entity-derived")])  # equal to other, but not other
    assert len(held) == 2 and scheme.set("B") is other


def test_ref_owner_names_the_set_of_set_mapping_and_key_references():
    assert ref_owner("set:R") == "R"
    assert ref_owner("mapping:R.x") == "R"
    assert ref_owner("mapping:H.m#absorbed:mapping:R.x#total:R02") == "H"
    assert ref_owner("key:R.R07") == "R"
    assert ref_owner("constraint:R09") is None
    assert ref_owner("constraint:inclusion:A<=B") is None
    assert ref_owner("mapping:R") is None


def _constraint(scheme: EMDMScheme, label: str):
    return next(c for c in scheme.constraints if getattr(c, "label", None) == label)


def _member(scheme: EMDMScheme, name: str) -> sch.Mapping:
    set_name, _, mapping = name.partition(".")
    return scheme.set(set_name).mapping(mapping)


def _codomain(name: str, codomain) -> Callable[[EMDMScheme], None]:
    return lambda m: setattr(_member(m, name), "codomain", codomain)


def _r41(body) -> Callable[[EMDMScheme], None]:
    """R41 with *body* under its quantifiers (forall x in STUDENTS)(forall y in TEACHERS)."""
    return lambda m: setattr(_constraint(m, "R41"), "formula",
                             Forall("x", "STUDENTS", Forall("y", "TEACHERS", body)))


_SSN_DIFFER = Compare("<>", Apply("SSN", Var("x")), Apply("SSN", Var("y")))


def _include_computed(scheme: EMDMScheme) -> None:
    scheme.sets.append(EMDMSet("V", sch.COMPUTED, computed_definition="all"))
    scheme.constraints.append(InclusionConstraint("V", "ROOMS"))


# One mutation of the teaching scheme for each check_scheme code, with the
# element its diagnostic names.
CHECK_CASES = [
    ("duplicate-set", "ROOMS", lambda m: m.sets.append(copy.deepcopy(m.set("ROOMS")))),
    ("unknown-set-kind", "ROOMS", lambda m: setattr(m.set("ROOMS"), "kind", "zzz")),
    ("missing-definition", "V", lambda m: m.sets.append(EMDMSet("V", sch.COMPUTED))),
    ("computed-set-structure", "V", lambda m: m.sets.append(
        EMDMSet("V", sch.COMPUTED, keys=[Key("R90", ("a", "b"))], computed_definition="all"))),
    ("missing-identifier", "ROOMS",
     lambda m: setattr(m.set("ROOMS"), "object_identifier", None)),
    ("identifier-flavor", "ROOMS",
     lambda m: setattr(_member(m, "ROOMS.x"), "flavor", sch.ATTRIBUTE)),
    ("identifier-flags", "ROOMS", lambda m: setattr(_member(m, "ROOMS.x"), "total", False)),
    ("identifier-codomain", "ROOMS",
     lambda m: setattr(_member(m, "ROOMS.x"), "codomain", NatRange(0))),
    ("duplicate-mapping", "ROOMS.Room#",
     lambda m: m.set("ROOMS").mappings.append(copy.deepcopy(_member(m, "ROOMS.Room#")))),
    ("role-codomain", "SCHEDULES.Room",
     lambda m: setattr(_member(m, "SCHEDULES.Room"), "codomain", AsciiRange(8))),
    ("role-totality", "SCHEDULES.Room",
     lambda m: setattr(_member(m, "SCHEDULES.Room"), "total", False)),
    ("stray-identifier", "ROOMS.Room#",
     lambda m: setattr(_member(m, "ROOMS.Room#"), "flavor", sch.OBJECT_IDENTIFIER)),
    ("unknown-flavor", "ROOMS.Room#", lambda m: setattr(_member(m, "ROOMS.Room#"), "flavor", "colour")),
    ("unknown-facet", "ROOMS.Room#",
     lambda m: _member(m, "ROOMS.Room#").source_labels.update(weird="R99")),
    ("unknown-facet", "ROOMS.x", lambda m: _member(m, "ROOMS.x").source_labels.update(weird="R99")),
    ("unresolved-codomain", "SCHEDULES.Room",
     lambda m: setattr(_member(m, "SCHEDULES.Room"), "codomain", "ROOMZ")),
    ("missing-codomain", "ROOMS.Room#",
     lambda m: setattr(_member(m, "ROOMS.Room#"), "codomain", None)),
    ("bad-range", "STUDENTS.Name", lambda m: setattr(_member(m, "STUDENTS.Name"), "codomain",
                                                     AsciiRange(0))),
    ("bad-range", "ATTENDANCES.Grade",
     lambda m: setattr(_member(m, "ATTENDANCES.Grade"), "codomain", NatRange(-4))),
    ("bad-range", "SCHEDULES.Weekday", lambda m: setattr(
        _member(m, "SCHEDULES.Weekday"), "codomain", Interval(IntBound(50), IntBound(9)))),
    ("bad-range", "CLASSES.Date", lambda m: setattr(
        _member(m, "CLASSES.Date"), "codomain",
        Interval(DateBound("02/10/2010"), DateBound("01/10/2010")))),
    ("bad-range", "STUDENTS.SSN", lambda m: setattr(
        _member(m, "STUDENTS.SSN"), "codomain", Interval(DateBound("soon"), DateBound("later")))),
    ("bad-range", "TEACHERS.SSN", lambda m: setattr(
        _member(m, "TEACHERS.SSN"), "codomain",
        Interval(IntBound(1), FuncBound("SysDate()\nB <-> NAT(1)")))),
    ("bad-range", "ROOMS.Room#", lambda m: setattr(
        _member(m, "ROOMS.Room#"), "codomain", Interval(IntBound(1), Pow10Bound(4300)))),
    ("definition-line-break", "V", lambda m: m.sets.append(
        EMDMSet("V", sch.COMPUTED, computed_definition="all\nB\n  x <-> NAT(1), total"))),
    ("definition-line-break", "ROOMS.Room#",
     lambda m: setattr(_member(m, "ROOMS.Room#"), "computed_definition", "a\u2028b")),
    ("definition-encoding", "V", lambda m: m.sets.append(
        EMDMSet("V", sch.COMPUTED, computed_definition="x\ud800y"))),
    ("role-signature", "SCHEDULES", lambda m: setattr(m.set("SCHEDULES"), "role_signature", ())),
    ("roles-on-entity", "ROOMS", lambda m: setattr(_member(m, "ROOMS.Room#"), "flavor", sch.ROLE)),
    ("singleton-key", "ROOMS.R90", lambda m: m.set("ROOMS").keys.append(Key("R90", ("Room#",)))),
    ("unresolved-key-mapping", "SCHEDULES.R90",
     lambda m: m.set("SCHEDULES").keys.append(Key("R90", ("Weekday", "Nope")))),
    ("duplicate-key", "SCHEDULES.R90",
     lambda m: m.set("SCHEDULES").keys.append(Key("R90", ("StartH", "Weekday", "Room")))),
    ("implicit-flag", "SCHEDULES.R33",
     lambda m: setattr(m.set("SCHEDULES").keys[0], "implicit", True)),
    ("bad-name", "SCHEDULES.",
     lambda m: m.set("SCHEDULES").keys.append(Key("", ("Weekday", "EndH")))),
    ("duplicate-label", "SCHEDULES.R32",
     lambda m: m.set("SCHEDULES").keys.append(Key("R32", ("Weekday", "EndH")))),
    ("self-inclusion", "constraint:inclusion:ROOMS<=ROOMS",
     lambda m: m.constraints.append(InclusionConstraint("ROOMS", "ROOMS"))),
    ("unresolved-inclusion", "constraint:inclusion:ROOMS<=NOPE",
     lambda m: m.constraints.append(InclusionConstraint("ROOMS", "NOPE"))),
    ("unresolved-set", "constraint:R37",
     lambda m: setattr(_constraint(m, "R37"), "set_name", "NOPE")),
    ("restriction-on-computed-set", "constraint:R37",
     lambda m: setattr(m.set("SCHEDULES"), "kind", sch.COMPUTED)),
    ("restriction-on-computed-set", "constraint:inclusion:V<=ROOMS", _include_computed),
    ("tuple-domain-mismatch", "constraint:R37",
     lambda m: setattr(_constraint(m, "R37"), "set_name", "ROOMS")),
    ("tuple-arity", "constraint:R37",
     lambda m: setattr(_constraint(m, "R37"), "formula", _constraint(m, "R41").formula)),
    ("formula-resolution", "constraint:R41", lambda m: setattr(
        _constraint(m, "R41"), "formula",
        parse_formula("(forall x in STUDENTS)(forall y in TEACHERS)(Nope(x) <> SSN(y))"))),
    ("empty-constraint", "constraint:R41",
     lambda m: vars(_constraint(m, "R41")).update(formula=None, informal=None)),
    ("nonrelational-arity", "constraint:R41",
     lambda m: setattr(_constraint(m, "R41"), "formula", _constraint(m, "R37").formula)),
    ("bad-name", "ROOMS\nB", lambda m: setattr(m.set("ROOMS"), "name", "ROOMS\nB")),
    ("bad-name", "ROOMS.Room# B", lambda m: setattr(_member(m, "ROOMS.Room#"), "name", "Room# B")),
    ("bad-name", "ROOMS.x\u2028", lambda m: setattr(_member(m, "ROOMS.x"), "name", "x\u2028")),
    ("bad-name", "SCHEDULES.R33\nB",
     lambda m: setattr(m.set("SCHEDULES").keys[0], "label", "R33\nB")),
    ("bad-name", "constraint:R41 B", lambda m: setattr(_constraint(m, "R41"), "label", "R41 B")),
    # R37 with its variable x renamed
    ("bad-name", "constraint:R37", lambda m: setattr(_constraint(m, "R37"), "formula", Forall(
        "x\nB", "SCHEDULES",
        Compare("<", Apply("StartH", Var("x\nB")), Apply("EndH", Var("x\nB")))))),
    ("missing-provenance", "set:STUDENTS", lambda m: m.provenance.pop("set:STUDENTS")),
    ("stray-provenance", "mapping:ROOMS.zz",
     lambda m: m.provenance.update({"mapping:ROOMS.zz": "set:ROOMS"})),
    # bounds and sizes that are not integers, which would raise or print unreadably
    ("bad-range", "SCHEDULES.StartH",
     _codomain("SCHEDULES.StartH", Interval(IntBound("1\nB"), IntBound(2)))),
    ("bad-range", "SCHEDULES.EndH",
     _codomain("SCHEDULES.EndH", Interval(IntBound("2\nB"), FuncBound("SysDate()")))),
    ("bad-range", "STUDENTS.Name",
     _codomain("STUDENTS.Name", Interval(IntBound(True), IntBound(True)))),
    ("bad-range", "DISCIPLINES.Discipline", _codomain("DISCIPLINES.Discipline", AsciiRange("3"))),
    ("bad-range", "TEACHERS.Name", _codomain("TEACHERS.Name", NatRange(2.5))),
    ("bad-range", "ROOMS.x", _codomain("ROOMS.x", NatRange(True))),
    ("bad-range", "STUDENTS.x", _codomain("STUDENTS.x", NatRange("3"))),
    # flags that are not true or false
    ("bad-flag", "ROOMS.Room#", lambda m: setattr(_member(m, "ROOMS.Room#"), "one_to_one", "yes")),
    ("bad-flag", "SCHEDULES.Weekday",
     lambda m: setattr(_member(m, "SCHEDULES.Weekday"), "one_to_one", 2)),
    ("bad-flag", "STUDENTS.Name", lambda m: setattr(_member(m, "STUDENTS.Name"), "total", "no")),
    ("bad-flag", "SCHEDULES.R33", lambda m: setattr(m.set("SCHEDULES").keys[0], "implicit", 0)),
    # operators and literals that the text reader would not read
    ("bad-formula", "constraint:R37", lambda m: setattr(_constraint(m, "R37"), "formula", Forall(
        "x", "SCHEDULES", Compare(">\nB", Apply("StartH", Var("x")), Literal(0))))),
    ("bad-formula", "constraint:R41", _r41(Binary("^", _SSN_DIFFER, _SSN_DIFFER))),
    ("bad-formula", "constraint:R41",
     _r41(Compare("<>", Apply("SSN", Var("x")), Literal(1.5)))),
    ("bad-formula", "constraint:R41",
     _r41(Compare("<>", Apply("SSN", Var("x")), Literal(True)))),
    # text that UTF-8 cannot encode, which the text output would print
    ("bad-formula", "constraint:R41",
     _r41(Compare("<>", Apply("SSN", Var("x")), Literal("z\ud800")))),
    ("informal-encoding", "constraint:R41",
     lambda m: vars(_constraint(m, "R41")).update(formula=None, informal="x\ud800y")),
    # integers longer than the text reader reads, which str() would refuse to print
    ("bad-range", "SCHEDULES.Room",
     _codomain("SCHEDULES.Room", Interval(IntBound(1), IntBound(10 ** 4300)))),
    ("bad-range", "SCHEDULES.Competence", _codomain("SCHEDULES.Competence", AsciiRange(10 ** 5000))),
    ("bad-range", "TEACHERS.x", _codomain("TEACHERS.x", NatRange(-10 ** 4300))),
    ("bad-formula", "constraint:R37", lambda m: setattr(_constraint(m, "R37"), "formula", Forall(
        "x", "SCHEDULES", Compare("<", Apply("StartH", Var("x")), Literal(10 ** 4300))))),
    # codomains and bounds of no range or bound class
    ("bad-range", "COMPETENCES.Teacher", _codomain("COMPETENCES.Teacher", 5)),
    ("bad-range", "COMPETENCES.Discipline", _codomain("COMPETENCES.Discipline", Interval(3, 5))),
    ("bad-range", "ATTENDANCES.Student", _codomain("ATTENDANCES.Student", IntBound(3))),
    ("bad-range", "ATTENDANCES.Class",
     _codomain("ATTENDANCES.Class", Interval(AsciiRange(3), IntBound(5)))),
    # names, labels, definitions and sources that are not text
    ("bad-name", 5, lambda m: setattr(m.set("ROOMS"), "name", 5)),
    ("bad-name", "ROOMS.5", lambda m: setattr(_member(m, "ROOMS.Room#"), "name", 5)),
    ("bad-name", "SCHEDULES.5", lambda m: setattr(m.set("SCHEDULES").keys[0], "label", 5)),
    ("bad-name", "constraint:5", lambda m: setattr(_constraint(m, "R41"), "label", 5)),
    ("definition-encoding", "ROOMS.Room#",
     lambda m: setattr(_member(m, "ROOMS.Room#"), "computed_definition", 5)),
    ("definition-encoding", "V",
     lambda m: m.sets.append(EMDMSet("V", sch.COMPUTED, computed_definition=5))),
    ("stray-provenance", "set:STUDENTS", lambda m: m.provenance.update({"set:STUDENTS": 5})),
    ("bad-name", "constraint:R37", lambda m: setattr(_constraint(m, "R37"), "formula", Forall(
        5, "SCHEDULES", Compare("<", Apply("StartH", Var(5)), Apply("EndH", Var(5)))))),
    # values that do not hash, which the gate reports and never looks up
    ("bad-name", ["A"], lambda m: setattr(m.set("ROOMS"), "name", ["A"])),
    ("bad-name", "ROOMS.['A']", lambda m: setattr(_member(m, "ROOMS.Room#"), "name", ["A"])),
    ("bad-name", "SCHEDULES.['A']",
     lambda m: setattr(m.set("SCHEDULES").keys[0], "label", ["A"])),
    ("unresolved-key-mapping", "SCHEDULES.R33",
     lambda m: setattr(m.set("SCHEDULES").keys[0], "mappings", (["A"], "Weekday", "StartH"))),
    ("bad-name", "constraint:['A']", lambda m: setattr(_constraint(m, "R41"), "label", ["A"])),
    ("unresolved-inclusion", "constraint:inclusion:ROOMS<=['A']",
     lambda m: m.constraints.append(InclusionConstraint("ROOMS", ["A"]))),
    ("unresolved-set", "constraint:R37",
     lambda m: setattr(_constraint(m, "R37"), "set_name", ["A"])),
    ("bad-name", "constraint:R37", lambda m: setattr(_constraint(m, "R37"), "formula", Forall(
        ["A"], "SCHEDULES", Compare("<", Apply("StartH", Var(["A"])), Apply("EndH", Var(["A"])))))),
    ("formula-resolution", "constraint:R37", lambda m: setattr(_constraint(m, "R37"), "formula",
        Forall("x", ["A"], Compare("<", Apply("StartH", Var("x")), Apply("EndH", Var("x")))))),
    ("formula-resolution", "constraint:R37", lambda m: setattr(_constraint(m, "R37"), "formula",
        Forall("x", "SCHEDULES", Compare("<", Apply("StartH", Var(["A"])), Apply("EndH", Var("x")))))),
]


@pytest.mark.parametrize("code, element, mutate", CHECK_CASES, ids=[
    # a code's first case is named by the code alone, a later one by its element too
    code if code not in [c[0] for c in CHECK_CASES[:i]] else f"{code}:{element}"
    for i, (code, element, _) in enumerate(CHECK_CASES)
])
def test_check_scheme_names_the_element_of_each_code(golden_scheme, code, element, mutate):
    mutated = copy.deepcopy(golden_scheme)
    mutate(mutated)
    found = [(d.code, d.element) for d in check_scheme(mutated) if d.code == code]
    assert found == [(code, element)]


def test_check_scheme_resolves_names_as_the_scheme_stands():
    # A set renamed in place: references by its old name no longer resolve.
    scheme = translate(parse_model(
        "diagram D { entity A card 10 { attr v } entity B card 10 { attr w fn f -> A } }"
    )).scheme
    scheme.set("A").name = "Z"
    scheme.provenance = {
        ref.replace(":A", ":Z", 1) if ref_owner(ref) == "A" else ref: source
        for ref, source in scheme.provenance.items()
    }
    assert [(d.code, d.element) for d in check_scheme(scheme)] == [("unresolved-codomain", "B.f")]
    with pytest.raises(EmitError):
        emit_text(scheme)


def test_check_scheme_flags_a_reused_constraint_label(golden_scheme):
    mutated = copy.deepcopy(golden_scheme)
    mutated.constraints.append(copy.deepcopy(_constraint(mutated, "R37")))
    found = [(d.code, d.element) for d in check_scheme(mutated) if d.code == "duplicate-label"]
    assert found == [("duplicate-label", "constraint:R37")]


def test_every_check_scheme_code_has_a_case():
    source = Path(sch.__file__).read_text(encoding="utf-8")
    codes = set(re.findall(r'\bbad\("([^"]+)"', source))
    assert codes and codes <= {code for code, _, _ in CHECK_CASES}
