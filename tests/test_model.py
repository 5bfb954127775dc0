from __future__ import annotations

import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import erdmc.model
from erdmc.model import (
    AsciiRange,
    Attribute,
    CardinalityBody,
    CompulsoryBody,
    DateBound,
    Diagram,
    ERModel,
    FuncBound,
    InclusionBody,
    IntBound,
    Interval,
    NatRange,
    ObjectSet,
    OtherBody,
    Pow10Bound,
    Range,
    RangeBody,
    Restriction,
    Role,
    UniquenessBody,
    validate_model,
)
from erdmc.parser import parse_model


def test_teaching_model_validates_clean(teaching_model):
    assert validate_model(teaching_model) == []


def test_empty_model_validates_clean():
    assert validate_model(ERModel()) == []


def test_dangling_role_target_yields_single_error(teaching_source):
    broken = teaching_source.replace("role Class -> CLASSES", "role Class -> CLASES")
    model = parse_model(broken)
    errors = validate_model(model).errors
    assert len(errors) == 1
    assert errors[0].code == "unresolved-set"
    assert "CLASES" in errors[0].message


def test_validate_is_idempotent(teaching_model):
    assert validate_model(teaching_model) == validate_model(teaching_model)


def _restriction(teaching_model, label: str) -> Restriction:
    return next(r for r in teaching_model.restrictions if r.label == label)


def test_teaching_restriction_census(teaching_model):
    # The paper's counts: 19 ranges (8 cardinalities, 11 attribute ranges),
    # 8 compulsory, 9 uniqueness and 5 other restrictions.
    counts = Counter(type(r.body) for r in teaching_model.restrictions)
    assert counts == {CardinalityBody: 8, RangeBody: 11, CompulsoryBody: 8,
                      UniquenessBody: 9, OtherBody: 5}


def _single_set_model(s: ObjectSet, restrictions=(), extra_sets=()) -> ERModel:
    return ERModel(
        diagrams=(Diagram("d", (s, *extra_sets)),), restrictions=tuple(restrictions)
    )


def test_relationship_without_roles_is_an_error():
    model = _single_set_model(ObjectSet(name="LINK", kind="relationship"))
    assert any(e.code == "relationship-without-roles" for e in validate_model(model).errors)


def test_single_role_relationship_is_a_warning_not_an_error():
    other = ObjectSet(name="A", kind="entity")
    model = _single_set_model(
        ObjectSet(name="LINK", kind="relationship", roles=(Role("r1", "A"),)),
        extra_sets=(other,),
    )
    issues = validate_model(model)
    assert validate_model(model).errors == []
    assert any(i.code == "relationship-single-role" for i in issues)


def test_computed_set_may_not_declare_members():
    model = _single_set_model(ObjectSet(
        name="V", kind="computed", attributes=(Attribute("a"),),
        computed_definition="whatever",
    ))
    assert any(e.code == "computed-set-structure" for e in validate_model(model).errors)


def test_restrictions_may_not_target_computed_sets():
    model = _single_set_model(
        ObjectSet(name="V", kind="computed", computed_definition="whatever"),
        restrictions=[Restriction("R01", "V", CardinalityBody(10))],
    )
    assert any(e.code == "restriction-on-computed-set" for e in validate_model(model).errors)


def test_duplicate_range_declaration_is_an_error():
    s = ObjectSet(name="A", kind="entity",
                  attributes=(Attribute("a", Interval(IntBound(1), IntBound(5))),))
    model = _single_set_model(s, restrictions=[
        Restriction("R01", "A", RangeBody("a", Interval(IntBound(1), IntBound(9)))),
    ])
    assert any(e.code == "duplicate-range" for e in validate_model(model).errors)


def test_interval_with_inverted_static_bounds_is_an_error():
    s = ObjectSet(name="A", kind="entity",
                  attributes=(Attribute("a", Interval(IntBound(9), IntBound(1))),))
    assert any(e.code == "bad-range" for e in validate_model(_single_set_model(s)).errors)


def test_compulsory_naming_unknown_mapping_is_an_error():
    s = ObjectSet(name="A", kind="entity", attributes=(Attribute("a"),))
    model = _single_set_model(s, restrictions=[
        Restriction("R01", "A", CompulsoryBody(("nope",))),
    ])
    assert any(e.code == "unknown-mapping" for e in validate_model(model).errors)


def test_identical_uniqueness_twice_is_an_error():
    s = ObjectSet(name="A", kind="entity", attributes=(Attribute("a"), Attribute("b")))
    model = _single_set_model(s, restrictions=[
        Restriction("R01", "A", UniquenessBody(("a", "b"))),
        Restriction("R02", "A", UniquenessBody(("b", "a"))),
    ])
    assert any(e.code == "duplicate-key" for e in validate_model(model).errors)


def test_reserved_identifier_name_is_rejected():
    s = ObjectSet(name="A", kind="entity", attributes=(Attribute("x"),))
    assert any(e.code == "reserved-identifier" for e in validate_model(_single_set_model(s)).errors)


def test_tuple_formula_domain_must_match_target(teaching_model):
    r37 = _restriction(teaching_model, "R37")
    mismatched = Restriction("R99", "CLASSES", r37.body)
    model = replace(
        teaching_model, restrictions=teaching_model.restrictions + (mismatched,)
    )
    assert any(e.code == "tuple-domain-mismatch" for e in validate_model(model).errors)


def test_other_restriction_needs_informal_or_formal():
    s = ObjectSet(name="A", kind="entity")
    model = _single_set_model(s, restrictions=[
        Restriction("R01", "A", OtherBody(None, None)),
    ])
    assert any(e.code == "empty-restriction" for e in validate_model(model).errors)


def _dsl(sets: str = "", restrictions: str = "") -> str:
    """Source of sets A (members a, b) and B (member b) in one diagram with *sets* added."""
    return (
        f"diagram D {{ entity A {{ attr a attr b }} entity B {{ attr b }} {sets} }}\n"
        + restrictions
    )


_A, _B, _C = (ObjectSet(name=name, kind="entity") for name in "ABC")


def _ranged(attr: str, rng: Range) -> ERModel:
    """Set A with the one attribute *attr*, ranged over *rng*."""
    return _single_set_model(ObjectSet(name="A", kind="entity",
                                       attributes=(Attribute(attr, rng),)))


# One model for each validate_model code, with the element its diagnostic
# names; each model draws that diagnostic and no other. A model is its DSL
# source text, or built directly where the DSL cannot write it.
VALIDATE_CASES = [
    ("duplicate-set-name", "A", _dsl("entity A { }")),
    ("duplicate-label", "R1",
     _dsl(restrictions="restriction R1 on A compulsory a\nrestriction R1 on A unique a\n")),
    ("unresolved-set", "R1", _dsl(restrictions="restriction R1 on Z compulsory a\n")),
    ("unresolved-set", "C.f", _dsl("entity C { fn f -> Z }")),
    ("unresolved-set", "C", _dsl("entity C subset_of Z { }")),
    ("unresolved-set", "R1", _dsl(restrictions="restriction R1 on A subset_of Z\n")),
    ("unresolved-set", "R1", _dsl(restrictions=(
        "restriction R1 on A other formal (forall x in A)(forall y in Z)(a(x) = b(y))\n"))),
    ("restriction-on-computed-set", "R1",
     _dsl('computed V = "all" { }', "restriction R1 on V card 5\n")),
    ("restriction-on-computed-set", "R1",
     _dsl('computed V = "all" { }', "restriction R1 on V other formal (forall v in V)(v = v)\n")),
    ("duplicate-range", "A.a", _dsl(restrictions=(
        "restriction R1 on A range a ascii(3)\nrestriction R2 on A range a nat(2)\n"))),
    ("duplicate-cardinality", "C", _dsl("entity C card 5 { }", "restriction R1 on C card 6\n")),
    ("duplicate-inclusion", "C",
     _dsl("entity C subset_of A { }", "restriction R1 on C subset_of A\n")),
    ("duplicate-key", "A",
     _dsl(restrictions="restriction R1 on A unique a, b\nrestriction R2 on A unique b, a\n")),
    ("reserved-identifier", "C.x", _dsl("entity C { attr x }")),
    ("duplicate-member", "C.c", _dsl("entity C { attr c attr c }")),
    ("duplicate-member", "R1", _dsl(restrictions="restriction R1 on A compulsory a, b, a\n")),
    ("reference-collision", "C.c#total", _dsl("entity C { attr c attr c#total }")),
    ("relationship-without-roles", "L", _dsl("relationship L { }")),
    ("relationship-single-role", "L", _dsl("relationship L { role r -> A }")),
    ("roles-on-non-relationship", "C", _dsl("entity C { role r -> A }")),
    ("computed-set-structure", "V", _dsl('computed V = "all" { attr v }')),
    ("computed-set-cardinality", "V", _dsl('computed V card 5 = "all" { }')),
    ("definition-line-break", "C.c", _dsl('entity C { attr c computed = "one\\ntwo" }')),
    # a lone surrogate, which the text reader would not give
    ("definition-encoding", "A.c", _single_set_model(ObjectSet(
        name="A", kind="entity", attributes=(Attribute("c", None, "x\ud800y"),)))),
    ("computed-attribute-range", "C.c", _dsl('entity C { attr c : ascii(3) computed = "x" }')),
    ("computed-attribute-range", "R1",
     _dsl('entity C { attr c computed = "x" }', "restriction R1 on C range c nat(2)\n")),
    ("self-inclusion", "C", _dsl("entity C subset_of C { }")),
    ("bad-cardinality", "C", _dsl("entity C card 0 { }")),
    ("bad-cardinality", "R1", _dsl(restrictions="restriction R1 on A card 0\n")),
    ("bad-range", "C.c", _dsl("entity C { attr c : [9, 1] }")),
    ("bad-range", "C.c", _dsl("entity C { attr c : ascii(0) }")),
    ("bad-range", "C.c", _dsl("entity C { attr c : nat(0) }")),
    ("bad-range", "C.c", _dsl("entity C { attr c : [02/01/2000, 01/01/2000] }")),
    ("unknown-mapping", "R1", _dsl(restrictions="restriction R1 on A compulsory z\n")),
    ("unknown-mapping", "R1", _dsl(restrictions="restriction R1 on A range z ascii(3)\n")),
    ("empty-restriction", "R1", _dsl(restrictions="restriction R1 on A other\n")),
    ("empty-restriction", "R2", _dsl(restrictions='restriction R2 on A other informal ""\n')),
    ("tuple-domain-mismatch", "R1",
     _dsl(restrictions="restriction R1 on A other formal (forall x in B)(b(x) = 1)\n")),
    ("definition-on-non-computed-set", "C", _dsl('entity C = "all rooms" { }')),
    ("definition-on-non-computed-set", "L",
     _dsl('relationship L = "pairs" { role p -> A role q -> B }')),
    ("unquantified-formula", "R1", _dsl(restrictions="restriction R1 on A other formal 1 = 1\n")),
    ("empty-mappings", "R1",
     _single_set_model(_A, restrictions=[Restriction("R1", "A", CompulsoryBody(()))])),
    ("inclusion-target-mismatch", "R1", _single_set_model(
        _A, restrictions=[Restriction("R1", "A", InclusionBody("B", "C"))], extra_sets=(_B, _C),
    )),
    # bounds that the text reader would not give
    ("bad-range", "A.d", _ranged("d", Interval(DateBound("soon"), DateBound("later")))),
    ("bad-range", "A.f", _ranged("f", Interval(IntBound(1), FuncBound("SysDate()\nB <-> NAT(1)")))),
    ("bad-range", "A.p", _ranged("p", Interval(IntBound(1), Pow10Bound(4300)))),
    # bounds and sizes that are not integers
    ("bad-range", "A.i", _ranged("i", Interval(IntBound("1\nB"), IntBound(2)))),
    ("bad-range", "A.j", _ranged("j", Interval(IntBound("2\nB"), FuncBound("SysDate()")))),
    ("bad-range", "A.t", _ranged("t", Interval(IntBound(True), IntBound(True)))),
    ("bad-range", "A.s", _ranged("s", AsciiRange("3"))),
    ("bad-range", "A.n", _ranged("n", NatRange(2.5))),
    # integers longer than the text reader reads
    ("bad-range", "A.b", _ranged("b", Interval(IntBound(1), IntBound(10 ** 4300)))),
    ("bad-range", "A.l", _ranged("l", AsciiRange(10 ** 5000))),
    # ranges and bounds of no range or bound class
    ("bad-range", "A.c", _ranged("c", 5)),
    ("bad-range", "A.u", _ranged("u", Interval(3, 5))),
    ("bad-range", "A.q", _ranged("q", IntBound(3))),
]


@pytest.mark.parametrize("code, element, model", VALIDATE_CASES,
                         ids=[f"{code}@{element}" for code, element, _ in VALIDATE_CASES])
def test_validate_model_names_the_element_of_each_code(code, element, model):
    if isinstance(model, str):
        model = parse_model(model)
    assert [(d.code, d.element) for d in validate_model(model)] == [(code, element)]


def test_every_validate_model_code_has_a_case():
    source = Path(erdmc.model.__file__).read_text(encoding="utf-8")
    codes = set(re.findall(r'\berr\(\s*"([^"]+)"', source))
    assert len(codes) >= 20
    assert codes <= {code for code, _, _ in VALIDATE_CASES}
