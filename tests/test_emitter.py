from __future__ import annotations

import ast
import copy
import functools
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import erdmc.emitter

from erdmc.emitter import (
    EmitError,
    StructuredFormatError,
    emit_structured,
    emit_text,
    encode_report,
    load_structured,
)
from erdmc.formula import (
    MAX_FORMULA_DEPTH,
    Apply,
    Binary,
    Compare,
    Forall,
    Literal,
    Var,
    format_formula,
    parse_formula,
)
from erdmc.generator import random_model
from erdmc.lexer import STRING
from erdmc.model import AsciiRange, FuncBound, IntBound, Interval, NatRange
from erdmc.parser import parse_model
from erdmc.scheme import (
    EMDMScheme, InclusionConstraint, TupleConstraint, check_scheme, ref_constraint,
)
from erdmc.translator import translate
from test_lexer import token_tuples
from test_parser import _literal_patterns


@pytest.fixture(scope="module")
def golden(teaching_model):
    result = translate(teaching_model)
    assert result.scheme is not None
    return result


def test_golden_text_matches_fixture(golden, golden_scheme_text):
    assert emit_text(golden.scheme) == golden_scheme_text


def test_students_block_lines(golden):
    text = emit_text(golden.scheme)
    block = text.split("\n\n")[0].splitlines()
    assert block == [
        "STUDENTS",
        "  x <-> NAT(5), total",
        "  SSN <-> [1000101000000, 8991231999999], total",
        "  Name -> ASCII(255), total",
    ]


def test_schedules_block_has_keys_and_tuple_but_not_generated_key(golden):
    text = emit_text(golden.scheme)
    assert "R33: Room . Weekday . StartH key" in text
    assert "R34: Room . Weekday . EndH key" in text
    assert "R37: (forall x in SCHEDULES)(StartH(x) < EndH(x))" in text
    assert "R42" not in text
    assert "R35" not in text  # implicit keys stay out of the text form
    assert "R36" not in text


def test_empty_scheme_renders_empty():
    assert emit_text(EMDMScheme()) == ""


def test_unicode_rendering(golden):
    text = emit_text(golden.scheme, unicode=True)
    assert "x ↔ NAT(5), total" in text
    assert "Room → ROOMS" in text
    assert "R33: Room • Weekday • StartH key" in text
    assert "∀" in text and "≠" in text


def test_emit_refuses_unsound_scheme(golden):
    broken = copy.deepcopy(golden.scheme)
    broken.set("SCHEDULES").mapping("Room").codomain = "ROOMZ"
    with pytest.raises(EmitError):
        emit_text(broken)


def test_inclusion_renders_under_header():
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
    text = emit_text(result.scheme)
    lines = text.splitlines()
    header = lines.index("TEACHERS")
    assert lines[header + 1] == "  TEACHERS subset_of EMPLOYEES"


def test_informal_text_is_escaped_the_way_the_lexer_reads_it():
    informal = 'back\\slash "quoted" two\nlines\tand tab'
    source = (
        "diagram D { entity A card 10 { attr a } }\n"
        "restriction R01 on A compulsory a\n"
        "restriction R02 on A unique a\n"
        'restriction R03 on A other informal "back\\\\slash \\"quoted\\" two\\nlines\\tand tab"\n'
    )
    result = translate(parse_model(source))
    last = emit_text(result.scheme).splitlines()[-1]
    assert last == 'R03: informal "back\\\\slash \\"quoted\\" two\\nlines\\tand tab"'
    assert [value for kind, value, _ in token_tuples(last) if kind == STRING] == [informal]


def test_informal_line_breaks_print_as_u_escapes():
    informal = "p\u2028q\vr\x85s"
    source = (
        "diagram D { entity A card 10 { attr a } }\n"
        "restriction R01 on A compulsory a\n"
        "restriction R02 on A unique a\n"
        f'restriction R03 on A other informal "{informal}"\n'
    )
    result = translate(parse_model(source))
    last = emit_text(result.scheme).splitlines()[-1]
    assert last == 'R03: informal "p\\u2028q\\u000br\\u0085s"'
    assert [value for kind, value, _ in token_tuples(last) if kind == STRING] == [informal]


# --- structured round-trip ---


def test_structured_round_trip_golden(golden):
    loaded = load_structured(emit_structured(golden.scheme))
    assert loaded == golden.scheme


def test_structured_round_trip_empty():
    assert load_structured(emit_structured(EMDMScheme())) == EMDMScheme()


def test_structured_keeps_generated_key(golden):
    doc = json.loads(emit_structured(golden.scheme))
    schedules = next(s for s in doc["sets"] if s["name"] == "SCHEDULES")
    r42 = next(k for k in schedules["keys"] if k["label"] == "R42")
    assert r42["implicit"] is True
    assert r42["mappings"] == ["Room", "Competence"]
    assert doc["provenance"]["key:SCHEDULES.R42"] == "enrichment:vii"


def test_structured_includes_report_when_given(golden):
    doc = json.loads(emit_structured(golden.scheme, encode_report(golden.report)))
    assert doc["report"]["tallies"]["total"] == 57
    inventory = {e["label"]: e["origin"] for e in doc["report"]["implicit_keys"]}
    assert inventory["R42"] == "generated"
    assert inventory["R35"] == "declared-absorbed"


def test_unknown_version_is_rejected_naming_the_field(golden):
    doc = json.loads(emit_structured(golden.scheme))
    doc["version"] = 99
    with pytest.raises(StructuredFormatError) as info:
        load_structured(json.dumps(doc))
    assert "version" in str(info.value)


def test_unknown_top_level_field_is_ignored(golden):
    doc = json.loads(emit_structured(golden.scheme))
    doc["extras"] = {"note": "future"}
    assert load_structured(json.dumps(doc)) == golden.scheme


def test_bad_formula_names_the_constraint_path(golden):
    doc = json.loads(emit_structured(golden.scheme))
    i = next(i for i, c in enumerate(doc["constraints"]) if c["kind"] == "tuple")
    too_deep = "(forall x in A)(" + "!" * MAX_FORMULA_DEPTH + "x = 1)"
    for formula in ("(forall x in", too_deep):
        doc["constraints"][i]["formula"] = formula
        with pytest.raises(StructuredFormatError) as info:
            load_structured(json.dumps(doc))
        assert info.value.path == f"$.constraints[{i}]"
        assert str(info.value).startswith(f"$.constraints[{i}]: malformed tuple constraint: ")
    assert str(info.value).endswith(f": formula nested deeper than {MAX_FORMULA_DEPTH} levels")


def test_formula_text_literals_round_trip_through_text_and_structured_forms():
    source = (
        "diagram D { entity A card 10 { attr a : ASCII(8) } }\n"
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
        'restriction R03 on A other formal (forall x in A)(a(x) <> "p\\nq\\r\\t\\\\ \\"r\\"")\n'
        'restriction R04 on A other formal (forall x, y in A)(a(x) <> "p\\nq")\n'
    )
    result = translate(parse_model(source))
    assert result.scheme is not None
    lines = emit_text(result.scheme).splitlines()
    assert '  R03: (forall x in A)(a(x) <> "p\\nq\\r\\t\\\\ \\"r\\"")' in lines
    assert 'R04: (forall x, y in A)(a(x) <> "p\\nq")' in lines
    formulas = [c.formula for c in result.scheme.constraints if c.label in ("R03", "R04")]
    assert formulas[0].body.rhs.value == 'p\nq\r\t\\ "r"'
    for formula in formulas:
        assert parse_formula(format_formula(formula)) == formula
    structured = emit_structured(result.scheme, encode_report(result.report))
    assert load_structured(structured) == result.scheme


def test_malformed_json_reports_position():
    with pytest.raises(StructuredFormatError) as info:
        load_structured("{ not json")
    assert "line" in str(info.value)


def test_structured_round_trip_fuzzed_schemes():
    for seed in range(30):
        result = translate(random_model(seed))
        assert result.scheme is not None, seed
        assert load_structured(emit_structured(result.scheme)) == result.scheme


def _loaded_document(source: str) -> dict:
    result = translate(parse_model(source))
    assert result.scheme is not None
    return json.loads(emit_structured(result.scheme))


def _members(doc: dict, set_name: str) -> dict:
    (s,) = [s for s in doc["sets"] if s["name"] == set_name]
    return {m["name"]: m for m in s["mappings"]}


def test_loaded_mappings_print_codomain_then_definition_then_totality():
    doc = _loaded_document(
        'diagram D { entity A card 10 { attr v attr c computed = "v + 1" '
        'fn f -> A computed = "g" } }\n'
        "restriction R1 on A compulsory v\n"
        "restriction R2 on A unique v\n"
    )
    members = _members(doc, "A")
    members["f"]["codomain"] = None
    members["c"]["codomain"] = {"kind": "ascii", "length": 8}
    members["c"]["total"] = True
    scheme = load_structured(json.dumps(doc))
    assert check_scheme(scheme) == []
    assert emit_text(scheme).splitlines()[1:] == [
        "  x <-> NAT(1), total",
        "  v <-> ASCII(255), total",
        "  c -> ASCII(8) = v + 1, total",
        "  f = g",
    ]


def test_loaded_codomains_that_hold_no_value_are_refused():
    doc = _loaded_document("diagram D { entity A card 10 { attr a attr b attr c } }")
    members = _members(doc, "A")
    members["a"]["codomain"] = {"kind": "ascii", "length": 0}
    members["b"]["codomain"] = {"kind": "interval", "lo": {"kind": "int", "value": 50},
                                "hi": {"kind": "int", "value": 9}}
    members["c"]["codomain"] = {"kind": "nat", "digits": -4}
    scheme = load_structured(json.dumps(doc))
    expected = [("bad-range", "A.a"), ("bad-range", "A.b"), ("bad-range", "A.c")]
    assert [(d.code, d.element) for d in check_scheme(scheme)] == expected
    with pytest.raises(EmitError) as info:
        emit_text(scheme)
    assert [(d.code, d.element) for d in info.value.diagnostics] == expected


def test_loaded_definitions_that_break_their_line_are_refused():
    # The set definition would print a forged block B with its own identifier.
    doc = _loaded_document(
        'diagram D { entity A card 10 { attr a computed = "1" } computed V = "all" { } }')
    _members(doc, "A")["a"]["computed_definition"] = "1\u2028b"
    (v,) = [s for s in doc["sets"] if s["name"] == "V"]
    v["computed_definition"] = "all\nB\n  x <-> NAT(1), total"
    scheme = load_structured(json.dumps(doc))
    expected = [("definition-line-break", "V"), ("definition-line-break", "A.a")]
    assert [(d.code, d.element) for d in check_scheme(scheme)] == expected
    with pytest.raises(EmitError, match="definition-line-break: computed definition of V"):
        emit_text(scheme)


def test_loaded_bounds_at_the_text_reader_limits_are_checked_and_printed():
    doc = _loaded_document("diagram D { entity A card 10 { attr a attr b } }")
    members = _members(doc, "A")
    year = "9" * 4300
    members["a"]["codomain"] = {"kind": "interval", "lo": {"kind": "pow10", "exponent": 4299},
                                "hi": {"kind": "int", "value": 5}}
    members["b"]["codomain"] = {"kind": "interval",
                                "lo": {"kind": "date", "text": f"1/1/{year}"},
                                "hi": {"kind": "date", "text": "1/1/2000"}}
    scheme = load_structured(json.dumps(doc))
    assert [(d.code, d.element) for d in check_scheme(scheme)] == [
        ("bad-range", "A.a"), ("bad-range", "A.b")]
    members["a"]["codomain"]["hi"] = {"kind": "pow10", "exponent": 4299}
    members["b"]["codomain"]["hi"]["text"] = f"2/1/{year}"
    scheme = load_structured(json.dumps(doc))
    assert check_scheme(scheme) == []
    assert emit_text(scheme).splitlines()[2:4] == [
        "  a -> [10^4299, 10^4299]", f"  b -> [1/1/{year}, 2/1/{year}]"]


def test_provenance_naming_no_scheme_element_is_stray():
    doc = _loaded_document(
        "diagram D { entity A card 10 { attr v } }\n"
        "restriction R1 on A compulsory v\n"
    )
    doc["provenance"]["set:Z"] = "set:Z"
    doc["provenance"]["mapping:Z.v#total"] = "restriction:R1"
    doc["provenance"]["key:Z.R9"] = "restriction:R9"
    doc["provenance"]["constraint:R9"] = "restriction:R9"
    # A member or key that set A does not hold is no element either.
    doc["provenance"]["mapping:A.zz"] = "restriction:R1"
    doc["provenance"]["key:A.R77"] = "restriction:R1"
    doc["provenance"]["mapping:A.zz#total"] = "restriction:R1"
    scheme = load_structured(json.dumps(doc))
    assert [(d.code, d.element) for d in check_scheme(scheme)] == [
        ("stray-provenance", ref)
        for ref in ("set:Z", "mapping:Z.v#total", "key:Z.R9", "constraint:R9",
                    "mapping:A.zz", "key:A.R77", "mapping:A.zz#total")
    ]
    with pytest.raises(EmitError, match="stray-provenance"):
        emit_text(scheme)


def _ranged_scheme() -> EMDMScheme:
    result = translate(parse_model(
        "diagram D { entity A card 10 { attr v : [0, 5] } }\n"
        "restriction R1 on A other formal (forall x in A)(v(x) > 0)\n"
    ))
    assert result.scheme is not None
    return result.scheme


_V_ABOVE_0 = Compare(">", Apply("v", Var("x")), Literal(0))


@pytest.mark.parametrize("code, part, field, value", [
    ("bad-range", "A.v", "codomain", Interval(IntBound("1\nB"), IntBound(2))),
    ("bad-range", "A.v", "codomain", AsciiRange("3")),
    ("bad-range", "A.v", "codomain", Interval(IntBound("2\nB"), FuncBound("SysDate()"))),
    ("bad-range", "A.v", "codomain", Interval(IntBound(True), IntBound(True))),
    ("bad-range", "A.v", "codomain", NatRange(2.5)),
    ("bad-range", "A.x", "codomain", NatRange(True)),
    ("bad-flag", "A.v", "one_to_one", "yes"),
    ("bad-flag", "A.v", "one_to_one", 2),
    ("bad-flag", "A.v", "total", "no"),
    ("bad-formula", "R1", "formula",
     Forall("x", "A", Compare(">\nB", Apply("v", Var("x")), Literal(0)))),
    ("bad-formula", "R1", "formula", Forall("x", "A", Binary("^", _V_ABOVE_0, _V_ABOVE_0))),
    ("bad-formula", "R1", "formula",
     Forall("x", "A", Compare(">", Apply("v", Var("x")), Literal(1.5)))),
    ("bad-formula", "R1", "formula",
     Forall("x", "A", Compare(">", Apply("v", Var("x")), Literal(True)))),
])
def test_values_of_the_wrong_type_are_refused_not_printed(code, part, field, value):
    # Each would raise in emit_text, or print a line that reads back as something else.
    scheme = _ranged_scheme()
    if part == "R1":
        (target,) = scheme.constraints
        element = "constraint:R1"
    else:
        target = scheme.set("A").mapping(part.partition(".")[2])
        element = part
    setattr(target, field, value)
    assert [(d.code, d.element) for d in check_scheme(scheme)] == [(code, element)]
    with pytest.raises(EmitError, match=code):
        emit_text(scheme)


@functools.cache
def _every_codomain_scheme() -> EMDMScheme:
    source = (Path(__file__).parent / "fixtures" / "every_codomain.erdm").read_text(encoding="utf-8")
    result = translate(parse_model(source))
    assert result.scheme is not None
    return result.scheme


def _formula_nodes(scheme: EMDMScheme, kind: type) -> list:
    """Each node of *kind* in the formulas of *scheme*'s constraints."""
    found = []

    def walk(node) -> None:
        if isinstance(node, kind):
            found.append(node)
        for part in ("body", "left", "right", "lhs", "rhs", "argument"):
            if (child := getattr(node, part, None)) is not None:
                walk(child)

    for c in scheme.constraints:
        if getattr(c, "formula", None) is not None:
            walk(c.formula)
    return found


# Each field that check_scheme compares or looks up by name, as its (holder, attribute) pairs;
# an int attribute is a position in a key's mappings. An inclusion may have no label, and
# setting None there would change nothing, so only labels that are set count.
_NAMED_FIELDS = {
    "set name": lambda s: [(t, "name") for t in s.sets],
    "mapping name": lambda s: [(m, "name") for t in s.sets
                               for m in [t.object_identifier, *t.mappings] if m is not None],
    "key label": lambda s: [(k, "label") for t in s.sets for k in t.keys],
    "key mapping": lambda s: [(k, i) for t in s.sets for k in t.keys for i in range(len(k.mappings))],
    "constraint label": lambda s: [(c, "label") for c in s.constraints if c.label is not None],
    "inclusion endpoint": lambda s: [(c, end) for c in s.constraints
                                     if isinstance(c, InclusionConstraint)
                                     for end in ("subset", "superset")],
    "tuple set": lambda s: [(c, "set_name") for c in s.constraints if isinstance(c, TupleConstraint)],
    "quantified variable": lambda s: [(q, "variable") for q in _formula_nodes(s, Forall)],
    "quantifier domain": lambda s: [(q, "domain") for q in _formula_nodes(s, Forall)],
    "variable name": lambda s: [(v, "name") for v in _formula_nodes(s, Var)],
}


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(sorted(_NAMED_FIELDS)),
       value=st.sampled_from([None, True, 5, 1.5, "a b", [], ["A"], {}]),
       pick=st.integers(min_value=0, max_value=100))
def test_a_name_field_holding_no_name_is_reported_never_raised(field, value, pick):
    scheme = copy.deepcopy(_every_codomain_scheme())
    candidates = _NAMED_FIELDS[field](scheme)
    holder, attribute = candidates[pick % len(candidates)]
    if isinstance(attribute, int):
        holder.mappings = (*holder.mappings[:attribute], value, *holder.mappings[attribute + 1:])
    else:
        object.__setattr__(holder, attribute, value)  # formula nodes are frozen
    assert check_scheme(scheme)
    with pytest.raises(EmitError):
        emit_text(scheme)


def test_a_diagnostic_on_a_name_with_a_line_break_renders_on_one_line():
    scheme = _ranged_scheme()
    scheme.set("A").mapping("v").name = "v\nB"
    rendered = [d.render() for d in check_scheme(scheme)]
    assert "error: bad-name: 'v\\nB' is not a name [A.v\\nB]" in rendered
    assert all(len(line.splitlines()) == 1 for line in rendered)


def test_a_diagnostic_on_a_loaded_provenance_key_renders_on_one_line():
    doc = _loaded_document("diagram D { entity A card 10 { attr v } }")
    forged = "set:Z\nerror: forged\u2028"
    doc["provenance"][forged] = "set:A"
    scheme = load_structured(json.dumps(doc))
    assert forged in scheme.provenance
    assert [d.render() for d in check_scheme(scheme)] == [
        "error: stray-provenance: set:Z\\nerror: forged\\u2028 names no element of the scheme "
        "[set:Z\\nerror: forged\\u2028]"]


_DELETE = object()


def _set_at(doc: dict, where: tuple, value) -> str:
    """Set the field at *where* in *doc* to *value*, or delete it; return its JSON path."""
    owner = doc
    for step in where[:-1]:
        owner = owner[step]
    if value is _DELETE:
        del owner[where[-1]]
    else:
        owner[where[-1]] = value
    return "$" + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in where)


INCLUSION_SOURCE = (
    "diagram D { entity A card 10 { attr v } entity B subset_of A card 10 { attr w } }\n"
    "restriction R1 on A compulsory v\n"
    'restriction R2 on A other informal "rule"\n'
)


@pytest.mark.parametrize("where, value", [
    (("sets", 0, "object_identifier", "computed_definition"), ["g"]),
    (("sets", 0, "mappings", 0, "computed_definition"), True),
    (("sets", 0, "computed_definition"), {"text": "g"}),
    (("constraints", 0, "label"), 7),
    (("constraints", 1, "informal"), 5),
])
def test_loaded_text_field_that_is_not_a_string_or_null_is_refused(where, value):
    doc = _loaded_document(INCLUSION_SOURCE)
    path = _set_at(doc, where, value)
    with pytest.raises(StructuredFormatError) as info:
        load_structured(json.dumps(doc))
    assert info.value.path == path
    assert str(info.value) == f"{path}: {where[-1]} must be a string or null"


# In the every-codomain fixture, PERSONS is the first set. Its mappings are
# Twin, Born, Height ([-5, 10^3]), Name (ASCII(64), total) and Code (NAT(6)).
TYPED_FIELDS = [
    (("sets", 0, "mappings", 3, "total"), "false", "true or false"),
    (("sets", 0, "mappings", 3, "one_to_one"), 0, "true or false"),
    (("sets", 0, "keys", 0, "implicit"), "true", "true or false"),
    (("sets", 0, "mappings", 3, "codomain", "length"), 2.9, "an integer"),
    (("sets", 0, "mappings", 4, "codomain", "digits"), True, "an integer"),
    (("sets", 0, "mappings", 2, "codomain", "lo", "value"), "-5", "an integer"),
    (("sets", 0, "mappings", 2, "codomain", "hi", "exponent"), 3.0, "an integer from 0 to 4299"),
]


@pytest.mark.parametrize("where, value, expected", TYPED_FIELDS,
                         ids=[where[-1] for where, _, _ in TYPED_FIELDS])
def test_loaded_flag_or_size_of_the_wrong_json_type_is_refused(where, value, expected):
    source = (Path(__file__).parent / "fixtures" / "every_codomain.erdm").read_text("utf-8")
    doc = _loaded_document(source)
    path = _set_at(doc, where, value)
    with pytest.raises(StructuredFormatError) as info:
        load_structured(json.dumps(doc))
    assert info.value.path == path
    assert str(info.value) == f"{path}: {where[-1]} must be {expected}"


# In the every-codomain fixture, set 4 is LIVES, whose roles are Who and
# Where; constraint 0 is tuple R06, 1 the inclusion of STUDENTS in PERSONS,
# 2 the informal R05 and 3 the formal R07.
TEXT_FIELDS = [
    (("sets", 0, "name"), 7, "$.sets[0].name: name must be a string"),
    (("sets", 0, "kind"), ["x"], "$.sets[0].kind: kind must be a string"),
    (("sets", 0, "mappings", 0, "name"), 7, "$.sets[0].mappings[0].name: name must be a string"),
    (("sets", 0, "mappings", 0, "source"), None,
     "$.sets[0].mappings[0].source: source must be a string"),
    (("sets", 0, "mappings", 0, "flavor"), 1.5,
     "$.sets[0].mappings[0].flavor: flavor must be a string"),
    (("sets", 0, "mappings", 0, "codomain", "name"), ["PERSONS"],
     "$.sets[0].mappings[0].codomain.name: name must be a string"),
    (("sets", 0, "mappings", 1, "codomain", "lo", "text"), 1900,
     "$.sets[0].mappings[1].codomain.lo.text: "
     "text must be day/month/year of at most 4300 digits each"),
    (("sets", 0, "mappings", 1, "codomain", "hi", "text"), None,
     "$.sets[0].mappings[1].codomain.hi.text: text must be a name followed by ()"),
    (("sets", 0, "keys", 0, "label"), None, "$.sets[0].keys[0].label: label must be a string"),
    (("sets", 0, "keys", 0, "mappings"), "ab",
     "$.sets[0].keys[0].mappings: mappings must be an array of strings"),
    (("sets", 0, "keys", 0, "mappings"), ["Name", 3],
     "$.sets[0].keys[0].mappings: mappings must be an array of strings"),
    (("sets", 4, "role_signature"), ["ab"],
     "$.sets[4].role_signature: role_signature must be an array of string pairs"),
    (("sets", 4, "role_signature"), [["Who", "PERSONS", "x"]],
     "$.sets[4].role_signature: role_signature must be an array of string pairs"),
    (("sets", 4, "role_signature"), [["Who", None]],
     "$.sets[4].role_signature: role_signature must be an array of string pairs"),
    (("constraints", 0, "label"), 6, "$.constraints[0].label: label must be a string"),
    (("constraints", 0, "set"), None, "$.constraints[0].set: set must be a string"),
    (("constraints", 0, "formula"), 5, "$.constraints[0].formula: formula must be a string"),
    (("constraints", 1, "subset"), 1, "$.constraints[1].subset: subset must be a string"),
    (("constraints", 1, "superset"), None,
     "$.constraints[1].superset: superset must be a string"),
    (("constraints", 2, "label"), None, "$.constraints[2].label: label must be a string"),
    (("constraints", 3, "formula"), ["x"],
     "$.constraints[3].formula: formula must be a string or null"),
    (("provenance", "set:PERSONS"), None, '$.provenance["set:PERSONS"]: must be a string'),
    (("provenance", "mapping:PERSONS.Twin"), 7,
     '$.provenance["mapping:PERSONS.Twin"]: must be a string'),
]


@pytest.mark.parametrize("where, value, error", TEXT_FIELDS,
                         ids=[error.partition(": ")[0] for _, _, error in TEXT_FIELDS])
def test_loaded_required_text_field_that_is_not_a_string_is_refused(where, value, error):
    """A field that must be text is never coerced with str()."""
    source = (Path(__file__).parent / "fixtures" / "every_codomain.erdm").read_text("utf-8")
    doc = _loaded_document(source)
    _set_at(doc, where, value)
    with pytest.raises(StructuredFormatError) as info:
        load_structured(json.dumps(doc))
    assert str(info.value) == error
    assert info.value.path == error.partition(": ")[0]


@pytest.mark.parametrize("labels", [["R1"], {"total": 1}, "R1"])
def test_loaded_source_labels_that_are_not_an_object_of_strings_are_refused(labels):
    doc = _loaded_document(INCLUSION_SOURCE)
    path = _set_at(doc, ("sets", 0, "mappings", 0, "source_labels"), labels)
    with pytest.raises(StructuredFormatError) as info:
        load_structured(json.dumps(doc))
    assert info.value.path == path
    assert str(info.value) == f"{path}: source_labels must be an object of strings"


def test_loaded_self_inclusion_is_refused():
    doc = _loaded_document(INCLUSION_SOURCE)
    (inclusion,) = [c for c in doc["constraints"] if c["kind"] == "inclusion"]
    inclusion["superset"] = inclusion["subset"]
    doc["provenance"]["constraint:inclusion:B<=B"] = doc["provenance"].pop(
        "constraint:inclusion:B<=A")
    scheme = load_structured(json.dumps(doc))
    assert [(d.code, d.element) for d in check_scheme(scheme)] == [
        ("self-inclusion", "constraint:inclusion:B<=B")
    ]
    with pytest.raises(EmitError, match="self-inclusion: B cannot be included in itself"):
        emit_text(scheme)


def test_loaded_words_outside_the_scheme_vocabularies_are_refused():
    doc = _loaded_document("diagram D { entity A card 10 { attr a } }")
    (a,) = doc["sets"]
    a["kind"] = "zzz"
    a["object_identifier"]["flavor"] = "attribute"
    a["mappings"][0]["flavor"] = "colour"
    a["mappings"][0]["source_labels"] = {"weird": "R99"}
    scheme = load_structured(json.dumps(doc))
    expected = [("unknown-set-kind", "A"), ("identifier-flavor", "A"),
                ("unknown-facet", "A.a"), ("unknown-flavor", "A.a")]
    assert [(d.code, d.element) for d in check_scheme(scheme)] == expected
    with pytest.raises(EmitError) as info:
        emit_text(scheme)
    assert [(d.code, d.element) for d in info.value.diagnostics] == expected


def test_inclusion_of_a_computed_set_is_refused_not_dropped():
    # A computed set's text is its definition alone, so it has no line for
    # the inclusion.
    scheme = translate(parse_model(
        'diagram D { entity A card 10 { attr a } computed V = "all" { } }')).scheme
    inclusion = InclusionConstraint("V", "A")
    scheme.constraints.append(inclusion)
    scheme.provenance[ref_constraint(inclusion)] = "hand-built"
    assert [(d.code, d.element) for d in check_scheme(scheme)] == [
        ("restriction-on-computed-set", "constraint:inclusion:V<=A")
    ]
    with pytest.raises(EmitError, match="restriction-on-computed-set: computed set 'V'"):
        emit_text(scheme)


@functools.lru_cache(maxsize=None)
def _every_codomain_text() -> str:
    source = (Path(__file__).parent / "fixtures" / "every_codomain.erdm").read_text("utf-8")
    result = translate(parse_model(source))
    assert result.scheme is not None
    return emit_structured(result.scheme)


# One case per way the reader refuses a document: a whole text, or an edit of
# the every-codomain document (see TEXT_FIELDS), and the error it raises.
# Mapping 0 of set 0 is Twin (set codomain), 1 Born ([date, func]), 2 Height
# ([int, pow10]), 3 Name (ASCII) and 4 Code (NAT).
_M = ("sets", 0, "mappings")
READER_CASES = [
    ("not-json", "{ not json",
     "$: not valid JSON at line 1, column 3: Expecting property name enclosed in double quotes"),
    ("document-not-object", "[]", "$: document must be an object"),
    ("unknown-version", (("version",), 2),
     "$.version: unknown version 2; this reader understands 1"),
    ("version-true", (("version",), True), "$.version: version must be an integer"),
    ("version-float", (("version",), 1.0), "$.version: version must be an integer"),
    ("missing-version", (("version",), _DELETE), "$.version: version is missing"),
    ("integer-too-long", '{"version": 1, "sets": [' + "9" * 4301 + "]}",
     "$: not readable JSON: an integer longer than 4300 digits"),
    ("nested-too-deeply", "[" * 100_000,
     "$: not readable JSON: arrays or objects nested too deeply"),
    ("sets-not-array", (("sets",), {}), "$.sets: sets must be an array"),
    ("constraints-not-array", (("constraints",), "R06"),
     "$.constraints: constraints must be an array"),
    ("provenance-not-object", (("provenance",), []), "$.provenance: provenance must be an object"),
    ("provenance-value", (("provenance", "set:PERSONS"), 1),
     '$.provenance["set:PERSONS"]: must be a string'),
    # records that are not objects
    ("set-not-object", (("sets", 0), "PERSONS"), "$.sets[0]: set must be an object"),
    ("mapping-not-object", ((*_M, 0), ["Twin"]),
     "$.sets[0].mappings[0]: mapping must be an object"),
    ("key-not-object", (("sets", 0, "keys", 0), "R01"), "$.sets[0].keys[0]: key must be an object"),
    ("constraint-not-object", (("constraints", 0), None),
     "$.constraints[0]: constraint must be an object"),
    ("codomain-not-object", ((*_M, 0, "codomain"), "PERSONS"),
     "$.sets[0].mappings[0].codomain: codomain must be an object"),
    ("bound-not-object", ((*_M, 2, "codomain", "lo"), -5),
     "$.sets[0].mappings[2].codomain.lo: lo must be an object"),
    # values that once loaded as something else
    ("mappings-object", ((*_M,), {}), "$.sets[0].mappings: mappings must be an array"),
    ("keys-string", (("sets", 0, "keys"), ""), "$.sets[0].keys: keys must be an array"),
    *[(f"identifier-{json.dumps(value)}", (("sets", 0, "object_identifier"), value),
       "$.sets[0].object_identifier: mapping must be an object")
      for value in (False, 0, "", [])],
    ("identifier-{}", (("sets", 0, "object_identifier"), {}),
     "$.sets[0].object_identifier.name: name is missing"),
    # kinds
    ("unknown-codomain-kind", ((*_M, 0, "codomain", "kind"), "colour"),
     "$.sets[0].mappings[0].codomain: unknown codomain kind 'colour'"),
    ("bound-kind-as-codomain", ((*_M, 3, "codomain"), {"kind": "int", "value": 64}),
     "$.sets[0].mappings[3].codomain: unknown codomain kind 'int'"),
    ("codomain-kind-as-bound", ((*_M, 2, "codomain", "hi", "kind"), "interval"),
     "$.sets[0].mappings[2].codomain.hi: unknown bound kind 'interval'"),
    ("unknown-constraint-kind", (("constraints", 0, "kind"), "check"),
     "$.constraints[0]: unknown constraint kind 'check'"),
    ("malformed-formula", (("constraints", 0, "formula"), "(forall x in PERSONS)(Height(x) >="),
     "$.constraints[0]: malformed tuple constraint: "
     "1:35: found 'end of input' (expected term)"),
    # each field type
    ("not-a-string", (("constraints", 0, "kind"), 1),
     "$.constraints[0].kind: kind must be a string"),
    ("not-an-integer", ((*_M, 4, "codomain", "digits"), "6"),
     "$.sets[0].mappings[4].codomain.digits: digits must be an integer"),
    ("not-a-flag", ((*_M, 3, "total"), 1),
     "$.sets[0].mappings[3].total: total must be true or false"),
    ("not-text", (("sets", 0, "computed_definition"), 0),
     "$.sets[0].computed_definition: computed_definition must be a string or null"),
    ("not-strings", (("sets", 0, "keys", 0, "mappings"), "Name"),
     "$.sets[0].keys[0].mappings: mappings must be an array of strings"),
    ("not-string-pairs", (("sets", 4, "role_signature"), [["Who"]]),
     "$.sets[4].role_signature: role_signature must be an array of string pairs"),
    ("not-labels", ((*_M, 3, "source_labels"), {"total": None}),
     "$.sets[0].mappings[3].source_labels: source_labels must be an object of strings"),
    # a source that is not the set holding the mapping
    ("wrong-identifier-source", (("sets", 0, "object_identifier", "source"), "NOPE"),
     "$.sets[0].object_identifier.source: source must be its set 'PERSONS'"),
    ("wrong-mapping-source", ((*_M, 0, "source"), "CITIES"),
     "$.sets[0].mappings[0].source: source must be its set 'PERSONS'"),
    # each required field, missing
    ("missing-set-name", (("sets", 0, "name"), _DELETE), "$.sets[0].name: name is missing"),
    ("missing-set-kind", (("sets", 0, "kind"), _DELETE), "$.sets[0].kind: kind is missing"),
    ("missing-mapping-name", ((*_M, 0, "name"), _DELETE),
     "$.sets[0].mappings[0].name: name is missing"),
    ("missing-mapping-source", ((*_M, 0, "source"), _DELETE),
     "$.sets[0].mappings[0].source: source is missing"),
    ("missing-mapping-flavor", ((*_M, 0, "flavor"), _DELETE),
     "$.sets[0].mappings[0].flavor: flavor is missing"),
    ("missing-key-label", (("sets", 0, "keys", 0, "label"), _DELETE),
     "$.sets[0].keys[0].label: label is missing"),
    ("missing-key-mappings", (("sets", 0, "keys", 0, "mappings"), _DELETE),
     "$.sets[0].keys[0].mappings: mappings is missing"),
    ("missing-codomain-kind", ((*_M, 0, "codomain", "kind"), _DELETE),
     "$.sets[0].mappings[0].codomain.kind: kind is missing"),
    ("missing-set-codomain-name", ((*_M, 0, "codomain", "name"), _DELETE),
     "$.sets[0].mappings[0].codomain.name: name is missing"),
    ("missing-ascii-length", ((*_M, 3, "codomain", "length"), _DELETE),
     "$.sets[0].mappings[3].codomain.length: length is missing"),
    ("missing-nat-digits", ((*_M, 4, "codomain", "digits"), _DELETE),
     "$.sets[0].mappings[4].codomain.digits: digits is missing"),
    ("missing-interval-lo", ((*_M, 1, "codomain", "lo"), _DELETE),
     "$.sets[0].mappings[1].codomain.lo: lo is missing"),
    ("missing-interval-hi", ((*_M, 1, "codomain", "hi"), _DELETE),
     "$.sets[0].mappings[1].codomain.hi: hi is missing"),
    ("missing-bound-kind", ((*_M, 1, "codomain", "lo", "kind"), _DELETE),
     "$.sets[0].mappings[1].codomain.lo.kind: kind is missing"),
    ("missing-date-text", ((*_M, 1, "codomain", "lo", "text"), _DELETE),
     "$.sets[0].mappings[1].codomain.lo.text: text is missing"),
    ("missing-func-text", ((*_M, 1, "codomain", "hi", "text"), _DELETE),
     "$.sets[0].mappings[1].codomain.hi.text: text is missing"),
    ("missing-int-value", ((*_M, 2, "codomain", "lo", "value"), _DELETE),
     "$.sets[0].mappings[2].codomain.lo.value: value is missing"),
    ("missing-pow10-exponent", ((*_M, 2, "codomain", "hi", "exponent"), _DELETE),
     "$.sets[0].mappings[2].codomain.hi.exponent: exponent is missing"),
    ("missing-constraint-kind", (("constraints", 0, "kind"), _DELETE),
     "$.constraints[0].kind: kind is missing"),
    ("missing-tuple-label", (("constraints", 0, "label"), _DELETE),
     "$.constraints[0].label: label is missing"),
    ("missing-tuple-set", (("constraints", 0, "set"), _DELETE),
     "$.constraints[0].set: set is missing"),
    ("missing-tuple-formula", (("constraints", 0, "formula"), _DELETE),
     "$.constraints[0].formula: formula is missing"),
    ("missing-inclusion-subset", (("constraints", 1, "subset"), _DELETE),
     "$.constraints[1].subset: subset is missing"),
    ("missing-inclusion-superset", (("constraints", 1, "superset"), _DELETE),
     "$.constraints[1].superset: superset is missing"),
    ("missing-nonrelational-label", (("constraints", 2, "label"), _DELETE),
     "$.constraints[2].label: label is missing"),
    # bounds in a form the text reader refuses: check_scheme compares them,
    # computing 10^n, and emit_text prints them on their mapping's line
    *[(f"pow10-exponent-{n}", ((*_M, 2, "codomain", "hi", "exponent"), n),
       "$.sets[0].mappings[2].codomain.hi.exponent: exponent must be an integer from 0 to 4299")
      for n in (-1, 4300, 999_999_999)],
    *[(f"date-{name}", ((*_M, 1, "codomain", "lo", "text"), text),
       "$.sets[0].mappings[1].codomain.lo.text: "
       "text must be day/month/year of at most 4300 digits each")
      for name, text in (("word", "soon"), ("four-parts", "1/2/3/4"), ("blank", " 1/2/3"),
                         ("part-too-long", "1/2/" + "3" * 4301))],
    *[(f"func-{name}", ((*_M, 1, "codomain", "hi", "text"), text),
       "$.sets[0].mappings[1].codomain.hi.text: text must be a name followed by ()")
      for name, text in (("no-call", "SysDate"), ("line-break", "SysDate()\nB <-> NAT(1)"))],
    # names in a form the text reader refuses: emit_text prints them bare, so
    # a line break in one forges a set block or a mapping line
    *[(f"name-{name}", (where, text),
       f"{path}: {text!r} is not a name")
      for name, where, path, text in (
          ("set", ("sets", 0, "name"), "$.sets[0].name", "A\nB"),
          ("mapping", (*_M, 0, "name"), "$.sets[0].mappings[0].name",
           "a\nB\n  y <-> NAT(1), total"),
          ("identifier", ("sets", 0, "object_identifier", "name"),
           "$.sets[0].object_identifier.name", "x y"),
          ("role-signature", ("sets", 4, "role_signature", 0, 1),
           "$.sets[4].role_signature[0][1]", "PERSONS\nB"),
          ("set-codomain", (*_M, 0, "codomain", "name"), "$.sets[0].mappings[0].codomain.name",
           "PERSONS B"),
          ("key-label", ("sets", 0, "keys", 0, "label"), "$.sets[0].keys[0].label", "R01\nB"),
          ("key-mapping", ("sets", 0, "keys", 0, "mappings", 0), "$.sets[0].keys[0].mappings[0]",
           "Name\n"),
          ("tuple-label", ("constraints", 0, "label"), "$.constraints[0].label", "R06 B"),
          ("tuple-set", ("constraints", 0, "set"), "$.constraints[0].set", "PERSONS\n"),
          ("inclusion-label", ("constraints", 1, "label"), "$.constraints[1].label", ""),
          ("inclusion-subset", ("constraints", 1, "subset"), "$.constraints[1].subset",
           "STUDENTS\nB"),
          ("inclusion-superset", ("constraints", 1, "superset"), "$.constraints[1].superset",
           " PERSONS"),
          ("nonrelational-label", ("constraints", 2, "label"), "$.constraints[2].label", "R05:"),
      )],
]


def _edited_text(edit) -> str:
    if isinstance(edit, str):
        return edit
    doc = json.loads(_every_codomain_text())
    _set_at(doc, *edit)
    return json.dumps(doc)


@pytest.mark.parametrize("edit, rendered", [case[1:] for case in READER_CASES],
                         ids=[case[0] for case in READER_CASES])
def test_reader_names_the_path_and_the_fault_of_each_malformed_document(edit, rendered):
    with pytest.raises(StructuredFormatError) as info:
        load_structured(_edited_text(edit))
    assert str(info.value) == rendered
    assert info.value.path == rendered.partition(": ")[0]


def _reader_message_patterns() -> list[str]:
    """A pattern of a message per literal the reader raises or builds one from."""
    tree = ast.parse(Path(erdmc.emitter.__file__).read_text("utf-8"))
    patterns = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name, args = node.func.id, node.args
            if name == "StructuredFormatError":
                patterns += _literal_patterns(args[0])
            elif name == "_record" and isinstance(args[1], ast.Constant):
                patterns.append(f"{args[1].value} must be an object")
            elif name == "_tagged" and isinstance(args[1], ast.Constant):
                patterns.append(f"unknown {args[1].value} kind .+")
    # Some kinds come from model.BOUND_FORMS, so the table is read as built.
    return patterns + [f".+ must be {re.escape(kind)}" for kind in erdmc.emitter._FIELD_KINDS]


def test_every_reader_message_has_a_case():
    messages = [case[2].partition(": ")[2] for case in READER_CASES]
    patterns = _reader_message_patterns()
    assert len(patterns) >= 20
    missing = [p for p in patterns if not any(re.fullmatch(p, m) for m in messages)]
    assert missing == []


@functools.lru_cache(maxsize=None)
def _valid_documents() -> tuple[str, ...]:
    fixtures = Path(__file__).parent / "fixtures"
    models = [parse_model((fixtures / name).read_text("utf-8"))
              for name in ("teaching.erdm", "every_codomain.erdm")]
    models += [random_model(seed) for seed in range(20)]
    return tuple(emit_structured(translate(model).scheme) for model in models)


def _steps(value, path: tuple = ()):
    """The steps from *value* to each value inside it, parents first."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for step, item in items:
        yield path + (step,)
        yield from _steps(item, path + (step,))


def _json_path(steps: tuple) -> str:
    return "$" + "".join(
        f"[{s}]" if isinstance(s, int) else f".{s}" if re.fullmatch(r"\w+", s)
        else f"[{json.dumps(s)}]" for s in steps)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 99) | st.floats(allow_nan=False)
    | st.text(max_size=4) | st.sampled_from(["set", "interval", "int", "date", "tuple", "x"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=5,
)
# Words of Python's own exception messages, which a reader message never holds.
_PYTHON_INTERNALS = ("object is not", "indices must", "unhashable", "NoneType",
                     "has no attribute", "not supported between", "argument")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_an_edited_document_loads_or_names_the_object_that_held_the_edit(data):
    """Any field of a valid document replaced or deleted: the document loads, and
    checks and prints without error, or the error's path starts at the innermost
    object that held the field."""
    doc = json.loads(data.draw(st.sampled_from(_valid_documents())))
    where = data.draw(st.sampled_from(list(_steps(doc))))
    node, holder = doc, ()
    for k, step in enumerate(where):
        if isinstance(node, dict):
            holder = where[:k]
        node = node[step]
    _set_at(doc, where, data.draw(st.just(_DELETE) | _JSON_VALUES))
    try:
        scheme = load_structured(json.dumps(doc))
    except StructuredFormatError as error:
        prefix = _json_path(holder)
        assert error.path == prefix or error.path.startswith((prefix + ".", prefix + "[")), (
            error.path, prefix)
        assert not any(word in str(error) for word in _PYTHON_INTERNALS), str(error)
        return
    # What loads is checked without error, and printed if sound.
    if not check_scheme(scheme):
        emit_text(scheme)
