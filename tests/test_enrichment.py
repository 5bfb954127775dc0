from __future__ import annotations

import ast
import copy
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

import erdmc.enrichment
import erdmc.translator
from erdmc.cli import main
from erdmc.census import verify_translation
from erdmc.diagnostics import INFO, WARNING, Diagnostic
from erdmc.emitter import emit_structured, emit_text, load_structured
from erdmc.enrichment import (
    EnrichmentAction,
    EnrichmentLog,
    PendingQuestion,
    Question,
    _collapse,
    apply_input_defaults,
    collapse_binary_relationships,
    enrich_scheme,
    ensure_compulsory,
    ensure_structural_key,
    ensure_totality,
    ensure_uniqueness,
    next_label,
)
from erdmc.formula import parse_formula
from erdmc.generator import random_model
from erdmc.model import (
    AsciiRange,
    Attribute,
    CardinalityBody,
    Diagram,
    ERModel,
    NatRange,
    ObjectSet,
    Restriction,
    Role,
    StructuralFunction,
)
from erdmc.parser import parse_model
from erdmc.scheme import (
    RELATIONSHIP_DERIVED,
    EMDMScheme,
    EMDMSet,
    InclusionConstraint,
    NonrelationalConstraint,
    TupleConstraint,
    check_scheme,
    ref_owner,
)
from erdmc.translator import TranslationOptions, Translator, translate

DBMS_MAX = 10 ** 9


def _pre_enrichment_scheme(source: str | ERModel):
    """Translate without the enrichment pass, for exercising single rules."""
    model = parse_model(source) if isinstance(source, str) else source
    translator = Translator(model)
    original_enrich = translator._enrich
    translator._enrich = lambda: None
    result = translator.run()
    translator._enrich = original_enrich
    assert result.scheme is not None, [d.render() for d in result.report.diagnostics]
    return result.scheme


def _run(rule, scheme) -> EnrichmentLog:
    """Run one scheme rule, or the whole pass, on *scheme*; return what it logged."""
    log = EnrichmentLog()
    rule(scheme, log)
    return log


# --- rule (i): missing cardinality defaults to the DBMS maximum ---


def test_rule_i_missing_cardinality():
    model = parse_model("diagram D { entity A { attr a } }")
    outcome = apply_input_defaults(model, DBMS_MAX)
    a = outcome.model.set("A")
    assert a.max_cardinality == DBMS_MAX
    diags = [d for d in outcome.diagnostics if d.code == "cardinality-defaulted"]
    assert len(diags) == 1 and diags[0].severity == INFO
    again = apply_input_defaults(outcome.model, DBMS_MAX)
    assert again.model == outcome.model
    assert not [d for d in again.diagnostics if d.code == "cardinality-defaulted"]


# --- rule (ii): oversized cardinality is clamped ---


def test_rule_ii_cardinality_clamp():
    model = parse_model(
        "diagram D { entity A card 5000 { attr a } }"
    )
    outcome = apply_input_defaults(model, 100)
    assert outcome.model.set("A").max_cardinality == 100
    diags = [d for d in outcome.diagnostics if d.code == "cardinality-clamped"]
    assert len(diags) == 1 and diags[0].severity == WARNING
    again = apply_input_defaults(outcome.model, 100)
    assert again.model == outcome.model


def test_rule_ii_clamps_labeled_restrictions_too():
    model = parse_model(
        "diagram D { entity A { attr a } }\nrestriction R01 on A card 10^6\n"
    )
    outcome = apply_input_defaults(model, 1000)
    body = outcome.model.restrictions[0].body
    assert body.maximum == 1000


# --- rule (iii): fundamental attribute without a range gets ASCII(255) ---


def test_rule_iii_default_range():
    model = parse_model("diagram D { entity A card 10 { attr Notes } }")
    outcome = apply_input_defaults(model, DBMS_MAX)
    assert outcome.model.set("A").attributes[0].range == AsciiRange(255)
    diags = [d for d in outcome.diagnostics if d.code == "range-defaulted"]
    assert len(diags) == 1 and diags[0].severity == INFO
    again = apply_input_defaults(outcome.model, DBMS_MAX)
    assert again.model == outcome.model


# --- rule (iv): computed elements without definitions are asked for, then dropped ---


def test_rule_iv_batch_drop():
    model = parse_model("diagram D { entity A card 10 { attr a } computed V { } }")
    outcome = apply_input_defaults(model, DBMS_MAX)
    assert outcome.model.set("V") is None
    diags = [d for d in outcome.diagnostics if d.code == "computed-dropped"]
    assert len(diags) == 1 and diags[0].severity == WARNING
    assert [p.origin for p in outcome.pending] == ["unanswered"]
    again = apply_input_defaults(outcome.model, DBMS_MAX)
    assert again.model == outcome.model


def test_rule_iv_scripted_answer_fills_definition():
    model = parse_model("diagram D { computed V { } }")
    outcome = apply_input_defaults(
        model, DBMS_MAX, log=EnrichmentLog({"V": {"computed-definition": "all of it"}})
    )
    assert outcome.model.set("V").computed_definition == "all of it"
    assert [p.origin for p in outcome.pending] == ["answers"]


def test_input_defaults_take_answers_and_a_prompter_only_through_the_log():
    model = parse_model("diagram D { computed V { } }")
    with pytest.raises(TypeError):
        apply_input_defaults(model, DBMS_MAX, {"V": {"computed-definition": "all of it"}})
    with pytest.raises(TypeError):
        apply_input_defaults(model, DBMS_MAX, prompter=lambda q: "all of it")


MEMBERS_SOURCE = (
    'diagram D { entity A card 10 { attr a : ASCII(8) attr c computed = "" '
    'fn f -> B computed = " " } entity B card 10 { attr b : ASCII(8) } }\n'
)


def test_rule_iv_drops_computed_members_without_definitions():
    outcome = apply_input_defaults(parse_model(MEMBERS_SOURCE), DBMS_MAX)
    a = outcome.model.set("A")
    assert [m.name for m in a.attributes] == ["a"] and a.structural_functions == ()
    assert outcome.diagnostics == [
        Diagnostic(WARNING, "computed-dropped",
                   "computed attribute A.c has no definition and was ignored", "A.c"),
        Diagnostic(WARNING, "computed-dropped",
                   "computed function A.f has no definition and was ignored", "A.f"),
    ]
    assert outcome.actions == [
        EnrichmentAction("iv", "attribute:A.c", "dropped computed attribute A.c"),
        EnrichmentAction("iv", "function:A.f", "dropped computed function A.f"),
    ]
    assert outcome.pending == [
        PendingQuestion(Question("A.c", "computed-definition",
                                 "computed attribute A.c has no definition; provide one"),
                        None, "unanswered"),
        PendingQuestion(Question("A.f", "computed-definition",
                                 "computed function A.f has no definition; provide one"),
                        None, "unanswered"),
    ]


def test_rule_iv_answers_file_fills_computed_members(tmp_path, capsys):
    model_path = tmp_path / "members.erdm"
    model_path.write_text(MEMBERS_SOURCE)
    answers_path = tmp_path / "answers.json"
    answers_path.write_text(json.dumps({
        "A.c": {"computed-definition": "a + 1"},
        "A.f": {"computed-definition": "B.b"},
    }))
    report_path = tmp_path / "report.json"
    assert main(["translate", str(model_path), "--answers", str(answers_path),
                 "--report", str(report_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "computed-definition-supplied" in line] == [
        "info: computed-definition-supplied: definition for A.c supplied interactively [A.c]",
        "info: computed-definition-supplied: definition for A.f supplied interactively [A.f]",
    ]
    report = json.loads(report_path.read_text())
    assert [a for a in report["enrichment_actions"] if a["rule"] == "iv"] == [
        {"rule": "iv", "target": "attribute:A.c",
         "description": "filled definition of computed attribute A.c",
         "resulting_labels": []},
        {"rule": "iv", "target": "function:A.f",
         "description": "filled definition of computed function A.f",
         "resulting_labels": []},
    ]
    assert report["pending_questions"] == [
        {"subject": "A.c", "kind": "computed-definition",
         "prompt": "computed attribute A.c has no definition; provide one",
         "answer": "a + 1", "origin": "answers"},
        {"subject": "A.f", "kind": "computed-definition",
         "prompt": "computed function A.f has no definition; provide one",
         "answer": "B.b", "origin": "answers"},
    ]
    outcome = apply_input_defaults(
        parse_model(MEMBERS_SOURCE), DBMS_MAX,
        log=EnrichmentLog(json.loads(answers_path.read_text())),
    )
    assert [a.description for a in outcome.actions] == [
        "filled definition of computed attribute A.c",
        "filled definition of computed function A.f",
    ]
    a = outcome.model.set("A")
    assert a.attributes[1].computed_definition == "a + 1"
    assert a.structural_functions[0].computed_definition == "B.b"


def test_rule_iv_blank_definitions_are_asked_for_like_missing_ones():
    source = (
        'diagram D { entity A card 10 { attr a : ASCII(8) attr c computed = "  " '
        'fn f -> A computed = "\\t" } computed S = "   " { } }\n'
    )
    outcome = apply_input_defaults(parse_model(source), DBMS_MAX)
    assert outcome.model.set("S") is None
    a = outcome.model.set("A")
    assert [m.name for m in a.attributes] == ["a"] and a.structural_functions == ()
    assert [(p.question.subject, p.origin) for p in outcome.pending] == [
        ("A.c", "unanswered"), ("A.f", "unanswered"), ("S", "unanswered"),
    ]
    assert [(d.code, d.element) for d in outcome.diagnostics] == [
        ("computed-dropped", "A.c"), ("computed-dropped", "A.f"), ("computed-dropped", "S"),
    ]
    answers = {name: {"computed-definition": "all of A"} for name in ("A.c", "A.f", "S")}
    filled = apply_input_defaults(parse_model(source), DBMS_MAX, log=EnrichmentLog(answers)).model
    assert filled.set("S").computed_definition == "all of A"
    assert filled.set("A").attributes[1].computed_definition == "all of A"
    assert filled.set("A").structural_functions[0].computed_definition == "all of A"


def _changed_fields(before, after) -> set[str]:
    """The dataclass fields of *before* that *after* holds another value in."""
    return {f.name for f in dataclasses.fields(before)
            if getattr(after, f.name) != getattr(before, f.name)}


def test_input_defaults_rebuild_records_with_every_field():
    """A rebuilt record keeps each field that no rule repairs.

    Every record below holds a value other than its default in every field
    (save the range of an attribute that rule (iii) gives one), and each
    rule that rebuilds a record fires on one: (i) on B, (ii) on E and R01,
    (iii) on E.plain and (iv) on V, E.c and E.f.
    """
    c = Attribute("c", NatRange(3), " ")
    plain = Attribute("plain", None, None)
    f = StructuralFunction("f", "B", " ")
    full_set = dict(roles=(Role("r", "B", True),), included_in=("B",),
                    max_cardinality=10 ** 12, cardinality_pow10=12, computed_definition="all")
    e = ObjectSet("E", "entity", (c, plain), structural_functions=(f,), **full_set)
    v = ObjectSet("V", "computed", (c,), structural_functions=(f,),
                  **full_set | dict(computed_definition=" "))
    b = ObjectSet("B", "entity", (Attribute("b", AsciiRange(8)),))
    r01 = Restriction("R01", "E", CardinalityBody(10 ** 12, 12))
    model = ERModel((Diagram("D", (e, v, b)),), (r01,), "a description")
    for record in (c, f, e, v, r01, model):
        assert all(getattr(record, field.name) != field.default
                   for field in dataclasses.fields(record)), record

    answers = {name: {"computed-definition": "given"} for name in ("V", "E.c", "E.f")}
    outcome = apply_input_defaults(model, DBMS_MAX, log=EnrichmentLog(answers))
    assert sorted((a.rule, a.target) for a in outcome.actions) == [
        ("i", "set:B"), ("ii", "R01"), ("ii", "set:E"), ("iii", "attribute:E.plain"),
        ("iv", "attribute:E.c"), ("iv", "function:E.f"), ("iv", "set:V"),
    ]
    after = outcome.model
    e2, v2, b2 = after.diagrams[0].sets
    assert _changed_fields(model, after) == {"diagrams", "restrictions"}
    assert _changed_fields(model.diagrams[0], after.diagrams[0]) == {"sets"}
    assert _changed_fields(r01, after.restrictions[0]) == {"body"}
    assert _changed_fields(e, e2) == {
        "attributes", "structural_functions", "max_cardinality", "cardinality_pow10"}
    assert _changed_fields(v, v2) == {"computed_definition"}
    assert _changed_fields(b, b2) == {"max_cardinality"}
    assert _changed_fields(c, e2.attributes[0]) == {"computed_definition"}
    assert _changed_fields(plain, e2.attributes[1]) == {"range"}
    assert _changed_fields(f, e2.structural_functions[0]) == {"computed_definition"}


def test_rule_iv_drops_blank_answered_and_prompted_definitions():
    source = (
        'diagram D { entity A card 10 { attr v : ASCII(8) attr c computed = "" '
        'fn f -> A computed = "" } computed S { } }\n'
    )
    outcome = apply_input_defaults(parse_model(source), DBMS_MAX, log=EnrichmentLog(
        {"A.c": {"computed-definition": " "}, "S": {"computed-definition": "\t"}},
        prompter=lambda q: "   ",
    ))
    assert outcome.model.set("S") is None
    a = outcome.model.set("A")
    assert [m.name for m in a.attributes] == ["v"] and a.structural_functions == ()
    assert [(p.question.subject, p.origin) for p in outcome.pending] == [
        ("A.c", "answers"), ("A.f", "prompt"), ("S", "answers"),
    ]
    assert [(d.code, d.element) for d in outcome.diagnostics] == [
        ("computed-dropped", "A.c"), ("computed-dropped", "A.f"), ("computed-dropped", "S"),
    ]
    again = apply_input_defaults(outcome.model, DBMS_MAX)
    assert again.model == outcome.model and again.actions == []


# --- rule (v): roles and identifiers become total ---

TOTALITY_SOURCE = (
    "diagram D {\n"
    "  entity A card 10 { attr a }\n"
    "  entity B card 10 { attr b }\n"
    "  relationship L { role ra -> A role rb -> B }\n"
    "}\n"
    "restriction R01 on A compulsory a\n"
    "restriction R02 on A unique a\n"
    "restriction R03 on B compulsory b\n"
    "restriction R04 on B unique b\n"
)


def test_rule_v_adds_totality_to_roles():
    scheme = _pre_enrichment_scheme(TOTALITY_SOURCE)
    link = scheme.set("L")
    assert not any(m.total for m in link.role_mappings())
    log = _run(ensure_totality, scheme)
    roles = scheme.set("L").role_mappings()
    assert all(m.total for m in roles)
    assert len(log.actions) == 2
    assert all(d.severity == INFO and d.code == "totality-added" for d in log.diagnostics)
    snapshot = copy.deepcopy(scheme)
    assert _run(ensure_totality, scheme).actions == []
    assert scheme == snapshot


def test_rule_v_leaves_compulsory_roles_alone(teaching_model):
    result = translate(teaching_model)
    assert not any(a.rule == "v" for a in result.report.enrichment_actions)


# --- rule (vi): sets without any total mapping gain Compulsory ---


def test_rule_vi_adds_compulsory_mapping():
    scheme = _pre_enrichment_scheme(
        "diagram D { entity LOG card 10 { attr Note } }\n"
        "restriction R01 on LOG range Note ascii(100)\n"
        "restriction R02 on LOG unique Note\n"
    )
    log = _run(ensure_compulsory, scheme)
    added = scheme.set("LOG").mapping("Compulsory")
    assert added is not None
    assert added.total and added.codomain == AsciiRange(255)
    assert added.flavor == "enrichment-generated"
    assert len(log.actions) == 1
    assert any(d.severity == INFO and d.code == "compulsory-added" for d in log.diagnostics)
    snapshot = copy.deepcopy(scheme)
    assert _run(ensure_compulsory, scheme).actions == [] and scheme == snapshot


def test_rule_vi_skips_sets_with_totals(teaching_model):
    result = translate(teaching_model)
    assert not any(a.rule == "vi" for a in result.report.enrichment_actions)
    for s in result.scheme.sets:
        assert s.mapping("Compulsory") is None


def test_rule_vi_name_clash_appends_numeral():
    scheme = _pre_enrichment_scheme(
        "diagram D { entity LOG card 10 { attr Compulsory } }\n"
        "restriction R01 on LOG unique Compulsory\n"
    )
    log = _run(ensure_compulsory, scheme)
    assert scheme.set("LOG").mapping("Compulsory1") is not None
    assert any(d.code == "name-clash" and d.severity == WARNING for d in log.diagnostics)



def test_rule_vi_name_clash_skips_every_taken_numeral():
    scheme = _pre_enrichment_scheme(
        "diagram D { entity LOG card 10 { attr Compulsory attr Compulsory1 } }\n"
        "restriction R01 on LOG unique Compulsory\n"
    )
    log = _run(ensure_compulsory, scheme)
    assert scheme.set("LOG").mapping("Compulsory2") is not None
    assert [d.message for d in log.diagnostics if d.code == "name-clash"] == [
        "LOG already has a mapping named Compulsory; using Compulsory2",
    ]

# --- rule (vii): relationship sets gain a structural key ---


def test_rule_vii_reproduces_generated_key_on_teaching_fixture(teaching_model):
    result = translate(teaching_model)
    firings = [a for a in result.report.enrichment_actions if a.rule == "vii"]
    assert len(firings) == 1
    action = firings[0]
    assert action.description == "R42: Room • Competence"
    assert action.resulting_labels == ("R42",)
    key = next(k for k in result.scheme.set("SCHEDULES").keys if k.label == "R42")
    assert key.mappings == ("Room", "Competence")
    assert key.implicit
    note = next(n for n in result.report.implicit_keys if n.label == "R42")
    assert note.origin == "generated"
    snapshot = copy.deepcopy(result.scheme)
    assert _run(ensure_structural_key, result.scheme).actions == []
    assert result.scheme == snapshot


def test_rule_vii_skips_declared_full_role_key(teaching_model):
    result = translate(teaching_model)
    attendances = result.scheme.set("ATTENDANCES")
    assert [k.label for k in attendances.keys] == ["R35"]


def test_rule_vii_ignores_entity_sets():
    scheme = _pre_enrichment_scheme(
        "diagram D { entity A card 10 { attr a } }\n"
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
    )
    assert _run(ensure_structural_key, scheme).actions == []
    assert scheme.set("A").keys == []


SINGLE_ROLE_SOURCE = (
    "diagram D { entity A card 10 { attr a } relationship R { role r -> A } }\n"
    "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
)


def test_rule_vii_makes_a_single_role_one_to_one():
    result = translate(parse_model(SINGLE_ROLE_SOURCE))
    assert result.scheme is not None
    role = result.scheme.set("R").mapping("r")
    assert role.one_to_one and role.total
    assert result.scheme.set("R").keys == []
    assert result.scheme.provenance["mapping:R.r#unique"] == "enrichment:vii"
    [firing] = [a for a in result.report.enrichment_actions if a.rule == "vii"]
    assert firing.description == "made single role R.r one-to-one (degenerate structural key)"
    assert firing.resulting_labels == ()


def test_rule_vii_leaves_a_relationship_set_without_roles_alone():
    # validate_model refuses such a relationship, so only a hand-built or
    # loaded scheme holds one.
    for scheme in (EMDMScheme(sets=[EMDMSet("L", RELATIONSHIP_DERIVED)]),
                   load_structured('{"version": 1, "sets": [{"name": "L", '
                                   '"kind": "relationship-derived"}]}')):
        snapshot = copy.deepcopy(scheme)
        assert _run(ensure_structural_key, scheme).diagnostics == []
        assert scheme == snapshot


# --- rule (viii): binary relationships with unique roles collapse ---

MARRIAGE_SOURCE = (
    "diagram D {\n"
    "  entity MEN card 10^3 { attr Name }\n"
    "  entity WOMEN card 10^3 { attr Name }\n"
    "  relationship MARRIAGE {\n"
    "    role husband -> MEN unique\n"
    "    role wife -> WOMEN unique\n"
    "  }\n"
    "}\n"
    "restriction R01 on MEN compulsory Name\n"
    "restriction R02 on MEN unique Name\n"
    "restriction R03 on WOMEN compulsory Name\n"
    "restriction R04 on WOMEN unique Name\n"
    "restriction R05 on MARRIAGE compulsory husband, wife\n"
)


def test_rule_viii_both_unique_collapses_in_chosen_direction():
    result = translate(
        parse_model(MARRIAGE_SOURCE),
        TranslationOptions(answers={"MARRIAGE": {"bijection-direction": "MEN->WOMEN"}}),
    )
    assert result.scheme is not None
    assert result.scheme.set("MARRIAGE") is None
    mapping = result.scheme.set("MEN").mapping("MARRIAGE")
    assert mapping is not None
    assert mapping.codomain == "WOMEN"
    assert mapping.one_to_one and mapping.total
    assert check_scheme(result.scheme) == []
    firings = [a for a in result.report.enrichment_actions if a.rule == "viii"]
    assert len(firings) == 1


def test_rule_viii_answers_file_chooses_the_reverse_direction(tmp_path, capsys):
    model_path = tmp_path / "marriage.erdm"
    model_path.write_text(MARRIAGE_SOURCE)
    answers_path = tmp_path / "answers.json"
    answers_path.write_text(json.dumps({"MARRIAGE": {"bijection-direction": "WOMEN->MEN"}}))
    structured_path = tmp_path / "scheme.json"
    report_path = tmp_path / "report.json"
    assert main(["translate", str(model_path), "--answers", str(answers_path),
                 "--structured", str(structured_path), "--report", str(report_path)]) == 0
    captured = capsys.readouterr()
    assert "  MARRIAGE : WOMEN <-> MEN, total" in captured.out.splitlines()
    assert "collapse-default-direction" not in captured.err
    scheme = load_structured(structured_path.read_text())
    assert scheme.set("MARRIAGE") is None and scheme.set("MEN").mapping("MARRIAGE") is None
    mapping = scheme.set("WOMEN").mapping("MARRIAGE")
    assert mapping.codomain == "MEN" and mapping.one_to_one and mapping.total
    report = json.loads(report_path.read_text())
    assert [a["description"] for a in report["enrichment_actions"] if a["rule"] == "viii"] == [
        "replaced MARRIAGE by the structural function MARRIAGE : WOMEN <-> MEN",
    ]
    assert report["pending_questions"] == [{
        "subject": "MARRIAGE", "kind": "bijection-direction",
        "prompt": "MARRIAGE is one-to-one both ways; choose MEN->WOMEN or WOMEN->MEN",
        "answer": "WOMEN->MEN", "origin": "answers",
    }]


def test_rule_viii_single_unique_collapses_toward_unique_side():
    source = MARRIAGE_SOURCE.replace("role wife -> WOMEN unique", "role wife -> WOMEN")
    result = translate(parse_model(source))
    mapping = result.scheme.set("MEN").mapping("MARRIAGE")
    assert mapping is not None
    assert mapping.codomain == "WOMEN"
    assert not mapping.one_to_one
    assert mapping.total


def test_rule_viii_no_unique_roles_no_action():
    source = MARRIAGE_SOURCE.replace(" unique\n", "\n")
    result = translate(parse_model(source))
    assert result.scheme.set("MARRIAGE") is not None
    assert not any(a.rule == "viii" for a in result.report.enrichment_actions)


def test_rule_viii_batch_default_direction_warns():
    result = translate(parse_model(MARRIAGE_SOURCE))
    assert result.scheme.set("MEN").mapping("MARRIAGE") is not None
    assert any(d.code == "collapse-default-direction" for d in result.report.diagnostics)


def test_rule_viii_skips_relationships_with_attributes():
    source = MARRIAGE_SOURCE.replace(
        "role wife -> WOMEN unique\n", "role wife -> WOMEN unique\n    attr Since\n"
    )
    result = translate(parse_model(source))
    assert result.scheme.set("MARRIAGE") is not None
    assert any(d.code == "collapse-skipped" for d in result.report.diagnostics)


SELF_SOURCE = (
    "diagram D {\n"
    "  entity A card 10 { attr v }\n"
    "  relationship L { role a -> L unique role b -> A }\n"
    "}\n"
)


@pytest.mark.parametrize("roles, header, message", [
    ("role a -> L unique role b -> A", "L = (a -> L, b -> A)", "L cannot collapse onto L"),
    ("role a -> A unique role b -> L", "L = (a -> A, b -> L)",
     "L cannot collapse into a mapping that targets L"),
])
def test_rule_viii_skips_a_relationship_that_would_lose_itself(roles, header, message):
    # Collapsing L removes it, so neither the new mapping's home nor its
    # codomain may be L.
    source = SELF_SOURCE.replace("role a -> L unique role b -> A", roles)
    result = translate(parse_model(source))
    assert [d.message for d in result.report.diagnostics if d.code == "collapse-skipped"] == [
        message,
    ]
    assert not any(a.rule == "viii" for a in result.report.enrichment_actions)
    assert result.scheme.set("L") is not None
    assert header in emit_text(result.scheme).splitlines()
    assert not any(verify_translation(result).values())


def test_rule_viii_skips_a_computed_home():
    result = translate(parse_model(
        'diagram D { entity A card 10 { attr v } computed V = "a view" { }\n'
        "  relationship L { role a -> V unique role b -> A } }\n"
    ))
    assert [d.message for d in result.report.diagnostics if d.code == "collapse-skipped"] == [
        "L cannot collapse onto V",
    ]
    assert result.scheme.set("L") is not None
    assert result.scheme.set("V").mappings == []


def test_rule_viii_skips_a_name_that_reads_as_a_facet_of_a_home_member():
    # On H, a mapping named R#total would take the reference mapping:H.R#total,
    # which rule (v) already holds for the totality of H's role R.
    result = translate(parse_model(
        "diagram D {\n"
        "  entity A card 10 { attr a }\n"
        "  entity B card 10 { attr b }\n"
        "  relationship H { role R -> A role q -> B }\n"
        "  relationship R#total { role p -> H unique role s -> B }\n"
        "}\n"
    ))
    assert [d.message for d in result.report.diagnostics if d.code == "collapse-skipped"] == [
        "R#total cannot collapse onto H: a mapping named R#total "
        "would read as the total facet of H.R",
    ]
    assert result.scheme.provenance["mapping:H.R#total"] == "enrichment:v"
    assert result.scheme.set("R#total") is not None
    assert not any(verify_translation(result).values())


_MARRIAGE_REFERENCES = {
    "inclusion-subset": InclusionConstraint("MARRIAGE", "MEN"),
    "inclusion-superset": InclusionConstraint("MEN", "MARRIAGE"),
    "tuple-set": TupleConstraint(
        "R09", "MARRIAGE", parse_formula("(forall x in MARRIAGE)(husband(x) = husband(x))")
    ),
    "tuple-domain": TupleConstraint(
        "R09", "MEN", parse_formula("(forall y in MARRIAGE)(husband(y) = husband(y))")
    ),
    "nonrelational-domain": NonrelationalConstraint(
        "R09", parse_formula("(forall x in MEN)(forall y in MARRIAGE)(x = husband(y))")
    ),
}


@pytest.mark.parametrize("reference", sorted(_MARRIAGE_REFERENCES))
def test_rule_viii_skips_relationships_referenced_by_a_constraint(reference):
    scheme = _pre_enrichment_scheme(MARRIAGE_SOURCE)
    scheme.constraints.append(_MARRIAGE_REFERENCES[reference])
    log = _run(collapse_binary_relationships, scheme)
    assert log.actions == []
    assert scheme.set("MARRIAGE") is not None
    assert [(d.code, d.message) for d in log.diagnostics] == [(
        "collapse-skipped",
        "MARRIAGE has a unique role but is referenced elsewhere; left as a relationship",
    )]


def test_rule_viii_informal_constraints_reference_no_set():
    scheme = _pre_enrichment_scheme(MARRIAGE_SOURCE)
    scheme.constraints.append(NonrelationalConstraint("R09", None, "about MARRIAGE"))
    log = _run(collapse_binary_relationships, scheme)
    assert [a.target for a in log.actions] == ["set:MARRIAGE"]


def test_rule_viii_a_collapse_keeps_its_target_referenced():
    # HOLDS is visited first (its diagram comes first) and collapses into
    # HOLDS : PEOPLE -> CARDS, which still references CARDS.
    scheme = _pre_enrichment_scheme(
        "diagram D1 {\n"
        "  entity PEOPLE card 10 { attr a }\n"
        "  entity BOOKS card 10 { attr b }\n"
        "  relationship HOLDS { role who -> PEOPLE unique role card -> CARDS }\n"
        "}\n"
        "diagram D2 {\n"
        "  relationship CARDS { role owner -> PEOPLE unique role book -> BOOKS }\n"
        "}\n"
    )
    log = _run(collapse_binary_relationships, scheme)
    assert [a.target for a in log.actions] == ["set:HOLDS"]
    assert scheme.set("PEOPLE").mapping("HOLDS").codomain == "CARDS"
    assert [(d.code, d.element) for d in log.diagnostics if d.severity == WARNING] == [
        ("collapse-skipped", "CARDS"),
    ]
    assert "referenced elsewhere" in next(
        d.message for d in log.diagnostics if d.element == "CARDS"
    )


def test_rule_viii_idempotent_second_pass():
    scheme = _pre_enrichment_scheme(MARRIAGE_SOURCE)
    actions = _run(collapse_binary_relationships, scheme).actions
    snapshot = copy.deepcopy(scheme)
    actions2 = _run(collapse_binary_relationships, scheme).actions
    assert actions and not actions2
    assert scheme == snapshot


CHAIN_SOURCE = (
    "diagram D1 {\n"
    "  entity A card 10 { attr a }\n"
    "  entity B card 10 { attr b }\n"
    "  entity C card 10 { attr c }\n"
    "  relationship R { role r1 -> H unique role r2 -> C }\n"
    "}\n"
    "diagram D2 {\n"
    "  relationship H { role h1 -> A unique role h2 -> B }\n"
    "}\n"
    "restriction R01 on H unique h1, h2\n"
    "restriction R02 on R compulsory r1\n"
)


def test_rule_viii_collapse_chain_moves_provenance_in_order():
    # R collapses onto H, a relationship-derived set; H then collapses onto
    # A, carrying R's entries along. Rule (viii) itself never plans the
    # second step (H then holds three mappings), so the test makes it through
    # the collapse helper, passing H's entries as the rule would group them
    # and removing H as the rule does at the end of its pass.
    enriched = _pre_enrichment_scheme(CHAIN_SOURCE)
    first = _run(collapse_binary_relationships, enriched).actions
    assert [a.target for a in first] == ["set:R"]
    assert [s.name for s in enriched.sets] == ["A", "B", "C", "H"]
    h = enriched.set("H")
    owned = [ref for ref in enriched.provenance if ref_owner(ref) == "H"]
    _collapse(enriched, h, enriched.set("A"), "H", h.mapping("h1"), h.mapping("h2"), False,
              owned)
    assert enriched.set("H") is h  # the helper moves provenance; it removes no set
    enriched.remove_sets([h])
    assert [s.name for s in enriched.sets] == ["A", "B", "C"]
    assert list(enriched.provenance.items()) == [
        ("set:A", "set:A"),
        ("mapping:A.x", "set:A"),
        ("mapping:A.a", "attribute:A.a"),
        ("set:B", "set:B"),
        ("mapping:B.x", "set:B"),
        ("mapping:B.b", "attribute:B.b"),
        ("set:C", "set:C"),
        ("mapping:C.x", "set:C"),
        ("mapping:C.c", "attribute:C.c"),
        ("mapping:A.H", "set:H"),
        ("mapping:A.H#absorbed:mapping:H.x", "set:H"),
        ("mapping:A.H#absorbed:mapping:H.h1", "role:H.h1"),
        ("mapping:A.H#absorbed:mapping:H.h2", "role:H.h2"),
        ("mapping:A.H#absorbed:key:H.R01", "restriction:R01"),
        ("mapping:A.H#absorbed:mapping:H.R", "set:R"),
        ("mapping:A.H#absorbed:mapping:H.R#absorbed:mapping:R.x", "set:R"),
        ("mapping:A.H#absorbed:mapping:H.R#absorbed:mapping:R.r1", "role:R.r1"),
        ("mapping:A.H#absorbed:mapping:H.R#absorbed:mapping:R.r2", "role:R.r2"),
        ("mapping:A.H#absorbed:mapping:H.R#absorbed:mapping:R.r1#total:R02",
         "restriction:R02[r1]"),
    ]
    assert hashlib.sha256(emit_structured(enriched).encode()).hexdigest() == (
        "b9030d8c9786087ca43968c7b57f091f0fbe100e1d9af2427cac9cd775163322"
    )


CLASH_SOURCE = (
    "diagram D {\n"
    "  entity MEN card 10^3 { attr Name attr MARRIAGE }\n"
    "  entity WOMEN card 10^3 { attr Name }\n"
    "  entity LOG card 10 { attr Compulsory attr UniqueMapping }\n"
    "  relationship MARRIAGE { role husband -> MEN unique role wife -> WOMEN }\n"
    "}\n"
    "restriction R01 on MEN compulsory Name\n"
    "restriction R02 on MEN unique Name\n"
    "restriction R03 on WOMEN compulsory Name\n"
    "restriction R04 on WOMEN unique Name\n"
)


def test_name_clashes_append_numerals_across_rules():
    enriched = _pre_enrichment_scheme(CLASH_SOURCE)
    diags = _run(enrich_scheme, enriched).diagnostics
    assert [d.element for d in diags if d.code == "name-clash"] == [
        "MEN.MARRIAGE1", "LOG.Compulsory1", "LOG.UniqueMapping1",
    ]
    assert enriched.set("MEN").mapping("MARRIAGE1").codomain == "WOMEN"


def test_rule_viii_completeness_survives_collapse():
    result = translate(parse_model(MARRIAGE_SOURCE), TranslationOptions())
    assert verify_translation(result)["completeness"] == []


# --- rule (ix): sets without uniqueness gain UniqueMapping ---


def test_rule_ix_adds_unique_mapping():
    scheme = _pre_enrichment_scheme(
        "diagram D { entity LOG card 10 { attr Note } }\n"
        "restriction R01 on LOG compulsory Note\n"
    )
    log = _run(ensure_uniqueness, scheme)
    added = scheme.set("LOG").mapping("UniqueMapping")
    assert added is not None
    assert added.one_to_one and added.total and added.codomain == AsciiRange(255)
    assert len(log.actions) == 1
    assert any(d.severity == INFO for d in log.diagnostics)
    snapshot = copy.deepcopy(scheme)
    assert _run(ensure_uniqueness, scheme).actions == [] and scheme == snapshot


def test_rule_ix_skips_sets_with_uniqueness(teaching_model):
    result = translate(teaching_model)
    assert not any(a.rule == "ix" for a in result.report.enrichment_actions)
    for s in result.scheme.sets:
        assert s.mapping("UniqueMapping") is None


def test_rule_ix_skips_relationship_with_structural_key():
    scheme = _pre_enrichment_scheme(TOTALITY_SOURCE)
    actions = _run(enrich_scheme, scheme).actions
    link = scheme.set("L")
    assert link.mapping("UniqueMapping") is None
    assert any(a.rule == "vii" for a in actions)


# --- the full pass ---


def test_full_pass_is_idempotent():
    scheme = _pre_enrichment_scheme(TOTALITY_SOURCE)
    actions = _run(enrich_scheme, scheme).actions
    snapshot = copy.deepcopy(scheme)
    actions2 = _run(enrich_scheme, scheme).actions
    assert actions and not actions2
    assert scheme == snapshot


def test_rules_change_the_given_scheme_in_place():
    sources = {
        ensure_totality: TOTALITY_SOURCE,
        collapse_binary_relationships: MARRIAGE_SOURCE,
        ensure_structural_key: TOTALITY_SOURCE,
        ensure_compulsory: CLASH_SOURCE,
        ensure_uniqueness: CLASH_SOURCE,
        enrich_scheme: CLASH_SOURCE,
    }
    for rule, source in sources.items():
        scheme = _pre_enrichment_scheme(source)
        before = copy.deepcopy(scheme)
        log = _run(rule, scheme)
        assert log.actions and scheme != before, rule.__name__


def _linear_set(model: ERModel, name: str):
    return next((s for d in model.diagrams for s in d.sets if s.name == name), None)


def test_model_and_scheme_indexes_agree_with_linear_scans(teaching_model):
    duplicated = ERModel(diagrams=(
        Diagram("one", (ObjectSet("A", "entity"),)),
        Diagram("two", (ObjectSet("A", "relationship"), ObjectSet("B", "entity"))),
    ))
    models = [teaching_model, parse_model(MARRIAGE_SOURCE), parse_model(CLASH_SOURCE)]
    models += [random_model(seed) for seed in range(300)]
    for model in models + [duplicated]:
        names = {s.name for s in model.object_sets()} | {r.target for r in model.restrictions}
        for name in names | {"NO_SUCH_SET"}:
            assert model.set(name) is _linear_set(model, name), name
            assert model.restrictions_on(name) == [
                r for r in model.restrictions if r.target == name
            ], name
    assert duplicated.set("A").kind == "entity"

    collapses = 0
    for model in models:
        result = translate(model)
        collapsed = [a.target.removeprefix("set:") for a in result.report.enrichment_actions
                     if a.rule == "viii"]
        collapses += len(collapsed)
        reloaded = load_structured(emit_structured(result.scheme))
        for scheme in (result.scheme, reloaded):
            for s in scheme.sets:
                assert scheme.set(s.name) is s, s.name
            for name in collapsed:
                assert scheme.set(name) is None, name
    assert collapses > 2


def test_rule_v_scheme_without_roles_records_no_actions():
    scheme = _pre_enrichment_scheme(
        "diagram D { entity A card 10 { attr a } }\n"
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
    )
    assert _run(ensure_totality, scheme).actions == []


def test_rule_vi_and_ix_exempt_computed_sets():
    scheme = _pre_enrichment_scheme(
        'diagram D { entity A card 10 { attr a } computed V = "a view" { } }\n'
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
    )
    vi_actions = _run(ensure_compulsory, scheme).actions
    ix_actions = _run(ensure_uniqueness, scheme).actions
    assert vi_actions == [] and ix_actions == []


def test_label_allocation_starts_at_r01_when_no_labels_exist():
    from erdmc.enrichment import next_label
    from erdmc.scheme import EMDMScheme

    assert next_label(EMDMScheme()) == "R01"


def test_label_allocation_continues_from_largest():
    scheme = _pre_enrichment_scheme(TOTALITY_SOURCE)
    actions = _run(ensure_structural_key, scheme).actions
    labels = [lbl for a in actions for lbl in a.resulting_labels]
    assert labels == ["R05"]  # fixture declares R01-R04


def test_label_allocation_numbers_every_key_of_one_pass():
    scheme = _pre_enrichment_scheme(
        "diagram D {\n"
        "  entity A card 10 { attr a }\n"
        "  entity B card 10 { attr b }\n"
        "  relationship L1 { role p -> A role q -> B }\n"
        "  relationship L2 { role p -> A role q -> B }\n"
        "  relationship L3 { role p -> A role q -> B }\n"
        "}\n"
        "restriction R98 on A compulsory a\n"
    )
    before = copy.deepcopy(scheme)
    actions = _run(ensure_structural_key, scheme).actions
    # Each label is what a fresh scan gives once the keys before it are in.
    rescanned = []
    for name in ("L1", "L2", "L3"):
        rescanned.append(next_label(before))
        before.set(name).keys.extend(scheme.set(name).keys)
    labels = [lbl for a in actions for lbl in a.resulting_labels]
    assert labels == rescanned == ["R99", "R100", "R101"]


def test_label_allocation_ignores_labels_that_only_begin_like_rnn():
    result = translate(parse_model(
        "diagram D {\n"
        "  entity A card 10 { attr a }\n"
        "  entity B card 10 { attr b }\n"
        "  relationship L { role p -> A role q -> B }\n"
        "}\n"
        "restriction R7x on A compulsory a\n"
    ))
    assert result.scheme is not None
    assert "restriction:R7x[a]" in result.scheme.provenance.values()
    assert [k.label for k in result.scheme.set("L").keys] == ["R01"]


def test_interactive_prompter_is_consulted_and_recorded():
    questions = []

    def prompter(question):
        questions.append(question)
        return "(forall x in A)(forall y in B)(a(x) <> b(y))"

    source = (
        "diagram D { entity A card 10 { attr a } entity B card 10 { attr b } }\n"
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
        "restriction R03 on B compulsory b\nrestriction R04 on B unique b\n"
        "restriction R05 on A other informal \"disjoint\"\n"
    )
    result = translate(
        parse_model(source),
        TranslationOptions(prompter=prompter),
    )
    assert result.scheme is not None
    assert [q.subject for q in questions] == ["R05"]
    pending = result.report.pending_questions
    assert [p.origin for p in pending] == ["prompt"]
    trailing = [c for c in result.scheme.constraints
                if c.__class__.__name__ == "NonrelationalConstraint"]
    assert trailing[0].formula is not None


def test_post_enrichment_guarantees_hold_under_fuzz():
    from erdmc.scheme import GENERATED, OBJECT_IDENTIFIER, RELATIONSHIP_DERIVED, ROLE

    for seed in range(120):
        result = translate(random_model(seed))
        assert result.scheme is not None, seed
        for s in result.scheme.sets:
            if s.kind == "computed":
                continue
            assert s.object_identifier.total and s.object_identifier.one_to_one
            roles = s.role_mappings()
            for role in roles:
                assert role.total, (seed, s.name, role.name)
            if s.kind == RELATIONSHIP_DERIVED:
                role_names = {m.name for m in roles}
                has_structural = any(
                    set(k.mappings) <= role_names for k in s.keys
                ) or any(m.one_to_one for m in roles)
                assert has_structural, (seed, s.name)
            assert any(m.total for m in s.mappings), (seed, s.name)
            assert s.keys or any(m.one_to_one for m in s.mappings), (seed, s.name)


# --- every diagnostic of the rules and the translator fires somewhere ---


def _entities(extra: str = "", restrictions: str = "") -> str:
    """Source of entities A and B, each with a compulsory unique member, and *extra*."""
    return (
        "diagram D {\n"
        f"  entity A card 10 {{ attr a : ascii(5) }}\n"
        f"  entity B card 10 {{ attr b : ascii(5) }}\n  {extra}\n}}\n"
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
        "restriction R03 on B compulsory b\nrestriction R04 on B unique b\n"
        + restrictions
    )


_INFORMAL = 'restriction R05 on A other informal "no two alike"\n'

# One model per diagnostic code of the enrichment rules and the translator:
# (code, source, translation options) such that translating draws the code.
RULE_CASES = [
    ("cardinality-defaulted", _entities("entity C { attr c : ascii(5) }"), {}),
    ("cardinality-clamped", _entities(), {"dbms_max_cardinality": 5}),
    ("range-defaulted", _entities("entity C card 10 { attr c }"), {}),
    ("computed-dropped", _entities("computed V { }"), {}),
    ("computed-definition-supplied", _entities("computed V { }"),
     {"answers": {"V": {"computed-definition": "all of A"}}}),
    ("totality-added", _entities("relationship L { role p -> A role q -> B }"), {}),
    ("structural-key-added", _entities("relationship L { role p -> A role q -> B }"), {}),
    ("relationship-collapsed",
     _entities("relationship L { role p -> A unique role q -> B }"), {}),
    ("collapse-default-direction",
     _entities("relationship L { role p -> A unique role q -> B unique }"), {}),
    ("collapse-skipped",
     _entities("relationship L { role p -> A unique role q -> B attr w : ascii(5) }"), {}),
    ("compulsory-added", _entities("entity C card 10 { attr c : ascii(5) }"), {}),
    ("uniqueness-added", _entities("entity C card 10 { attr c : ascii(5) }"), {}),
    ("name-clash", _entities("entity C card 10 { attr Compulsory : ascii(5) }"), {}),
    ("reference-cycle",
     _entities("entity C card 10 { fn f -> E } entity E card 10 { fn g -> C }"), {}),
    ("unformalized", _entities(restrictions=_INFORMAL), {}),
    ("bad-formalization", _entities(restrictions=_INFORMAL),
     {"answers": {"R05": {"formalization": "(forall x in A)("}}}),
]


@pytest.mark.parametrize("code, source, options", RULE_CASES,
                         ids=[code for code, _, _ in RULE_CASES])
def test_each_rule_diagnostic_code_fires(code, source, options):
    result = translate(parse_model(source), TranslationOptions(**options))
    assert code in [d.code for d in result.report.diagnostics]


# Where each call that records a diagnostic takes its code: EnrichmentLog.record
# takes it second, after the action.
_CODE_ARGUMENT = {"record": 1, "add": 0, "_ensure_fallback": 6}


def test_every_rule_diagnostic_code_has_a_case():
    codes = set()
    for module in (erdmc.enrichment, erdmc.translator):
        for call in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            position = _CODE_ARGUMENT.get(name, len(call.args))
            if position < len(call.args) and isinstance(call.args[position], ast.Constant):
                codes.add(call.args[position].value)
    assert len(codes) >= 15
    assert codes == {code for code, _, _ in RULE_CASES}
