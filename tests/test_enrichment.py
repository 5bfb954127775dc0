from __future__ import annotations

import copy
import json

from erdmc.cli import main
from erdmc.diagnostics import INFO, WARNING, Diagnostic
from erdmc.enrichment import (
    EnrichmentAction,
    PendingQuestion,
    Question,
    apply_actions,
    apply_input_defaults,
    collapse_binary_relationships,
    enrich_scheme,
    ensure_compulsory,
    ensure_structural_key,
    ensure_totality,
    ensure_uniqueness,
)
from erdmc.generator import random_model
from erdmc.model import AsciiRange, ERModel
from erdmc.parser import parse_model
from erdmc.scheme import check_scheme
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
        model, DBMS_MAX, answers={"V": {"computed-definition": "all of it"}}
    )
    assert outcome.model.set("V").computed_definition == "all of it"
    assert [p.origin for p in outcome.pending] == ["answers"]


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
        parse_model(MEMBERS_SOURCE), DBMS_MAX, json.loads(answers_path.read_text())
    )
    assert [a.details for a in outcome.actions] == [
        {"definition": "a + 1"}, {"definition": "B.b"},
    ]
    a = outcome.model.set("A")
    assert a.attributes[1].computed_definition == "a + 1"
    assert a.structural_functions[0].computed_definition == "B.b"


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
    out, actions, diags = ensure_totality(scheme)
    roles = out.set("L").role_mappings()
    assert all(m.total for m in roles)
    assert len(actions) == 2
    assert all(d.severity == INFO and d.code == "totality-added" for d in diags)
    out2, actions2, _ = ensure_totality(out)
    assert actions2 == []
    assert out2 == out


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
    out, actions, diags = ensure_compulsory(scheme)
    added = out.set("LOG").mapping("Compulsory")
    assert added is not None
    assert added.total and added.codomain == AsciiRange(255)
    assert added.flavor == "enrichment-generated"
    assert len(actions) == 1
    assert any(d.severity == INFO and d.code == "compulsory-added" for d in diags)
    out2, actions2, _ = ensure_compulsory(out)
    assert actions2 == [] and out2 == out


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
    out, actions, diags = ensure_compulsory(scheme)
    assert out.set("LOG").mapping("Compulsory1") is not None
    assert any(d.code == "name-clash" and d.severity == WARNING for d in diags)


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
    out2, actions2, _ = ensure_structural_key(result.scheme)
    assert actions2 == [] and out2 == result.scheme


def test_rule_vii_skips_declared_full_role_key(teaching_model):
    result = translate(teaching_model)
    attendances = result.scheme.set("ATTENDANCES")
    assert [k.label for k in attendances.keys] == ["R35"]


def test_rule_vii_ignores_entity_sets():
    scheme = _pre_enrichment_scheme(
        "diagram D { entity A card 10 { attr a } }\n"
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
    )
    out, actions, _ = ensure_structural_key(scheme)
    assert actions == []
    assert out.set("A").keys == []


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


def test_rule_viii_idempotent_second_pass():
    scheme = _pre_enrichment_scheme(MARRIAGE_SOURCE)
    once, actions, diags, _ = collapse_binary_relationships(scheme)
    twice, actions2, _, _ = collapse_binary_relationships(once)
    assert actions and not actions2
    assert twice == once


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
    enriched, _, diags, _ = enrich_scheme(_pre_enrichment_scheme(CLASH_SOURCE))
    assert [d.element for d in diags if d.code == "name-clash"] == [
        "MEN.MARRIAGE1", "LOG.Compulsory1", "LOG.UniqueMapping1",
    ]
    assert enriched.set("MEN").mapping("MARRIAGE1").codomain == "WOMEN"


def test_rule_viii_completeness_survives_collapse():
    model = parse_model(MARRIAGE_SOURCE)
    result = translate(model)
    covered = set(result.scheme.provenance.values())
    from erdmc.model import source_universe

    for ref in source_universe(model):
        assert ref in covered or any(v.startswith(f"{ref}[") for v in covered), ref


# --- rule (ix): sets without uniqueness gain UniqueMapping ---


def test_rule_ix_adds_unique_mapping():
    scheme = _pre_enrichment_scheme(
        "diagram D { entity LOG card 10 { attr Note } }\n"
        "restriction R01 on LOG compulsory Note\n"
    )
    out, actions, diags = ensure_uniqueness(scheme)
    added = out.set("LOG").mapping("UniqueMapping")
    assert added is not None
    assert added.one_to_one and added.total and added.codomain == AsciiRange(255)
    assert len(actions) == 1
    assert any(d.severity == INFO for d in diags)
    out2, actions2, _ = ensure_uniqueness(out)
    assert actions2 == [] and out2 == out


def test_rule_ix_skips_sets_with_uniqueness(teaching_model):
    result = translate(teaching_model)
    assert not any(a.rule == "ix" for a in result.report.enrichment_actions)
    for s in result.scheme.sets:
        assert s.mapping("UniqueMapping") is None


def test_rule_ix_skips_relationship_with_structural_key():
    scheme = _pre_enrichment_scheme(TOTALITY_SOURCE)
    enriched, actions, _, _ = enrich_scheme(scheme)
    link = enriched.set("L")
    assert link.mapping("UniqueMapping") is None
    assert any(a.rule == "vii" for a in actions)


# --- the full pass ---


def test_full_pass_is_idempotent():
    scheme = _pre_enrichment_scheme(TOTALITY_SOURCE)
    once, actions, _, _ = enrich_scheme(scheme)
    twice, actions2, _, _ = enrich_scheme(once)
    assert actions and not actions2
    assert twice == once


def test_recorded_actions_replay_to_the_same_scheme():
    sources = [TOTALITY_SOURCE, MARRIAGE_SOURCE, CLASH_SOURCE]
    sources += [random_model(seed) for seed in range(300)]
    for source in sources:
        scheme = _pre_enrichment_scheme(source)
        before = copy.deepcopy(scheme)
        enriched, actions, _, _ = enrich_scheme(scheme)
        assert apply_actions(before, actions) == enriched


def test_rule_v_scheme_without_roles_records_no_actions():
    scheme = _pre_enrichment_scheme(
        "diagram D { entity A card 10 { attr a } }\n"
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
    )
    _, actions, _ = ensure_totality(scheme)
    assert actions == []


def test_rule_vi_and_ix_exempt_computed_sets():
    scheme = _pre_enrichment_scheme(
        'diagram D { entity A card 10 { attr a } computed V = "a view" { } }\n'
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
    )
    _, vi_actions, _ = ensure_compulsory(scheme)
    _, ix_actions, _ = ensure_uniqueness(scheme)
    assert vi_actions == [] and ix_actions == []


def test_label_allocation_starts_at_r01_when_no_labels_exist():
    from erdmc.enrichment import next_label
    from erdmc.scheme import EMDMScheme

    assert next_label(EMDMScheme()) == "R01"


def test_label_allocation_continues_from_largest():
    scheme = _pre_enrichment_scheme(TOTALITY_SOURCE)
    _, actions, _ = ensure_structural_key(scheme)
    labels = [lbl for a in actions for lbl in a.resulting_labels]
    assert labels == ["R05"]  # fixture declares R01-R04


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
        TranslationOptions(interactive=True, prompter=prompter),
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
