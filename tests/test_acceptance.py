"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

from __future__ import annotations

import copy
import json
import time

from erdmc.census import census, verify_translation
from erdmc.emitter import emit_structured, emit_text, encode_report, load_structured
from erdmc.enrichment import (
    EnrichmentLog,
    apply_input_defaults,
    collapse_binary_relationships,
    ensure_compulsory,
    ensure_structural_key,
    ensure_totality,
    ensure_uniqueness,
)
from erdmc.formula import format_formula, parse_formula, quantifier_count
from erdmc.generator import random_model, sized_model
from erdmc.model import OtherBody, validate_model
from erdmc.parser import parse_model
from erdmc.scheme import NonrelationalConstraint, TupleConstraint
from erdmc.translator import TranslationOptions, Translator, translate

_GLYPHS = {
    "→": "->", "↔": "<->", "•": ".", "∀": "forall",
    "∈": "in", "≠": "<>", "∧": "&", "⇒": "=>",
    "≤": "<=", "≥": ">=", "⊆": "subset_of",
}


def _normalize_tokens(text: str) -> list[str]:
    for glyph, ascii_form in _GLYPHS.items():
        text = text.replace(glyph, f" {ascii_form} ")
    for punct in "()[]{},:":
        text = text.replace(punct, f" {punct} ")
    return text.split()


def _translation_properties_hold(model, options=TranslationOptions()) -> None:
    """Assert linearity, soundness, completeness, and optimality for *model*."""
    result = translate(model, options)
    assert result.scheme is not None, [
        d.render() for d in result.report.diagnostics if d.is_error
    ]
    failures = {k: v for k, v in verify_translation(result).items() if v}
    assert failures == {}


def test_criterion_golden_reproduction(teaching_source, golden_scheme_text):
    started = time.perf_counter()
    model = parse_model(teaching_source)
    result = translate(model)
    text = emit_text(result.scheme)
    elapsed = time.perf_counter() - started

    assert _normalize_tokens(text) == _normalize_tokens(golden_scheme_text)
    unicode_text = emit_text(result.scheme, unicode=True)
    assert _normalize_tokens(unicode_text) == _normalize_tokens(golden_scheme_text)

    digits = {s.name: s.object_identifier.codomain.digits for s in result.scheme.sets}
    assert digits == {
        "STUDENTS": 5, "TEACHERS": 3, "DISCIPLINES": 3, "ROOMS": 3,
        "CLASSES": 4, "SCHEDULES": 5, "ATTENDANCES": 9, "COMPETENCES": 4,
    }
    for set_name in ("STUDENTS", "TEACHERS"):
        ssn = result.scheme.set(set_name).mapping("SSN")
        assert ssn.one_to_one and ssn.total
    grade = result.scheme.set("ATTENDANCES").mapping("Grade")
    assert not grade.total

    assert "R32: Date . Schedule key" in text
    assert "R33: Room . Weekday . StartH key" in text
    assert "R34: Room . Weekday . EndH key" in text
    for absorbed in ("R35", "R36", "R42"):
        assert absorbed not in text
    schedules_block = next(b for b in text.split("\n\n") if b.startswith("SCHEDULES"))
    assert "R37: (forall x in SCHEDULES)(StartH(x) < EndH(x))" in schedules_block
    trailing = text.split("\n\n")[-1]
    for label in ("R38", "R39", "R40", "R41"):
        assert f"{label}: (forall" in trailing

    doc = json.loads(emit_structured(result.scheme, encode_report(result.report)))
    schedules = next(s for s in doc["sets"] if s["name"] == "SCHEDULES")
    r42 = next(k for k in schedules["keys"] if k["label"] == "R42")
    assert r42["implicit"] is True and r42["mappings"] == ["Room", "Competence"]
    assert doc["provenance"]["key:SCHEDULES.R42"].startswith("enrichment:")
    review_note = next(
        n for n in doc["report"]["implicit_keys"] if n["label"] == "R42"
    )
    assert review_note["origin"] == "generated"
    assert any(
        "review" in d["message"] and "R42" in d["message"]
        for d in doc["report"]["diagnostics"]
    )

    assert elapsed < 1.0, f"golden translation took {elapsed:.3f}s"
    print("\nACCEPTANCE golden-reproduction: PASS")


def test_criterion_translation_properties(teaching_model):
    started = time.perf_counter()
    _translation_properties_hold(teaching_model)

    checked = 0
    for seed in range(950):
        _translation_properties_hold(random_model(seed))
        checked += 1
    for seed in range(100):  # large tier: up to 50 sets, 200 attributes, 100 restrictions
        model = random_model(
            10_000 + seed,
            max_entities=35, max_relationships=14, max_computed=1,
            max_attributes=6, max_restrictions=100,
        )
        assert validate_model(model).errors == []
        _translation_properties_hold(model)
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 1000
    assert elapsed < 30.0, f"fuzz run took {elapsed:.1f}s"
    print(f"\nACCEPTANCE translation-properties: PASS ({checked + 1} models, {elapsed:.1f}s)")


def test_criterion_linearity_across_scales():
    for target in (10, 100, 1000):
        model = sized_model(target, target)
        expected = census(model)
        result = translate(model)
        assert result.scheme is not None
        assert len(result.report.steps) == expected.total
        assert result.report.tallies.as_dict() == expected.as_dict()
    print("\nACCEPTANCE linearity-scales: PASS")


def _pre_enrichment(source: str):
    translator = Translator(parse_model(source))
    translator._enrich = lambda: None
    result = translator.run()
    assert result.scheme is not None
    return result.scheme


def _run(rule, scheme) -> EnrichmentLog:
    log = EnrichmentLog()
    rule(scheme, log)
    return log


def test_criterion_enrichment_rules(teaching_model):
    # (i) missing cardinality -> DBMS maximum, one info
    model = parse_model("diagram D { entity A { attr a } }")
    outcome = apply_input_defaults(model, 10 ** 9)
    assert outcome.model.set("A").max_cardinality == 10 ** 9
    fired = [d for d in outcome.diagnostics if d.code == "cardinality-defaulted"]
    assert len(fired) == 1 and fired[0].severity == "info"
    assert apply_input_defaults(outcome.model, 10 ** 9).model == outcome.model

    # (ii) oversized cardinality -> clamped, one warning
    model = parse_model("diagram D { entity A card 5000 { attr a } }")
    outcome = apply_input_defaults(model, 100)
    assert outcome.model.set("A").max_cardinality == 100
    fired = [d for d in outcome.diagnostics if d.code == "cardinality-clamped"]
    assert len(fired) == 1 and fired[0].severity == "warning"
    assert apply_input_defaults(outcome.model, 100).model == outcome.model

    # (iii) missing range -> ASCII(255), one info
    model = parse_model("diagram D { entity A card 10 { attr Notes } }")
    outcome = apply_input_defaults(model, 10 ** 9)
    from erdmc.model import AsciiRange

    assert outcome.model.set("A").attributes[0].range == AsciiRange(255)
    fired = [d for d in outcome.diagnostics if d.code == "range-defaulted"]
    assert len(fired) == 1 and fired[0].severity == "info"
    assert apply_input_defaults(outcome.model, 10 ** 9).model == outcome.model

    # (iv) computed set without definition -> dropped, one warning
    model = parse_model("diagram D { entity A card 10 { attr a } computed V { } }")
    outcome = apply_input_defaults(model, 10 ** 9)
    assert outcome.model.set("V") is None
    fired = [d for d in outcome.diagnostics if d.code == "computed-dropped"]
    assert len(fired) == 1 and fired[0].severity == "warning"
    assert apply_input_defaults(outcome.model, 10 ** 9).model == outcome.model

    # (v) roles become total, one info per role
    scheme = _pre_enrichment(
        "diagram D { entity A card 10 { attr a }\n"
        "  relationship L { role ra -> A role rb -> A } }\n"
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
    )
    log = _run(ensure_totality, scheme)
    assert all(m.total for m in scheme.set("L").role_mappings())
    assert len(log.actions) == 2
    assert all(d.severity == "info" for d in log.diagnostics)
    assert _run(ensure_totality, scheme).actions == []

    # (vi) no compulsory mapping -> Compulsory added, info
    scheme = _pre_enrichment(
        "diagram D { entity LOG card 10 { attr Note } }\n"
        "restriction R01 on LOG unique Note\n"
    )
    log = _run(ensure_compulsory, scheme)
    added = scheme.set("LOG").mapping("Compulsory")
    from erdmc.model import AsciiRange as _Ascii

    assert added.total and added.codomain == _Ascii(255)
    assert len(log.actions) == 1 and any(d.severity == "info" for d in log.diagnostics)
    assert _run(ensure_compulsory, scheme).actions == []

    # (vii) reproduces the generated key on the teaching fixture, verbatim
    result = translate(teaching_model)
    firing = next(a for a in result.report.enrichment_actions if a.rule == "vii")
    assert firing.description == "R42: Room • Competence"
    key = next(k for k in result.scheme.set("SCHEDULES").keys if k.label == "R42")
    assert key.mappings == ("Room", "Competence") and key.implicit
    assert _run(ensure_structural_key, result.scheme).actions == []

    # (viii) both-unique binary relationship collapses per the scripted choice
    marriage = (
        "diagram D {\n"
        "  entity MEN card 10^3 { attr Name }\n"
        "  entity WOMEN card 10^3 { attr Name }\n"
        "  relationship MARRIAGE { role husband -> MEN unique role wife -> WOMEN unique }\n"
        "}\n"
        "restriction R01 on MEN compulsory Name\nrestriction R02 on MEN unique Name\n"
        "restriction R03 on WOMEN compulsory Name\nrestriction R04 on WOMEN unique Name\n"
        "restriction R05 on MARRIAGE compulsory husband, wife\n"
    )
    result = translate(
        parse_model(marriage),
        TranslationOptions(answers={"MARRIAGE": {"bijection-direction": "MEN->WOMEN"}}),
    )
    mapping = result.scheme.set("MEN").mapping("MARRIAGE")
    assert mapping.one_to_one and mapping.total and mapping.codomain == "WOMEN"
    assert result.scheme.set("MARRIAGE") is None
    assert any(d.code == "relationship-collapsed" and d.severity == "info"
               for d in result.report.diagnostics)
    before = copy.deepcopy(result.scheme)
    assert _run(collapse_binary_relationships, result.scheme).actions == []
    assert result.scheme == before

    # (ix) no uniqueness at all -> UniqueMapping added, info
    scheme = _pre_enrichment(
        "diagram D { entity LOG card 10 { attr Note } }\n"
        "restriction R01 on LOG compulsory Note\n"
    )
    log = _run(ensure_uniqueness, scheme)
    added = scheme.set("LOG").mapping("UniqueMapping")
    assert added.one_to_one and added.total and added.codomain == _Ascii(255)
    assert len(log.actions) == 1 and any(d.severity == "info" for d in log.diagnostics)
    assert _run(ensure_uniqueness, scheme).actions == []

    print("\nACCEPTANCE enrichment-rules: PASS (9 rules)")


def test_criterion_formula_round_trip(teaching_model):
    formalized = [
        r for r in teaching_model.restrictions
        if isinstance(r.body, OtherBody) and r.body.formal is not None
    ]
    assert [r.label for r in formalized] == ["R37", "R38", "R39", "R40", "R41"]
    for r in formalized:
        printed = format_formula(r.body.formal)
        assert parse_formula(printed) == r.body.formal
        glyphs = format_formula(r.body.formal, unicode=True)
        assert parse_formula(glyphs) == r.body.formal

    counts = {r.label: quantifier_count(r.body.formal) for r in formalized}
    assert counts == {"R37": 1, "R38": 2, "R39": 4, "R40": 4, "R41": 2}

    result = translate(teaching_model)
    tuple_labels = [c.label for c in result.scheme.constraints
                    if isinstance(c, TupleConstraint)]
    trailing_labels = [c.label for c in result.scheme.constraints
                       if isinstance(c, NonrelationalConstraint)]
    assert tuple_labels == ["R37"]
    assert trailing_labels == ["R38", "R39", "R40", "R41"]
    print("\nACCEPTANCE formula-round-trip: PASS")


def test_criterion_structured_round_trip(teaching_model):
    result = translate(teaching_model)
    assert load_structured(emit_structured(result.scheme)) == result.scheme
    for seed in range(100):
        fuzzed = translate(random_model(seed)).scheme
        assert fuzzed is not None, seed
        assert load_structured(emit_structured(fuzzed)) == fuzzed
    print("\nACCEPTANCE structured-round-trip: PASS (golden + 100 fuzzed)")
