"""Byte-identity guard: sha256 digests of every output on fixed generated models.

The digests of the generated models were taken before rule (viii) and the
model lookups were indexed, and their structured and report digests again
when the implicit-key inventory came to list only the keys that the finished
scheme holds; those of the answered model, before the
enrichment rules shared one log; the ``--unicode`` digests, before the
printers took their glyphs from the lexer's table; those of the
every-codomain model, while json.dumps still wrote the structured document
and the report; those of the mutation corpus's parse errors, while tokens
still carried a line and a column, and again when an unexpected end of input
came to be named as such; those of the validation corpus, while
validate_model kept one accumulator per kind of declaration; those of the
bulk model, while the input defaults rebuilt records with
dataclasses.replace; those of the first five shapes, while rescans made their
translation quadratic, and of the sixth while is_implicit_key still walked its
set's mappings once per key. A change meant
to keep the output as it is must leave them as they are; a change meant to
alter the output updates them in the same commit and says why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from erdmc.census import verify_translation
from erdmc.diagnostics import ParseFailure
from erdmc.emitter import emit_structured, emit_text, encode_report
from erdmc.formula import Compare, Forall, Var
from erdmc.generator import random_model, sized_model
from erdmc.model import (
    AsciiRange,
    Attribute,
    CardinalityBody,
    CompulsoryBody,
    DateBound,
    ERModel,
    FuncBound,
    InclusionBody,
    IntBound,
    Interval,
    NatRange,
    ObjectSet,
    OtherBody,
    Pow10Bound,
    RangeBody,
    Restriction,
    Role,
    StructuralFunction,
    UniquenessBody,
    validate_model,
)
from erdmc.parser import parse_model
from erdmc.translator import TranslationOptions, translate

FIXTURES = Path(__file__).parent / "fixtures"

# The relational workload's limits, as perfbench/workloads.py sets them.
RELATIONAL_LIMITS = dict(
    max_entities=800, max_relationships=400, max_computed=40,
    max_attributes=6, max_restrictions=6400,
)


def _outputs(model, options=None) -> tuple[str, str, str]:
    """Text, structured and report output, as `erdmc translate` writes them."""
    result = translate(model, options)
    report = encode_report(result.report)
    assert result.scheme is not None
    return emit_text(result.scheme), emit_structured(result.scheme, report), report


def _unicode_digest(models, options=None) -> str:
    """The digest of `erdmc translate --unicode` text output."""
    h = hashlib.sha256()
    for model in models:
        scheme = translate(model, options).scheme
        assert scheme is not None
        h.update(emit_text(scheme, unicode=True).encode())
    return h.hexdigest()


def _digests(models, options=None) -> tuple[str, str, str]:
    hashes = [hashlib.sha256() for _ in range(3)]
    for model in models:
        for h, out in zip(hashes, _outputs(model, options)):
            h.update(out.encode())
    return tuple(h.hexdigest() for h in hashes)


RELATIONAL_DIGESTS = (
    "4884dcdcfd8495d10d1d0494a0782d0540711787ddc1da9b9d801563c354f701",
    "6da39928b82b3e0027239e95a8bb3debd4bd06d7c9043bf20ead1e039372cf1f",
    "0eaf6efbab5c0bf7dbc99ae9b1dca09ea7eea8d8c670ad570cd5bcdec8e73ba7",
)


def test_relational_model_outputs_are_pinned():
    assert _digests([random_model(3, **RELATIONAL_LIMITS)]) == RELATIONAL_DIGESTS


def test_small_random_model_outputs_are_pinned():
    assert _digests(random_model(seed) for seed in range(50)) == (
        "d42825f0a00cfda58858460eee1801d4813f8f9187da26896dd8071aeeb840e2",
        "d60fc6e3ab3e741c3fdb9bf61f537ce16e95dd24fd75295f4bef6e397deadefb",
        "7f69fcb82548f18148fdf45cdfd3af355fb1df470394446f1a329446ed33c1dd",
    )


# Rule (iii) gives every attribute of a bulk model its range, and rules (i),
# (vi) and (ix) fire on some of its sets.
def test_bulk_model_outputs_are_pinned():
    assert _digests([sized_model(1, 500)]) == (
        "6a2f902b0115b70a17084c846d5c56dfec2dc2860e7eff49409e4631707aedea",
        "787f1b786c17a18173ebbf94ea4813a59c7dc12d313403685b2f033065126c23",
        "6a89c6992bc9e6851db33832ac134134f9f48ef6c8e0f6cc9e5ee215ad3d7ec6",
    )


# Six shapes of n elements that rescans once made quadratic to translate:
# relationships that collapse (rule viii), one set whose attributes are each
# made unique by a restriction, sets that reference a two-set cycle, one set
# whose attributes each carry a formal tuple check, relationships that
# all collapse onto one home, and one relationship whose attributes each
# join a role in a key.
SHAPES = {
    "collapse": lambda n: "diagram D {\n" + "".join(
        f"  entity E{i} {{ attr a }}\n  entity F{i} {{ attr b }}\n"
        f"  relationship R{i} {{ role p -> E{i} unique role q -> F{i} }}\n" for i in range(n)
    ) + "}\n",
    "wide": lambda n: (
        "diagram D {\n  entity A {" + "".join(f" attr a{k}" for k in range(1, n + 1)) + " }\n}\n"
        + "".join(f"restriction R{k} on A unique a{k}\n" for k in range(1, n + 1))
    ),
    "cycle-blocked": lambda n: "diagram D {\n" + "".join(
        f"  entity A{i} {{ attr a fn f -> X }}\n" for i in range(n)
    ) + "  entity X { attr a fn g -> Y }\n  entity Y { attr b fn h -> X }\n}\n",
    "wide-checked": lambda n: (
        "diagram D {\n  entity A {" + "".join(f" attr a{k}" for k in range(1, n + 1)) + " }\n}\n"
        + "".join(f'restriction R{k} on A other formal (forall x in A)(a{k}(x) = "v")\n'
                  for k in range(1, n + 1))
    ),
    "one-home": lambda n: "diagram D {\n  entity H { attr h }\n" + "".join(
        f"  entity F{i} {{ attr b }}\n"
        f"  relationship R{i} {{ role p -> H unique role q -> F{i} }}\n" for i in range(n)
    ) + "}\n",
    "implicit-keys": lambda n: (
        "diagram D {\n  entity P { attr u }\n  entity Q { attr v }\n"
        "  relationship R { role p -> P role q -> Q"
        + "".join(f" attr a{k}" for k in range(1, n + 1)) + " }\n}\n"
        + "".join(f"restriction R{k} on R unique p, a{k}\n" for k in range(1, n + 1))
    ),
}


@pytest.mark.parametrize("shape, digests", [
    ("collapse", (
        "2a28469817ef15e854b082c79e2a47a295221aff2395a3ff7d4e5a58cdb2eae5",
        "232bfeec53e7bc0c46a7be8baf64c0b2428e790c6bdf247532b030dfe4d66d50",
        "718d5fe3eb2e3548a37ef04d2c19fe7ddfcbe7488d7f844eafd31c05114f9493",
    )),
    ("wide", (
        "b264b04aebb8c85a42c3844d1e24f16cddab0cb1c77cc59e5fbbd2ad136bb35c",
        "21ce8e2d2f49670c8204368007f31067bda9d5caba7d9cc87457ebf1d4320538",
        "3759d2f560c8360a9b7c9911dff4a909fb550229987dae96f77b545266f594da",
    )),
    ("cycle-blocked", (
        "9fd1f6f7f664299c3ae98e3ee6117e48b982dc30afab1b7bfa93b4cd035491be",
        "c7d720a0adb1adafdba06d6f7afed0ac52e4e72cf79b11e741b0c4c9710ef218",
        "f3a28d8dc841b75b6162673e688b52975f0c53fd54321fd04dabde6397fc502a",
    )),
    ("wide-checked", (
        "b19327f12200f61e3e56b1a5c146e11525cc0664b7670429e7bf407ec5ce0f20",
        "33c815def53d7f8d454817e012f574ae0a928bd6f8a831ed4fd19c5d40db3e1b",
        "42694ede1cb9d7ef5b62fa5a0a3944723da67eb8df2c6e8e8a98838cfbd65259",
    )),
    ("one-home", (
        "e6eeb26fd69b333c42429a7bf372bc8f12307996badf4449dab9ce573122f432",
        "23f63cea6d1e31f4ee8a8a08245f1518c75a9dba510437e3a0d50b8f79901e66",
        "754758aecce668b83174faa1cc638a38b5bc4c694e957bbdd27dd8e5f9788ef1",
    )),
    ("implicit-keys", (
        "94aa9b0c44fc342107885f1d4713406c29065ef2e9a584c71f253f6ab3147d15",
        "5bd7f0709ba4591dbbc8102b4e541ac831103403eb5df7ab2e0e7384a05a0f4b",
        "867d8dea05bd62599a2dd3d574dc4fffb5b423bd988a7e0eca8bb42062cd52e0",
    )),
])
def test_shape_outputs_are_pinned(shape, digests):
    assert _digests([parse_model(SHAPES[shape](50))]) == digests


# Every question kind, answered from the answers document, by the prompter,
# or by neither: three bijection directions, computed definitions filled and
# dropped for a set, an attribute and a function, and formalizations that
# parse, do not parse, or stay informal.
ANSWERED_SOURCE = """\
diagram Answers {
  entity MEN { attr name }
  entity WOMEN { attr name }
  entity A {
    attr size
    attr c computed = ""
    attr d computed = ""
    fn g -> B computed = ""
    fn h -> B computed = ""
  }
  entity B { attr y }
  entity C card 10 { attr p }
  entity D card 10 { attr q }
  relationship MARRIAGE { role husband -> MEN unique role wife -> WOMEN unique }
  relationship PAIRING { role left -> A unique role right -> B unique }
  relationship TWINS { role first -> C unique role second -> D unique }
  computed SENIORS { }
  computed GONE { }
}
restriction R01 on A other informal "sizes are positive"
restriction R02 on B other informal "y identifies B"
restriction R03 on A other informal "left unanswered"
restriction R04 on C other informal "answered badly"
"""

ANSWERS = {
    "MARRIAGE": {"bijection-direction": "WOMEN->MEN"},
    "A.c": {"computed-definition": "size times two"},
    "R01": {"formalization": "(forall v in A)(size(v) > 0)"},
}

PROMPTED = {
    ("TWINS", "bijection-direction"): "D->C",
    ("SENIORS", "computed-definition"): "students with 90+ credits",
    ("A.g", "computed-definition"): "the B of the same size",
    ("R02", "formalization"): "(forall u, v in B)(y(u) = y(v) => u = v)",
    ("R04", "formalization"): "(forall",
}


def _answered_options() -> TranslationOptions:
    return TranslationOptions(
        answers=ANSWERS, prompter=lambda q: PROMPTED.get((q.subject, q.kind)),
    )


def test_answered_model_outputs_are_pinned():
    assert _digests([parse_model(ANSWERED_SOURCE)], _answered_options()) == (
        "82e244e981cbdb1165d058c00c1615a0c90ff59730637b999828176b39574e44",
        "a4b4c95d3cd47b7cfc2f4a8d1b700ecd22690546d9312ef8aa4a2ddc0ec3f81c",
        "304295d2fde6d2301a66ab54ac05ab7dadddbde7138cdd5106a56778239af7de",
    )


def test_unicode_text_is_pinned():
    assert _unicode_digest([random_model(3, **RELATIONAL_LIMITS)]) == (
        "c6281af209be8f3ec90d91287fc3e113a72f9b9fe2d26cac1e077b123c66731b"
    )
    assert _unicode_digest(random_model(seed) for seed in range(50)) == (
        "51be033b4a3af84319e02e2a3aa434014dc436e0b7265138e797f61f31cb11cf"
    )
    assert _unicode_digest([parse_model(ANSWERED_SOURCE)], _answered_options()) == (
        "0c99394dd10654f352fd6e8bba985a775528e4cc06f80f520061a750d69c8a1a"
    )


def test_every_output_and_audit_of_the_equivalence_corpus_is_pinned():
    """One sha256 over random_model 0-599, then the fixtures by name: for each,
    the report, the text (plain and --unicode) and structured output when there
    is a scheme, and the audit. A cut by design must leave it as it is."""
    h = hashlib.sha256()
    models = [random_model(seed) for seed in range(600)]
    models += [parse_model(path.read_text(encoding="utf-8"))
               for path in sorted(FIXTURES.glob("*.erdm"))]
    for model in models:
        result = translate(model)
        report = encode_report(result.report)
        h.update(report.encode())
        if result.scheme is not None:
            h.update(emit_text(result.scheme).encode())
            h.update(emit_text(result.scheme, unicode=True).encode())
            h.update(emit_structured(result.scheme, report).encode())
        h.update(repr(verify_translation(result)).encode())
    assert h.hexdigest() == "e518c7b943f8d3efd3bf8562715793df21ea3d6cf23f7dd49cd13dd5038277e5"


# Every codomain and bound kind, explicit keys, a computed set, and text that
# JSON must escape: `"`, `\`, a tab, non-ASCII letters and U+2028.
def _every_codomain_model():
    return parse_model((FIXTURES / "every_codomain.erdm").read_text(encoding="utf-8"))


def test_every_codomain_model_outputs_are_pinned():
    assert _digests([_every_codomain_model()]) == (
        "239c654106e090375406c4bc14c117210a3f253ce1913ca803afe427d84bd5cc",
        "0d4976f9a1fd259f93c4423fe41e0e387e1bef2d3de7670547fa23c22b8e33b0",
        "4b525a502bd2534dbaf54d6da63970b3a666623f1f6f2bbcec1b77a9314af392",
    )


def _assert_indent_2(document: str) -> None:
    assert json.dumps(json.loads(document), indent=2) == document


def test_documents_are_laid_out_as_json_dumps_indent_2(teaching_model):
    """README promises ``json.dumps(doc, indent=2)`` bytes; the oracle is json itself."""
    cases = [(teaching_model, None), (_every_codomain_model(), None),
             (parse_model(ANSWERED_SOURCE), _answered_options()),
             (random_model(3, **RELATIONAL_LIMITS), None), (sized_model(1, 2000), None)]
    cases += [(random_model(seed), None) for seed in range(300)]
    for model, options in cases:
        structured, report = _outputs(model, options)[1:]
        _assert_indent_2(report)
        assert structured.endswith("}\n")
        _assert_indent_2(structured[:-1])


def test_report_of_a_rejected_model_is_laid_out_as_json_dumps_indent_2():
    result = translate(parse_model(
        "diagram D { entity A { attr v } }\nrestriction R1 on A subset_of A\n"
    ))
    assert result.scheme is None and result.report.diagnostics
    _assert_indent_2(encode_report(result.report))


def test_documents_never_enter_the_pure_python_encoder(monkeypatch):
    """json's indent=2 encoder is pure Python; the writers must not call it."""
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was entered")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert _digests([random_model(3, **RELATIONAL_LIMITS)]) == RELATIONAL_DIGESTS


# --- the front end on malformed text ---

def _write_model():
    """The benchmark's `.erdm` writer, loaded from its file."""
    path = Path(__file__).parent.parent / "perfbench" / "erdm_writer.py"
    spec = importlib.util.spec_from_file_location("erdm_writer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.write_model


# Characters that open, close or break a token, a string or a comment.
_INSERTED = ['"', "\\", "#", "\n", "\r", " ", "$", "/", "(", ")", "[", "]", "{", "}",
             ",", "^", "-", ".", "=", "→", "∀", "u", "7", "x"]


def _mutation_corpus() -> list[str]:
    """Truncations, one-character insertions and span deletions of model texts."""
    write_model = _write_model()
    sources = [(FIXTURES / name).read_text(encoding="utf-8")
               for name in ("teaching.erdm", "every_codomain.erdm")]
    sources += [write_model(random_model(seed)) for seed in range(60)]
    rng = random.Random(12)

    def insert(text: str) -> str:
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(_INSERTED) + text[at:]

    corpus = []
    for text in sources:
        for _ in range(12):
            cut = rng.randrange(len(text) + 1)
            corpus.append(text[:cut])
            corpus.append(insert(text))
            corpus.append(insert(insert(text)))  # two faults, often in two statements
            at = rng.randrange(len(text) + 1)
            corpus.append(text[:at] + text[at + rng.randint(1, 12):])
    return corpus


def test_parse_errors_of_a_mutation_corpus_are_pinned():
    """Each input's rendered errors, or the repr of its model, as the parser gave them."""
    h = hashlib.sha256()
    failed = 0
    corpus = _mutation_corpus()
    for text in corpus:
        try:
            out = repr(parse_model(text))
        except ParseFailure as failure:
            failed += 1
            out = "\n".join(e.render() for e in failure.errors)
        h.update(out.encode() + b"\0")
    assert (len(corpus), failed) == (2976, 2706)
    assert h.hexdigest() == (
        "9235b83ffc497dea26b4ef189e24df84dfd9ec39fd767402157e9acbf5c75d1b"
    )


# --- validate_model on ill-formed models ---

_MUTANT_RANGES = [AsciiRange(0), AsciiRange(8), NatRange(0), NatRange(3),
                  Interval(IntBound(9), IntBound(1)), Interval(IntBound(1), IntBound(9)),
                  Interval(Pow10Bound(3), IntBound(5)),
                  Interval(DateBound("31/12/2000"), DateBound("01/01/2000")),
                  Interval(DateBound("01/01/2000"), FuncBound("SysDate()"))]


def _mutant(model: ERModel, rng: random.Random) -> ERModel:
    """*model* with one injected duplicate or ill-formed declaration."""
    diagrams = list(model.diagrams)
    restrictions = list(model.restrictions)
    at = rng.randrange(len(diagrams))
    sets = list(diagrams[at].sets)
    everything = model.object_sets()
    names = [s.name for s in everything] + ["ZZ"]
    s = rng.choice(everything)
    members = [m.name for m in s.members] + ["zz", "x"]
    label = f"M{len(restrictions)}"
    choice = rng.randrange(12)
    if choice == 0:  # the same set object listed twice
        sets.insert(rng.randrange(len(sets) + 1), s)
    elif choice == 1:  # another set under a taken name
        sets.append(ObjectSet(s.name, rng.choice(("entity", "relationship", "computed")),
                              attributes=(Attribute("z"),)))
    elif choice == 2 and restrictions:  # a reused label
        i = rng.randrange(len(restrictions))
        restrictions[i] = replace(restrictions[i], label=rng.choice(restrictions).label)
    elif choice == 3 and restrictions:  # a restriction declared twice
        restrictions.append(replace(rng.choice(restrictions), label=label))
    elif choice == 4:  # inline declarations next to restrictions
        attributes = list(s.attributes)
        if attributes:
            i = rng.randrange(len(attributes))
            attributes[i] = replace(attributes[i], range=rng.choice(_MUTANT_RANGES))
        sets = [replace(t, max_cardinality=rng.choice((None, 0, 5)), attributes=tuple(attributes),
                        included_in=t.included_in + (rng.choice(names),)) if t is s else t
                for t in sets]
    elif choice == 5:
        restrictions.append(Restriction(label, s.name, RangeBody(
            rng.choice(members), rng.choice(_MUTANT_RANGES))))
    elif choice == 6:
        restrictions.append(Restriction(label, s.name, CardinalityBody(rng.choice((0, 1, 10)))))
    elif choice == 7:
        restrictions.append(Restriction(label, s.name, InclusionBody(
            rng.choice((s.name, rng.choice(names))), rng.choice((s.name, rng.choice(names))))))
    elif choice == 8:
        body = rng.choice((CompulsoryBody, UniquenessBody))
        restrictions.append(Restriction(label, s.name, body(tuple(
            rng.choice(members) for _ in range(rng.randint(0, 3))))))
    elif choice == 9:
        inner = Compare("=", Var("x"), Var("x"))
        nested = (Forall("x", rng.choice(names), inner),
                  Forall("y", rng.choice(names), Forall("x", rng.choice(names), inner)))
        formula = rng.choice((None, *nested))
        restrictions.append(Restriction(label, rng.choice(names), OtherBody(
            rng.choice((None, "rule")), formula)))
    elif choice == 10:  # members the set may not carry
        extra = rng.choice((Attribute("x"), Attribute(rng.choice(members)), Attribute("a1#total"),
                            Attribute("c", computed_definition="one\ntwo")))
        sets = [replace(t, attributes=t.attributes + (extra,)) if t is s else t for t in sets]
    else:
        roles = tuple(Role(f"q{i}", rng.choice(names)) for i in range(rng.randint(0, 2)))
        sets.append(ObjectSet(f"N{len(sets)}", rng.choice(("entity", "relationship", "computed")),
                              roles=roles, max_cardinality=rng.choice((None, 3)),
                              structural_functions=(StructuralFunction("f", rng.choice(names)),)))
    diagrams[at] = replace(diagrams[at], sets=tuple(sets))
    return replace(model, diagrams=tuple(diagrams), restrictions=tuple(restrictions))


def test_validation_of_a_mutation_corpus_is_pinned():
    """Each mutated model's diagnostics, in order, as validate_model gave them."""
    bases = [parse_model((FIXTURES / name).read_text(encoding="utf-8"))
             for name in ("teaching.erdm", "every_codomain.erdm")]
    bases += [random_model(seed) for seed in range(60)]
    rng = random.Random(13)
    h = hashlib.sha256()
    count = flagged = 0
    for base in bases:
        for _ in range(50):
            model = base
            for _ in range(rng.randint(1, 3)):
                model = _mutant(model, rng)
            out = "\n".join(d.render() for d in validate_model(model))
            count += 1
            flagged += bool(out)
            h.update(out.encode() + b"\0")
    assert (count, flagged) == (3100, 2955)
    assert h.hexdigest() == (
        "924b5fd047093968175eb98a88064583fabca9a1231158d0553529b42fd3b5a0"
    )
