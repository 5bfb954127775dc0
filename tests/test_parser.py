from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import erdmc
from erdmc.diagnostics import ParseFailure
from erdmc.formula import parse_formula
from erdmc.generator import random_model
from erdmc.lexer import tokenize
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
from test_pinned_outputs import _write_model


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


# --- rendered parse errors ---

D = "diagram D { entity A { attr a } entity B { attr b } }\n"
LONG = "9" * 4301  # one digit more than an integer may have

# Each case: a name, the parser, a source text and its rendered errors.
PARSE_CASES = [
    ("unterminated-string", parse_model, 'description "abc',
     ["1:13: unterminated string literal"]),
    ("string-ends-at-its-line", parse_model, 'description "abc\r\n"',
     ["1:13: unterminated string literal"]),
    ("stray-character", parse_model, "diagram D {\n  entity A { attr a $ }\n}",
     ["2:21: unexpected character '$'"]),
    ("glyph-at-line-start", parse_model, D + "→ restriction R1 on A compulsory a",
     ["2:1: found '->' (expected 'diagram', 'restriction', or 'description')"]),
    ("hash-in-name-and-after-blank", parse_model, "diagram D# { entity A#b { attr a #c } }",
     ["1:40: found 'end of input' (expected 'attr', 'role', 'fn', or '}')"]),
    ("crlf", parse_model, "diagram D {\r\n  entity A {\r\n    attr a\r\n    bogus\r\n  }\r\n}\r\n",
     ["4:5: found 'bogus' (expected 'attr', 'role', 'fn', or '}')"]),
    ("crlf-end-of-input", parse_model, "diagram D {\r\n  entity A {\r\n",
     ["3:1: found 'end of input' (expected 'attr', 'role', 'fn', or '}')"]),
    ("malformed-u-escape", parse_model, 'description "ab\\u12zz"',
     ["1:16: malformed \\u escape"
      " (expected four hex digits naming a character that is not a surrogate)"]),
    ("u-escape-on-second-line", parse_model, '\n  description "\\ud83d"',
     ["2:16: malformed \\u escape"
      " (expected four hex digits naming a character that is not a surrogate)"]),
    ("formula-65-levels-deep", parse_model,
     D + "restriction R1 on A other formal (forall x in A)(" + "!" * 64 + "x = x)",
     ["2:113: formula nested deeper than 64 levels"]),
    ("set-header-without-brace", parse_model, "diagram D { entity A card 10 attr a }",
     ["1:30: found 'attr' (expected {)"]),
    ("description-twice", parse_model, 'description "a"\ndescription "b"\n',
     ["2:1: description declared twice"]),
    ("cardinality-power-not-10", parse_model, "diagram D { entity A card 2^3 { } }",
     ["1:29: cardinality powers must use base 10"]),
    ("restriction-cardinality-power-not-10", parse_model, D + "restriction R1 on A card 2^3",
     ["2:28: cardinality powers must use base 10"]),
    ("bound-power-not-10", parse_model, "diagram D { entity A { attr a : [1, 2^3] } }",
     ["1:39: power bounds must use base 10"]),
    ("range-path-off-target", parse_model, D + "restriction R1 on A range B.b ascii(3)",
     ["2:27: path B.b does not start at target set A"]),
    ("unterminated-bracket", parse_model, D + "restriction R1 on A range a [1, \n",
     ["2:29: unterminated range bracket (expected ])"]),
    ("uppercase-ascii", parse_model, "diagram D { entity A { attr a : ASCII(x) } }",
     ["1:39: found 'x' (expected length)"]),
    ("uppercase-nat", parse_model, "diagram D { entity A { attr a : NAT(2 attr b } }",
     ["1:39: found 'attr' (expected ))"]),
    ("lowercase-nat", parse_model, "diagram D { entity A { attr a : nat() } }",
     ["1:37: found ')' (expected digits)"]),
    ("lowercase-ascii", parse_model, "diagram D { entity A { attr a : ascii 3 } }",
     ["1:39: found '3' (expected ()"]),
    ("toplevel-keyword", parse_model, "bogus",
     ["1:1: found 'bogus' (expected 'diagram', 'restriction', or 'description')"]),
    ("set-kind", parse_model, "diagram D { view A { } }",
     ["1:13: found 'view' (expected 'entity', 'relationship', or 'computed')"]),
    ("set-kind-at-end-of-input", parse_model, "diagram D {",
     ["1:12: found 'end of input' (expected 'entity', 'relationship', or 'computed')"]),
    ("member-keyword", parse_model, "diagram D { entity A { key a } }",
     ["1:24: found 'key' (expected 'attr', 'role', 'fn', or '}')"]),
    ("range-keyword", parse_model, "diagram D { entity A { attr a : {1} } }",
     ["1:33: found '{' (expected '[', 'ascii', or 'nat')"]),
    ("bound", parse_model, "diagram D { entity A { attr a : [, 1] } }",
     ["1:34: found ',' (expected bound)"]),
    ("restriction-body", parse_model, D + "restriction R1 on A bogus a",
     ["2:21: found 'bogus' (expected 'subset_of', 'card', 'range', 'compulsory', 'unique',"
      " or 'other')"]),
    ("name-list", parse_model, D + "restriction R1 on A unique a, 7",
     ["2:31: found '7' (expected mapping name)"]),
    ("several-statements", parse_model,
     D + "restriction R1 on A range a [1, 2\nrestriction R2 on A bogus\n"
     "restriction R3 on A compulsory a\n",
     ["3:1: found 'restriction' (expected ])",
      "3:21: found 'bogus' (expected 'subset_of', 'card', 'range', 'compulsory', 'unique',"
      " or 'other')"]),
    ("variable-already-quantified", parse_model,
     D + "restriction R1 on A other formal (forall x in A)(forall x in A)(x = x)",
     ["2:64: variable 'x' is already quantified"]),
    ("duplicate-variable", parse_model,
     D + "restriction R1 on A other formal (forall x, x in A)(x = x)",
     ["2:52: duplicate variable in quantifier"]),
    ("comparison-operator", parse_model,
     D + "restriction R1 on A other formal (forall x in A)(a(x) 1)",
     ["2:55: found '1' (expected comparison operator)"]),
    ("term", parse_model, D + "restriction R1 on A other formal (forall x in A)(a(x) = ,)",
     ["2:57: found ',' (expected term)"]),
    ("unbound-variable", parse_model,
     D + "restriction R1 on A other formal (forall x in A)(a(y) = 1)",
     ["2:52: unbound variable 'y'"]),
    ("trailing-input", parse_formula, "(forall x in A)(x = x) x",
     ["1:24: trailing input after formula: 'x'"]),
    # the lexer refuses a digit run longer than an integer may be, wherever it stands
    ("long-cardinality", parse_model, f"diagram D {{ entity A card {LONG} {{ }} }}",
     ["1:27: integer longer than 4300 digits"]),
    ("long-negative-bound", parse_model, f"diagram D {{ entity A {{ attr a : [-{LONG}, 1] }} }}",
     ["1:35: integer longer than 4300 digits"]),
    ("long-ascii-length", parse_model, f"diagram D {{ entity A {{ attr a : ascii({LONG}) }} }}",
     ["1:39: integer longer than 4300 digits"]),
    ("long-formula-term", parse_model,
     D + f"restriction R1 on A other formal (forall x in A)(a(x) = {LONG})",
     ["2:57: integer longer than 4300 digits"]),
    ("long-date-year", parse_model,
     f"diagram D {{ entity A {{ attr a : [1/1/2000, 1/1/{LONG}] }} }}",
     ["1:44: integer longer than 4300 digits"]),
    # and the parser refuses a power of ten with more digits
    ("long-cardinality-power", parse_model, D + "restriction R1 on A card 10^4300",
     ["2:29: integer longer than 4300 digits"]),
    ("long-bound-power", parse_model, "diagram D { entity A { attr a : [1, 10^4300] } }",
     ["1:40: integer longer than 4300 digits"]),
]


@pytest.mark.parametrize("parse, source, rendered", [c[1:] for c in PARSE_CASES],
                         ids=[c[0] for c in PARSE_CASES])
def test_parse_errors_render_their_position_message_and_expectation(parse, source, rendered):
    with pytest.raises(ParseFailure) as info:
        parse(source)
    assert [e.render() for e in info.value.errors] == rendered


def test_a_range_path_from_the_target_set_reads_as_its_mapping():
    # The path that range-path-off-target refuses, started at the target set.
    assert (parse_model(D + "restriction R1 on A range A.a ascii(5)")
            == parse_model(D + "restriction R1 on A range a ascii(5)"))


def test_integers_of_the_most_digits_parse():
    most = "9" * 4300
    model = parse_model(
        f"diagram D {{ entity A card {most} {{ attr a : [-{most}, 10^4299] }} }}\n"
        f"restriction R1 on A other formal (forall x in A)(a(x) = {most})\n"
    )
    a = model.set("A")
    assert a.max_cardinality == int(most)
    assert a.attributes[0].range == Interval(IntBound(-int(most)), Pow10Bound(4299))


def _literal_patterns(node: ast.AST):
    """A regex per string literal in *node*; an f-string's fields match any text."""
    if isinstance(node, ast.JoinedStr):
        yield "".join(re.escape(part.value) if isinstance(part, ast.Constant) else ".+"
                      for part in node.values)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield re.escape(node.value)
    elif isinstance(node, ast.IfExp):  # either branch is shown, the test never
        yield from _literal_patterns(node.body)
        yield from _literal_patterns(node.orelse)
    else:
        for child in ast.iter_child_nodes(node):
            yield from _literal_patterns(child)


def _raised_literals() -> list[str]:
    """A pattern of a rendered error line per message and ``expected=`` literal raised."""
    patterns = []
    for module in ("lexer", "parser", "formula"):
        tree = ast.parse((Path(erdmc.__file__).parent / f"{module}.py").read_text("utf-8"))
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "unexpected":
                patterns += [rf".+ \(expected {lit}\)" for lit in _literal_patterns(call.args[0])]
                continue
            message = {"error": 0, "parse_error": 2}.get(name)
            if message is None:
                continue
            for literal in _literal_patterns(call.args[message]):
                patterns.append(rf"\d+:\d+: {literal}( \(expected .+\))?")
            for k in call.keywords:
                if k.arg == "expected":
                    patterns += [rf".+ \(expected {lit}\)" for lit in _literal_patterns(k.value)]
    return patterns


def test_every_parse_error_literal_has_a_case():
    rendered = [line for case in PARSE_CASES for line in case[3]]
    patterns = _raised_literals()
    assert len(patterns) >= 15
    missing = [p for p in patterns if not any(re.fullmatch(p, line) for line in rendered)]
    assert missing == []


def test_a_parse_scans_once_and_reads_only_lexemes(monkeypatch, teaching_source):
    """The front end's cost, by counts: one tokenize call per text, no offsets found,
    and a stream of plain str lexemes."""
    texts = [teaching_source] + [_write_model()(random_model(seed)) for seed in range(50)]
    scans = []

    def counted(text):
        scans.append(tokens := tokenize(text))
        return tokens

    def no_offsets(text):
        raise AssertionError("a parse that reports no error placed its tokens")

    monkeypatch.setattr(erdmc.lexer, "tokenize", counted)
    monkeypatch.setattr(erdmc.lexer, "offsets", no_offsets)
    for text in texts:
        parse_model(text)
    assert len(scans) == len(texts)
    assert all(type(tokens) is list for tokens in scans)
    assert {type(lexeme) for tokens in scans for lexeme in tokens} == {str}
