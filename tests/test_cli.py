from __future__ import annotations

import contextlib
import copy
import functools
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import erdmc
from erdmc import cli, generator, translator
from erdmc.cli import main
from erdmc.emitter import emit_structured, load_structured
from erdmc.formula import MAX_FORMULA_DEPTH
from erdmc.generator import random_model
from erdmc.lexer import offsets
from erdmc.model import Diagram, validate_model
from erdmc.parser import parse_model
from erdmc.translator import translate
from test_model import VALIDATE_CASES
from test_parser import PARSE_CASES
from test_pinned_outputs import ANSWERED_SOURCE, ANSWERS, PROMPTED, _write_model
from test_scaling import _relational_model
from test_translator import assert_post_defaults_as_validated

FIXTURE = str(Path(__file__).parent / "fixtures" / "teaching.erdm")


@contextlib.contextmanager
def _held_to_the_post_defaults_oracle():
    """Hold each translation that cli.main makes to the oracle of validation after the
    input defaults; yields the list of those translations."""
    translated = []

    def translate_checked(model, options=None):
        result = translate(model, options)
        translated.append(result)
        assert_post_defaults_as_validated(model, result)
        return result

    with mock.patch.object(cli, "translate", translate_checked):
        yield translated


@pytest.fixture
def post_defaults_oracle():
    with _held_to_the_post_defaults_oracle() as translated:
        yield
    assert translated, "no translation was held to the oracle"


def test_translate_writes_scheme_to_stdout(capsys, golden_scheme_text):
    assert main(["translate", FIXTURE]) == 0
    captured = capsys.readouterr()
    assert captured.out == golden_scheme_text


def test_translate_empty_model(tmp_path, capsys):
    empty = tmp_path / "empty.erdm"
    empty.write_text("")
    assert main(["translate", str(empty)]) == 0
    assert capsys.readouterr().out == ""


def test_translate_parse_errors_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.erdm"
    broken.write_text("diagram D { entity A { attr a } }\nrestriction R01 on A range a [1, \n")
    assert main(["translate", str(broken)]) == 2
    assert capsys.readouterr().err


def test_translate_unreadable_input_exit_2(tmp_path, capsys):
    assert main(["translate", str(tmp_path / "missing.erdm")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_translate_non_utf8_input_exit_2(tmp_path, capsys, monkeypatch):
    import io

    binary = tmp_path / "binary.erdm"
    binary.write_bytes(b"diagram D { entity A { attr a } }\n\xff\n")
    assert main(["translate", str(binary)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"cannot read input: {binary}: not UTF-8 text (invalid start byte)",
    ]
    for errors in ("strict", "surrogateescape"):  # a UTF-8 locale, a C locale
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8", errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["check", "-"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "cannot read input: -: not UTF-8 text (invalid start byte)",
        ]


def test_duplicate_set_name_exits_1_naming_the_set(tmp_path, capsys):
    model = tmp_path / "dup.erdm"
    model.write_text("diagram D { entity A { } entity A { } }\n")
    assert main(["validate", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "1 errors\n"
    assert captured.err.splitlines() == [
        "error: duplicate-set-name: object set 'A' declared twice [A]",
    ]
    assert main(["translate", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: duplicate-set-name: object set 'A' declared twice [A]",
    ]


def test_duplicate_restriction_label_exits_1_naming_the_label(tmp_path, capsys):
    model = tmp_path / "dup.erdm"
    model.write_text(
        "diagram D { entity A { attr a attr b } }\n"
        "restriction R01 on A compulsory a\n"
        "restriction R01 on A compulsory b\n"
    )
    assert main(["validate", str(model)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: duplicate-label: restriction label 'R01' reused [R01]",
    ]
    assert main(["translate", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: duplicate-label: restriction label 'R01' reused [R01]",
    ]


LINE_BREAK = "which would split its line of the text output"


def test_definition_with_a_line_break_exits_1(tmp_path, capsys):
    model = tmp_path / "breaks.erdm"
    model.write_text(
        'diagram D { entity A card 10 { attr a attr c computed = "p\\nq" '
        'fn f -> A computed = "x\\u2028y" attr d computed = "one line" } '
        'computed S = "x\\ry" { } }\n'
        "restriction R01 on A compulsory a\n"
        "restriction R02 on A unique a\n"
    )
    expected = [
        f"error: definition-line-break: computed definition of {element} "
        f"holds a line break, {LINE_BREAK} [{element}]"
        for element in ("A.c", "A.f", "S")
    ]
    assert main(["validate", str(model)]) == 1
    assert capsys.readouterr().err.splitlines() == expected
    assert main(["translate", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == expected


@pytest.mark.parametrize("definition", ["p\nq", "p\x1cq", "p\r\n", "\x85"])
@pytest.mark.usefixtures("post_defaults_oracle")
def test_answered_definition_with_a_line_break_exits_1(tmp_path, capsys, definition):
    model = tmp_path / "members.erdm"
    model.write_text(
        'diagram D { entity A card 10 { attr a attr c computed = "" } }\n'
        "restriction R01 on A compulsory a\n"
        "restriction R02 on A unique a\n"
    )
    answers = tmp_path / "answers.json"
    answers.write_text(json.dumps({"A.c": {"computed-definition": definition}}))
    assert main(["translate", str(model), "--answers", str(answers)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "error: definition-line-break: after input defaults: computed definition "
        f"of A.c holds a line break, {LINE_BREAK} [A.c]"
    )


SURROGATE_SOURCE = "diagram D { computed S { } entity A card 10 { attr a } }\n"
SURROGATE_ERROR = (
    "error: definition-encoding: after input defaults: computed definition of S holds a "
    "lone surrogate, which UTF-8 cannot encode for the text output [S]"
)


@pytest.mark.usefixtures("post_defaults_oracle")
def test_answered_definition_with_a_lone_surrogate_exits_1(tmp_path, capsys, monkeypatch):
    """An answer that UTF-8 cannot encode is refused; the -o file keeps its bytes.

    Such an answer comes from the answers document, or from --interactive when
    stdin decodes bytes that are not UTF-8 as surrogates (surrogateescape).
    """
    model = tmp_path / "surrogate.erdm"
    model.write_text(SURROGATE_SOURCE)
    answers = tmp_path / "answers.json"
    answers.write_text('{"S": {"computed-definition": "x\\ud800y"}}')
    out = tmp_path / "out.txt"
    out.write_text("kept\n")
    assert main(["translate", str(model), "--answers", str(answers), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[-1] == SURROGATE_ERROR
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(b"x\xffy\n"), encoding="utf-8", errors="surrogateescape"))
    assert main(["translate", str(model), "--interactive", "-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == SURROGATE_ERROR
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("errors", ["strict", "replace"])
def test_interactive_answer_that_stdin_cannot_decode_exits_1(tmp_path, errors):
    """Under any stdin error handler, an answer line that is not UTF-8 is refused
    as the lone surrogates that surrogateescape decodes it to: no traceback, and
    no U+FFFD in its place."""
    model = tmp_path / "surrogate.erdm"
    model.write_text(SURROGATE_SOURCE)
    path = [str(Path(erdmc.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = os.environ | {"PYTHONIOENCODING": f"utf-8:{errors}",
                        "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-m", "erdmc", "translate", str(model), "--interactive"],
                          input=b"\xff\xfe\n", capture_output=True, env=env, timeout=60)
    assert done.returncode == 1 and done.stdout == b""
    assert done.stderr.decode().splitlines()[-1] == SURROGATE_ERROR


def test_prompted_definition_with_a_lone_surrogate_is_refused():
    result = translate(parse_model(SURROGATE_SOURCE),
                       translator.TranslationOptions(prompter=lambda q: "x\ud800y"))
    assert result.scheme is None
    assert [d.render() for d in result.report.diagnostics.errors] == [SURROGATE_ERROR]


@pytest.mark.usefixtures("post_defaults_oracle")
def test_blank_answered_definition_is_dropped(tmp_path, capsys):
    model = tmp_path / "members.erdm"
    model.write_text('diagram D { entity A card 10 { attr v attr c computed = "" } }\n')
    answers = tmp_path / "answers.json"
    answers.write_text(json.dumps({"A.c": {"computed-definition": " "}}))
    assert main(["translate", str(model), "--answers", str(answers)]) == 0
    captured = capsys.readouterr()
    assert "  c" not in captured.out
    assert (
        "warning: computed-dropped: computed attribute A.c has no definition "
        "and was ignored [A.c]"
    ) in captured.err.splitlines()


def test_member_named_like_a_provenance_facet_exits_1(tmp_path, capsys):
    model = tmp_path / "facets.erdm"
    model.write_text(
        "diagram D { entity A card 10 { attr Room# attr Room##codomain "
        "attr t attr t#total } }\n"
        "restriction R1 on A range Room# [1, 5]\n"
    )
    expected = [
        f"error: reference-collision: member {name} of A is named like the {facet} "
        f"facet of member {owner}, so their provenance references would collide [A.{name}]"
        for owner, facet, name in (("Room#", "codomain", "Room##codomain"),
                                   ("t", "total", "t#total"))
    ]
    assert main(["validate", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "2 errors\n" and captured.err.splitlines() == expected
    assert main(["translate", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == expected


def test_translate_translation_errors_exit_1(tmp_path, capsys, teaching_source):
    bad = tmp_path / "dangling.erdm"
    bad.write_text(teaching_source.replace("role Class -> CLASSES", "role Class -> CLASES"))
    assert main(["translate", str(bad)]) == 1
    assert "CLASES" in capsys.readouterr().err


@pytest.mark.usefixtures("post_defaults_oracle")
def test_translate_refuses_a_model_the_input_defaults_invalidate(tmp_path, capsys):
    model = tmp_path / "dropped.erdm"
    model.write_text(
        'diagram D { entity A card 10 { attr a : ASCII(8) attr c computed = "" } }\n'
        "restriction R01 on A compulsory c\n"
    )
    assert main(["validate", str(model)]) == 0
    capsys.readouterr()
    assert main(["translate", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "warning: computed-dropped: computed attribute A.c has no definition and was ignored [A.c]",
        "error: unknown-mapping: after input defaults: R01 names unknown mapping 'c' on A [R01]",
    ]


def test_too_deep_formulas_exit_2_with_one_line(tmp_path, capsys):
    model = tmp_path / "deep.erdm"
    for body in ("(" * 400 + "a(x) = 1" + ")" * 400, " & ".join(["a(x) = 1"] * 1000)):
        model.write_text(
            "diagram D { entity A card 10 { attr a } }\n"
            f"restriction R01 on A other formal (forall x in A)({body})\n"
        )
        for command in ("validate", "translate", "check"):
            assert main([command, str(model)]) == 2, command
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith("2:")
            assert line.endswith(f": formula nested deeper than {MAX_FORMULA_DEPTH} levels")


@pytest.mark.usefixtures("post_defaults_oracle")
def test_too_deep_answer_is_a_bad_formalization(tmp_path, capsys):
    model = tmp_path / "m.erdm"
    model.write_text(
        "diagram D { entity A card 10 { attr a } }\n"
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
        'restriction R03 on A other informal "asks a question"\n'
    )
    answers = tmp_path / "answers.json"
    deep = "(forall x in A)(" + "(" * 400 + "a(x) <> 1" + ")" * 400 + ")"
    answers.write_text(json.dumps({"R03": {"formalization": deep}}))
    assert main(["translate", str(model), "--answers", str(answers)]) == 0
    column = len("(forall x in A)(") + MAX_FORMULA_DEPTH
    assert (
        "warning: bad-formalization: supplied formula for R03 does not parse: "
        f"1:{column}: formula nested deeper than {MAX_FORMULA_DEPTH} levels [R03]"
    ) in capsys.readouterr().err.splitlines()


def test_formulas_at_the_bound_pass_every_stage(tmp_path, capsys):
    # The deepest tree the bound admits: a chain of conjunctions whose first
    # operand is itself nested to the bound.
    body = "!" * (MAX_FORMULA_DEPTH - 2) + "a(x) = 1" + " & x = x" * (MAX_FORMULA_DEPTH - 1)
    model = tmp_path / "deepest.erdm"
    model.write_text(
        "diagram D { entity A card 10 { attr a : ASCII(8) } }\n"
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
        f"restriction R03 on A other formal (forall x in A)({body})\n"
    )
    structured = tmp_path / "deepest.json"
    assert main(["translate", str(model), "--unicode", "--structured", str(structured)]) == 0
    assert main(["check", str(model)]) == 0
    scheme = load_structured(structured.read_text())
    assert load_structured(emit_structured(scheme)) == scheme


def test_translate_output_and_sidecar_files(tmp_path, capsys, golden_scheme_text):
    out = tmp_path / "scheme.txt"
    structured = tmp_path / "scheme.json"
    report = tmp_path / "report.json"
    code = main([
        "translate", FIXTURE, "-o", str(out),
        "--structured", str(structured), "--report", str(report),
    ])
    assert code == 0
    assert out.read_text() == golden_scheme_text
    doc = json.loads(structured.read_text())
    assert doc["version"] == 1
    assert json.loads(report.read_text())["tallies"]["total"] == 57


NO_DIAGNOSTICS = (
    "diagram D { entity A card 10 { attr a : ASCII(8) } }\n"
    "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
)


@pytest.mark.parametrize("source", [None, NO_DIAGNOSTICS], ids=["fixture", "no-diagnostics"])
def test_structured_output_embeds_the_report_file(tmp_path, capsys, source):
    model = FIXTURE
    if source is not None:
        model = str(tmp_path / "m.erdm")
        Path(model).write_text(source)
    structured, report = tmp_path / "scheme.json", tmp_path / "report.json"
    argv = ["translate", model, "--structured", str(structured), "--report", str(report)]
    assert main(argv) == 0
    text, report_text = structured.read_text(), report.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    embedded = json.loads(text)["report"]
    assert report_text == json.dumps(embedded, indent=2) + "\n"
    assert bool(embedded["diagnostics"]) == (source is None)


def test_calls_in_one_process_share_one_parser_and_no_options(capsys, golden_scheme_text):
    assert cli._build_parser() is cli._build_parser()
    assert main(["translate", FIXTURE, "--unicode"]) == 0
    assert "↔" in capsys.readouterr().out
    assert main(["translate", FIXTURE]) == 0
    assert capsys.readouterr().out == golden_scheme_text
    assert main(["check", "--fuzz", "2"]) == 0
    assert capsys.readouterr().out.startswith("model 0: LINEARITY: PASS\n")
    assert main(["check", FIXTURE]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "LINEARITY: PASS", "SOUNDNESS: PASS", "COMPLETENESS: PASS", "OPTIMALITY: PASS",
    ]


def test_malformed_string_escapes_exit_2_with_their_position(tmp_path, capsys):
    model = tmp_path / "m.erdm"
    head = "diagram D { entity A card 10 { attr a } }\nrestriction R01 on A other informal "
    for literal, line in [
        ('"p\\u00zz"', "2:39: malformed \\u escape (expected four hex digits naming "
                         "a character that is not a surrogate)"),
        ('"p\\\nq"', "2:37: unterminated string literal"),
    ]:
        model.write_text(head + literal + "\n")
        assert main(["translate", str(model)]) == 2
        assert capsys.readouterr().err.splitlines() == [line]


def test_translate_stdin(capsys, teaching_source, golden_scheme_text, monkeypatch):
    import io

    stdin = io.TextIOWrapper(io.BytesIO(teaching_source.encode("utf-8")), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["translate", "-"]) == 0
    assert capsys.readouterr().out == golden_scheme_text


def test_translate_unicode_flag(capsys):
    assert main(["translate", FIXTURE, "--unicode"]) == 0
    assert "↔" in capsys.readouterr().out


@pytest.mark.usefixtures("post_defaults_oracle")
def test_translate_answers_file(tmp_path, capsys):
    model = tmp_path / "m.erdm"
    model.write_text(
        "diagram D { entity A card 10 { attr a } entity B card 10 { attr b } }\n"
        "restriction R01 on A compulsory a\n"
        "restriction R02 on A unique a\n"
        "restriction R03 on B compulsory b\n"
        "restriction R04 on B unique b\n"
        "restriction R05 on A other informal \"disjoint\"\n"
    )
    answers = tmp_path / "answers.json"
    answers.write_text(json.dumps(
        {"R05": {"formalization": "(forall x in A)(forall y in B)(a(x) <> b(y))"}}
    ))
    assert main(["translate", str(model), "--answers", str(answers)]) == 0
    assert "R05: (forall x in A)(forall y in B)(a(x) <> b(y))" in capsys.readouterr().out


def test_identical_invocations_produce_identical_bytes(capsys):
    assert main(["translate", FIXTURE]) == 0
    first = capsys.readouterr().out
    assert main(["translate", FIXTURE]) == 0
    assert capsys.readouterr().out == first


def test_validate_clean_fixture(capsys):
    assert main(["validate", FIXTURE]) == 0
    assert "0 errors" in capsys.readouterr().out


def test_validate_reports_dangling_reference(tmp_path, capsys, teaching_source):
    bad = tmp_path / "dangling.erdm"
    bad.write_text(teaching_source.replace("role Class -> CLASSES", "role Class -> CLASES"))
    assert main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "1 errors" in captured.out
    assert captured.err.splitlines() == [
        "error: unresolved-set: role Class targets unknown set 'CLASES' [ATTENDANCES.Class]",
    ]


def test_validate_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.erdm"
    empty.write_text("")
    assert main(["validate", str(empty)]) == 0
    assert "0 errors" in capsys.readouterr().out


MODEL_PARSE_CASES = [case for case in PARSE_CASES if case[1] is parse_model]


@pytest.mark.parametrize("command", ["validate", "translate"])
@pytest.mark.parametrize("source, rendered", [case[2:] for case in MODEL_PARSE_CASES],
                         ids=[case[0] for case in MODEL_PARSE_CASES])
def test_each_parse_case_exits_2_with_its_lines(tmp_path, capsys, command, source, rendered):
    path = tmp_path / "m.erdm"
    path.write_bytes(source.encode("utf-8"))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == rendered


DSL_VALIDATE_CASES = [case for case in VALIDATE_CASES if isinstance(case[2], str)]


@pytest.mark.parametrize("code, element, source", DSL_VALIDATE_CASES,
                         ids=[f"{code}@{element}" for code, element, _ in DSL_VALIDATE_CASES])
def test_validate_prints_the_one_diagnostic_of_each_case(tmp_path, capsys, code, element, source):
    path = tmp_path / "m.erdm"
    path.write_bytes(source.encode("utf-8"))
    [diagnostic] = validate_model(parse_model(source))
    errors = int(code != "relationship-single-role")  # the one code that only warns
    assert main(["validate", str(path)]) == errors
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [diagnostic.render()]
    assert captured.err.startswith(f"{diagnostic.severity}: {code}: ")
    assert captured.err.endswith(f" [{element}]\n")
    assert captured.out == f"{errors} errors\n"
    if errors:  # translate refuses the model with the same one line
        assert main(["translate", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [diagnostic.render()]


def test_check_golden_fixture_passes_all_four(capsys):
    assert main(["check", FIXTURE]) == 0
    out = capsys.readouterr().out
    for line in ("LINEARITY: PASS", "SOUNDNESS: PASS", "COMPLETENESS: PASS",
                 "OPTIMALITY: PASS"):
        assert line in out


def test_check_empty_model_vacuously_passes(tmp_path, capsys):
    empty = tmp_path / "empty.erdm"
    empty.write_text("")
    assert main(["check", str(empty)]) == 0
    assert capsys.readouterr().out.count("PASS") == 4


def test_check_fuzz_mode(capsys):
    assert main(["check", "--fuzz", "5", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 20
    assert "FAIL" not in out


def test_check_fuzz_validates_each_model_once(capsys, monkeypatch):
    # Counted wherever a command could call it: translate, and not the generator.
    calls = []
    validate = translator.validate_model
    for module in (cli, generator, translator):
        monkeypatch.setattr(module, "validate_model",
                            lambda model: calls.append(model) or validate(model), raising=False)
    assert main(["check", "--fuzz", "10"]) == 0
    capsys.readouterr()
    assert len(calls) == 10


def test_check_fuzz_fails_an_invalid_generated_model_without_a_traceback(capsys, monkeypatch):
    # The generator does not validate its model: translate refuses it. Here
    # the generator lists its diagram's first set twice.
    monkeypatch.setattr(generator, "Diagram",
                        lambda name, sets: Diagram(name, sets + sets[:1]))
    first = generator.random_model(0).diagrams[0].sets[0].name
    assert main(["check", "--fuzz", "1"]) == 1
    captured = capsys.readouterr()
    assert "model 0: SOUNDNESS: FAIL" in captured.out.splitlines()
    assert (f"model 0: soundness: error: duplicate-set-name: object set {first!r} "
            f"declared twice [{first}]") in captured.err.splitlines()
    assert "Traceback" not in captured.err


def test_check_untranslatable_model_fails(tmp_path, capsys, teaching_source):
    bad = tmp_path / "dangling.erdm"
    bad.write_text(teaching_source.replace("role Class -> CLASSES", "role Class -> CLASES"))
    assert main(["check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "SOUNDNESS: FAIL" in out
    assert "COMPLETENESS: FAIL" in out


def test_check_failure_prints_its_witness(capsys, monkeypatch):
    from erdmc.translator import translate

    def without_r28_provenance(model, options):
        result = translate(model, options)
        del result.scheme.provenance["mapping:STUDENTS.SSN#unique:R28"]
        return result

    monkeypatch.setattr("erdmc.cli.translate", without_r28_provenance)
    assert main(["check", FIXTURE]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "LINEARITY: PASS", "SOUNDNESS: PASS", "COMPLETENESS: FAIL", "OPTIMALITY: PASS",
    ]
    assert captured.err.splitlines() == ["completeness: restriction:R28 has no provenance"]


def test_check_requires_input_or_fuzz(capsys):
    assert main(["check"]) == 2
    assert "provide an input file" in capsys.readouterr().err


@pytest.mark.parametrize("path", [FIXTURE, "missing.erdm"], ids=["fixture", "missing"])
def test_check_refuses_an_input_file_together_with_fuzz(capsys, path):
    assert main(["check", path, "--fuzz", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["provide an input file or --fuzz N, not both"]


def test_translate_bad_answers_files_exit_2(tmp_path, capsys):
    model = tmp_path / "m.erdm"
    model.write_text(
        "diagram D { entity A card 10 { attr a } }\n"
        "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
        "restriction R03 on A other informal \"asks a question\"\n"
    )
    cases = {
        "{bad": "not valid JSON at line 1, column 2: "
                "Expecting property name enclosed in double quotes",
        '["R03"]': "the document must be an object",
        '{"R03": "(forall x in A)(a(x) <> 1)"}': "the entry for 'R03' must be an object",
        '{"V": {"computed-definition": ["x", 1]}}':
            "the 'computed-definition' answer for 'V' must be a string or null",
        '{"R03": {"formalization": true}}':
            "the 'formalization' answer for 'R03' must be a string or null",
        '{"R03": {"formalization": ' + "9" * 5000 + "}}":
            "not readable JSON: an integer longer than 4300 digits",
        "[" * 100_000: "not readable JSON: arrays or objects nested too deeply",
    }
    for text, reason in cases.items():
        answers = tmp_path / "answers.json"
        answers.write_text(text)
        assert main(["translate", str(model), "--answers", str(answers)]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"cannot read answers: {answers}: {reason}"]


def test_translate_unreadable_answers_files_exit_2(tmp_path, capsys):
    missing, binary = tmp_path / "missing.json", tmp_path / "binary.json"
    binary.write_bytes(b'{"R1": {"formalization": "\xff"}}')
    for answers, reason in ((missing, "No such file or directory"),
                            (binary, "not UTF-8 text (invalid start byte)")):
        assert main(["translate", FIXTURE, "--answers", str(answers)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"cannot read answers: {answers}: {reason}"]


@pytest.mark.usefixtures("post_defaults_oracle")
def test_translate_null_answer_asks_no_further(tmp_path, capsys):
    model = tmp_path / "m.erdm"
    model.write_text("diagram D { entity A card 10 { attr a } }\n"
                     "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
                     'restriction R03 on A other informal "asks a question"\n')
    answers = tmp_path / "answers.json"
    answers.write_text('{"R03": {"formalization": null}}')
    assert main(["translate", str(model), "--answers", str(answers)]) == 0
    assert "warning: unformalized: R03 remains unformalized" in capsys.readouterr().err


_NOT_AT_LEAST_1 = pytest.mark.parametrize("value, reason", [
    ("0", "must be at least 1, not 0"),
    ("-3", "must be at least 1, not -3"),
    ("ten", "invalid int value: 'ten'"),
], ids=["zero", "negative", "not-an-integer"])


def _refused_option(capsys, argv: list[str], option: str, reason: str) -> None:
    with pytest.raises(SystemExit) as stopped:
        main(argv)
    assert stopped.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"error: argument {option}: {reason}")


@pytest.mark.parametrize("command", ["translate", "check"])
@_NOT_AT_LEAST_1
def test_dbms_max_card_must_be_an_integer_of_at_least_1(capsys, command, value, reason):
    _refused_option(capsys, [command, FIXTURE, "--dbms-max-card", value], "--dbms-max-card", reason)


@_NOT_AT_LEAST_1
def test_fuzz_must_be_an_integer_of_at_least_1(capsys, value, reason):
    _refused_option(capsys, ["check", "--fuzz", value], "--fuzz", reason)


@pytest.mark.parametrize("argv, option", [
    (["translate", ""], "input"),
    (["validate", ""], "input"),
    (["check", ""], "input"),
    (["translate", FIXTURE, "--answers", ""], "--answers"),
    (["translate", FIXTURE, "-o", ""], "-o/--output"),
    (["translate", FIXTURE, "--report", ""], "--report"),
    (["translate", FIXTURE, "--structured", ""], "--structured"),
], ids=["translate", "validate", "check", "answers", "output", "report", "structured"])
def test_an_empty_path_is_a_usage_error(capsys, argv, option):
    _refused_option(capsys, argv, option, "a path cannot be empty")


@pytest.mark.parametrize("option", ["-o", "--structured", "--report", "--answers"])
def test_dash_is_no_output_or_answers_path(capsys, tmp_path, monkeypatch, option):
    monkeypatch.chdir(tmp_path)
    shown = "-o/--output" if option == "-o" else option
    _refused_option(capsys, ["translate", FIXTURE, option, "-"], shown,
                    "- is not a file here: only the model reads stdin")
    assert not (tmp_path / "-").exists()


def test_dbms_max_card_of_1_gives_one_digit_identifiers(capsys):
    assert main(["translate", FIXTURE, "--dbms-max-card", "1"]) == 0
    assert "  x <-> NAT(1), total\n" in capsys.readouterr().out


def test_interactive_refuses_a_model_on_stdin(capsys, monkeypatch, teaching_source):
    stdin = io.TextIOWrapper(io.BytesIO(teaching_source.encode("utf-8")), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["translate", "-", "--interactive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "--interactive cannot read prompts while the model comes from stdin\n")


@pytest.mark.usefixtures("post_defaults_oracle")
def test_interactive_reads_each_answer_from_stdin(tmp_path, capsys, monkeypatch):
    model = tmp_path / "m.erdm"
    model.write_text("diagram D { entity A card 10 { attr a } }\n"
                     "restriction R01 on A compulsory a\nrestriction R02 on A unique a\n"
                     'restriction R03 on A other informal "no two alike"\n')
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "  (forall x in A)(forall y in A)(x = y)  \n"))
    assert main(["translate", str(model), "--interactive"]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("R03: (forall x, y in A)(x = y)\n")
    assert captured.err.startswith(
        "R03 [formalization]: R03 (no two alike) has no formal body; provide a formula\n> ")
    monkeypatch.setattr("sys.stdin", io.StringIO("   \n"))
    assert main(["translate", str(model), "--interactive"]) == 0
    assert "R03: informal" in capsys.readouterr().out


_NO_QUANTIFIER_SOURCE = (
    'diagram D { entity A card 10 { attr a } computed V = "all" { } }\n'
    "restriction R1 on A compulsory a\nrestriction R2 on A unique a\n"
)


@pytest.mark.parametrize("rule, answer, error", [
    ("other formal 1 = 1", None, "error: unquantified-formula: R3 quantifies no variable [R3]"),
    ('other informal "a rule"', "1 = 1",
     "error: nonrelational-arity: nonrelational constraint R3 must quantify at least two "
     "variables [constraint:R3]"),
    ('other informal "a rule"', "(forall x in V)(1 = 1)",
     "error: restriction-on-computed-set: tuple constraint R3 is a check over computed set "
     "'V' [constraint:R3]"),
], ids=["model", "answered", "answered-over-computed-set"])
@pytest.mark.usefixtures("post_defaults_oracle")
def test_translate_refuses_a_constraint_the_scheme_cannot_show(
    tmp_path, capsys, rule, answer, error
):
    model = tmp_path / "m.erdm"
    model.write_text(_NO_QUANTIFIER_SOURCE + f"restriction R3 on A {rule}\n")
    argv = ["translate", str(model)]
    if answer is not None:
        answers = tmp_path / "answers.json"
        answers.write_text(json.dumps({"R3": {"formalization": answer}}))
        argv += ["--answers", str(answers)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("error")] == [error]


def test_translate_unwritable_outputs_exit_2(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    for flag in ("-o", "--report", "--structured"):
        target = missing / "out"
        assert main(["translate", FIXTURE, flag, str(target)]) == 2, flag
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"cannot write output: {target}: No such file or directory", flag


# --- any edit of a model ends in an exit code, never a traceback ---

# DSL words and punctuation, and integers at and past the most digits allowed.
_FUZZ_TOKENS = [
    "diagram", "entity", "relationship", "computed", "restriction", "on", "attr", "role", "fn",
    "card", "subset_of", "range", "compulsory", "unique", "other", "formal", "informal",
    "description", "forall", "in", "ascii", "nat", "{", "}", "(", ")", "[", "]", ",", ":",
    "->", "<->", "=", "<>", "^", "-", ".", "&", "|", "!", "x", "A", "R1", '"t"', "0", "10",
    "01/01/2000", "SysDate()",
    "9" * 4300, "9" * 4301, "10^4299", "10^4300", "10^3000000", "10^" + "9" * 4301,
    "1/1/" + "9" * 4301,
]


@functools.lru_cache(maxsize=None)
def _fuzz_sources() -> tuple[str, ...]:
    fixtures = Path(__file__).parent / "fixtures"
    write_model = _write_model()
    return tuple([(fixtures / name).read_text(encoding="utf-8")
                  for name in ("teaching.erdm", "every_codomain.erdm")]
                 + [write_model(random_model(seed)) for seed in range(20)])


@st.composite
def _edited_models(draw) -> str:
    """A model text with one to three of its tokens inserted before, deleted or replaced."""
    text = draw(st.sampled_from(_fuzz_sources()))
    starts = offsets(text)  # the last is the end of the text
    at = draw(st.lists(st.integers(0, len(starts) - 2), min_size=1, max_size=3, unique=True))
    for i in sorted(at, reverse=True):  # from the end, so earlier offsets stay put
        start, end = starts[i], starts[i + 1]  # a token and the blanks after it
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        token = "" if edit == "delete" else draw(st.sampled_from(_FUZZ_TOKENS)) + " "
        text = text[:start] + token + text[start if edit == "insert" else end:]
    return text


@settings(max_examples=100, deadline=None)
@given(_edited_models())
def test_an_edited_model_ends_in_an_exit_code(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "m.erdm"
    path.write_bytes(text.encode("utf-8"))
    commands = [
        ["translate", str(path), "--structured", str(work / "s.json"),
         "--report", str(work / "r.json")],
        ["check", str(path)],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2), argv


def _answers_document() -> dict:
    """A valid answers document with an answer to every question of ANSWERED_SOURCE."""
    document = copy.deepcopy(ANSWERS)
    for (subject, kind), answer in PROMPTED.items():
        document.setdefault(subject, {})[kind] = answer
    return document


# Mostly strings, which the translation reads on; any other JSON value is refused.
_ANSWER_VALUES = (
    st.sampled_from(["", " ", "a\nb", "(forall", "MEN->WOMEN", "D->C", "(forall v in A)(v = v)"])
    | st.text(max_size=12)
    | st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=6,
    )
)


def _value_paths(document) -> list[tuple]:
    """The path of each value of *document*: the root, each subject, each answer."""
    paths = [()]
    if isinstance(document, dict):
        for subject, entry in document.items():
            paths.append((subject,))
            if isinstance(entry, dict):
                paths += [(subject, kind) for kind in entry]
    return paths


@st.composite
def _edited_answers(draw):
    """The answers document with one to three of its values replaced or deleted."""
    document = _answers_document()
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(_value_paths(document)))
        if not path:
            document = draw(_ANSWER_VALUES)
            continue
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_ANSWER_VALUES)
    return document


@settings(max_examples=100, deadline=None)
@given(_edited_answers())
def test_an_edited_answers_document_ends_in_an_exit_code(tmp_path_factory, document):
    work = tmp_path_factory.mktemp("answers")
    model, answers = work / "m.erdm", work / "answers.json"
    model.write_text(ANSWERED_SOURCE, encoding="utf-8")
    answers.write_text(json.dumps(document), encoding="utf-8")
    argv = ["translate", str(model), "--answers", str(answers), "-o", str(work / "s.txt"),
            "--structured", str(work / "s.json"), "--report", str(work / "r.json")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            _held_to_the_post_defaults_oracle():
        assert main(argv) in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# --- the collector pause ---


def test_commands_leave_no_reference_cycle(tmp_path, capsys):
    # cli.main pauses the cyclic collector while a command runs, which is
    # safe only while a command leaves nothing for the collector to free.
    write_model = _write_model()
    sources = [Path(FIXTURE).read_text(encoding="utf-8")]
    sources += [write_model(random_model(seed)) for seed in range(100)]
    sources.append(write_model(_relational_model(4)))
    main(["check", FIXTURE])  # a first command leaves the objects of lazy set-up
    gc.collect()
    # Then each collection walks what the commands made, not every object the
    # test process holds: a cycle a command leaves is one of objects it made.
    gc.freeze()
    try:
        out = [str(tmp_path / name) for name in ("s.txt", "s.json", "r.json")]
        for i, source in enumerate(sources):
            path = tmp_path / f"m{i}.erdm"
            path.write_text(source, encoding="utf-8")
            for argv in (
                ["translate", str(path), "-o", out[0], "--structured", out[1], "--report", out[2]],
                ["check", str(path)],
                ["validate", str(path)],
            ):
                assert main(argv) == 0, argv
                assert gc.collect() == 0, argv
            capsys.readouterr()
        assert main(["check", "--fuzz", "100"]) == 0
        assert gc.collect() == 0
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_the_collector_and_restores_the_callers_state(
    tmp_path, capsys, monkeypatch, enabled
):
    invalid = tmp_path / "invalid.erdm"
    invalid.write_text("diagram D { entity A { } entity A { } }\n")
    paused = []
    validate = cli.validate_model
    monkeypatch.setattr(cli, "validate_model",
                        lambda model: paused.append(not gc.isenabled()) or validate(model))
    caller = gc.isenabled()
    try:
        for path, code in ((FIXTURE, 0), (invalid, 1), (tmp_path / "missing.erdm", 2)):
            (gc.enable if enabled else gc.disable)()
            assert main(["validate", str(path)]) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if caller else gc.disable)()
    assert paused == [True, True]
