from __future__ import annotations

import json
from pathlib import Path

from erdmc.cli import main

FIXTURE = str(Path(__file__).parent / "fixtures" / "teaching.erdm")


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


def test_translate_translation_errors_exit_1(tmp_path, capsys, teaching_source):
    bad = tmp_path / "dangling.erdm"
    bad.write_text(teaching_source.replace("role Class -> CLASSES", "role Class -> CLASES"))
    assert main(["translate", str(bad)]) == 1
    assert "CLASES" in capsys.readouterr().err


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


def test_translate_stdin(capsys, teaching_source, golden_scheme_text, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(teaching_source))
    assert main(["translate", "-"]) == 0
    assert capsys.readouterr().out == golden_scheme_text


def test_translate_unicode_flag(capsys):
    assert main(["translate", FIXTURE, "--unicode"]) == 0
    assert "↔" in capsys.readouterr().out


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
        "error: unresolved-set: role Class targets unknown set 'CLASES'",
    ]


def test_validate_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.erdm"
    empty.write_text("")
    assert main(["validate", str(empty)]) == 0
    assert "0 errors" in capsys.readouterr().out


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


def test_check_untranslatable_model_fails(tmp_path, capsys, teaching_source):
    bad = tmp_path / "dangling.erdm"
    bad.write_text(teaching_source.replace("role Class -> CLASSES", "role Class -> CLASES"))
    assert main(["check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "SOUNDNESS: FAIL" in out
    assert "COMPLETENESS: FAIL" in out


def test_check_requires_input_or_fuzz(capsys):
    assert main(["check"]) == 2
    assert "provide an input file" in capsys.readouterr().err
