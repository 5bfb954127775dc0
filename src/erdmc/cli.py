"""Command-line front end: translate, validate, and check commands.

Exit codes: 0 success, 1 translation or check failures, 2 parse errors,
unreadable input or answers, or unwritable output. Diagnostics go to stderr;
the scheme goes to stdout.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import sys
from pathlib import Path

from .census import verify_translation
from .diagnostics import ParseFailure
from .emitter import StructuredFormatError, emit_structured, emit_text, encode_report, read_json
from .enrichment import Question
from .generator import random_model
from .model import ERModel, validate_model
from .parser import parse_model
from .translator import TranslationOptions, TranslationResult, translate

EXIT_OK = 0
EXIT_TRANSLATION = 1
EXIT_PARSE = 2


class _CommandError(Exception):
    """A one-line reason why a command cannot run; exits with EXIT_PARSE."""


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # A command leaves no reference cycle behind (tests/test_cli.py holds it
    # to that), so the collector's passes over every token, step and mapping
    # it keeps alive are pure cost: pause the collector while it runs.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except ParseFailure as failure:
        for error in failure.errors:
            print(error.render(), file=sys.stderr)
        return EXIT_PARSE
    except _CommandError as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    finally:
        if collecting:
            gc.enable()


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    dbms_max = TranslationOptions().dbms_max_cardinality
    parser = argparse.ArgumentParser(
        prog="erdmc",
        description="Translate Entity-Relationship data models into "
                    "(Elementary) Mathematical Data Model schemes.",
    )
    sub = parser.add_subparsers(required=True)

    p_translate = sub.add_parser("translate", help="translate a model to a scheme")
    p_translate.add_argument("input", type=_path, help="path to a .erdm file, or - for stdin")
    p_translate.add_argument("-o", "--output", type=_file,
                             help="write the text scheme here instead of stdout")
    p_translate.add_argument("--structured", type=_file, metavar="PATH",
                             help="also write the structured JSON form")
    p_translate.add_argument("--report", type=_file, metavar="PATH",
                             help="also write the translation report as JSON")
    p_translate.add_argument("--answers", type=_file, metavar="PATH",
                             help="JSON document of scripted answers")
    p_translate.add_argument("--interactive", action="store_true",
                             help="prompt for missing definitions, directions, and formulas")
    p_translate.add_argument("--unicode", action="store_true",
                             help="render with mathematical glyphs instead of ASCII")
    p_translate.add_argument("--dbms-max-card", type=_at_least_1, default=dbms_max,
                             help="maximum cardinality assumed when a set declares none")
    p_translate.set_defaults(handler=_cmd_translate)

    p_validate = sub.add_parser("validate", help="parse and validate a model")
    p_validate.add_argument("input", type=_path, help="path to a .erdm file, or - for stdin")
    p_validate.set_defaults(handler=_cmd_validate)

    p_check = sub.add_parser(
        "check", help="translate and verify linearity, soundness, completeness, optimality"
    )
    p_check.add_argument("input", nargs="?", type=_path,
                         help="a .erdm file, or - for stdin; not with --fuzz")
    p_check.add_argument("--fuzz", type=_at_least_1, metavar="N",
                         help="check N (at least 1) randomly generated models instead of a file")
    p_check.add_argument("--seed", type=int, default=0, help="seed for --fuzz")
    p_check.add_argument("--dbms-max-card", type=_at_least_1, default=dbms_max)
    p_check.set_defaults(handler=_cmd_check)
    return parser


def _at_least_1(text: str) -> int:
    """A --dbms-max-card or --fuzz value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _path(text: str) -> str:
    """A path argument: any text but the empty one, which names no file."""
    if not text:
        raise argparse.ArgumentTypeError("a path cannot be empty")
    return text


def _file(text: str) -> str:
    """An output or answers path: a path, but not -, since only the model reads stdin."""
    if text == "-":
        raise argparse.ArgumentTypeError("- is not a file here: only the model reads stdin")
    return _path(text)


def _read_input(path: str) -> str:
    """The model text, from a file or stdin: strict UTF-8, universal newlines."""
    raw = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise _CommandError(f"cannot read input: {path}: not UTF-8 text ({exc.reason})") from exc


def _read_answers(path: str) -> dict:
    """The scripted answers: an object of objects, one per question subject."""
    try:
        answers = read_json(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason})"
    except StructuredFormatError as exc:
        reason = exc.reason
    else:
        reason = _answers_problem(answers)
        if reason is None:
            return answers
    raise _CommandError(f"cannot read answers: {path}: {reason}")


def _answers_problem(answers: object) -> str | None:
    """Why *answers* is not an object of objects of strings or nulls; None if it is."""
    if not isinstance(answers, dict):
        return "the document must be an object"
    for subject, entry in answers.items():
        if not isinstance(entry, dict):
            return f"the entry for {subject!r} must be an object"
        for kind, answer in entry.items():
            if answer is not None and not isinstance(answer, str):
                return f"the {kind!r} answer for {subject!r} must be a string or null"
    return None


def _write_output(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CommandError(f"cannot write output: {path}: {exc.strerror or exc}") from exc


def _print_diagnostics(result: TranslationResult) -> None:
    for d in result.report.diagnostics:
        print(d.render(), file=sys.stderr)


def _stdin_prompter(question: Question) -> str | None:
    print(f"{question.subject} [{question.kind}]: {question.prompt}", file=sys.stderr)
    print("> ", end="", file=sys.stderr, flush=True)
    # Decode the line's bytes here, whatever stdin's error handler: bytes its
    # encoding cannot decode become lone surrogates, which the translator refuses.
    stdin = sys.stdin
    buffer = getattr(stdin, "buffer", None)  # a text stream in memory has none
    line = (stdin.readline() if buffer is None
            else buffer.readline().decode(stdin.encoding, "surrogateescape"))
    return line.strip() or None


def _cmd_translate(args) -> int:
    source = _read_input(args.input)
    model = parse_model(source)
    answers = _read_answers(args.answers) if args.answers else None
    if args.interactive and args.input == "-":
        raise _CommandError("--interactive cannot read prompts while the model comes from stdin")
    options = TranslationOptions(
        dbms_max_cardinality=args.dbms_max_card,
        answers=answers,
        prompter=_stdin_prompter if args.interactive else None,
    )
    result = translate(model, options)
    _print_diagnostics(result)
    report_text = encode_report(result.report) if args.report or args.structured else None
    if args.report:
        _write_output(args.report, report_text + "\n")
    if result.scheme is None:
        return EXIT_TRANSLATION
    text = emit_text(result.scheme, unicode=args.unicode)
    if args.output:
        _write_output(args.output, text)
    else:
        sys.stdout.write(text)
    if args.structured:
        _write_output(args.structured, emit_structured(result.scheme, report_text))
    return EXIT_OK


def _cmd_validate(args) -> int:
    source = _read_input(args.input)
    model = parse_model(source)
    issues = validate_model(model)
    errors = issues.errors
    for issue in issues:
        print(issue.render(), file=sys.stderr)
    print(f"{len(errors)} errors")
    return EXIT_OK if not errors else EXIT_TRANSLATION


def _check_one(model: ERModel, options: TranslationOptions, heading: str) -> bool:
    witnesses = verify_translation(translate(model, options))
    for name, against in witnesses.items():
        print(f"{heading}{name.upper()}: {'FAIL' if against else 'PASS'}")
        for witness in against:
            print(f"{heading}{name}: {witness}", file=sys.stderr)
    return not any(witnesses.values())


def _cmd_check(args) -> int:
    options = TranslationOptions(dbms_max_cardinality=args.dbms_max_card)
    if (args.fuzz is None) == (args.input is None):
        raise _CommandError("provide an input file or --fuzz N, not both")
    if args.fuzz is not None:
        all_ok = True
        for i in range(args.fuzz):
            all_ok &= _check_one(random_model(args.seed + i), options, heading=f"model {i}: ")
        return EXIT_OK if all_ok else EXIT_TRANSLATION
    model = parse_model(_read_input(args.input))
    return EXIT_OK if _check_one(model, options, heading="") else EXIT_TRANSLATION
