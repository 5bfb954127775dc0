"""Command-line front end: translate, validate, and check commands.

Exit codes: 0 success, 1 translation or check failures, 2 parse errors or
unreadable input. Diagnostics go to stderr; the scheme goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .census import census
from .diagnostics import ParseFailure
from .emitter import emit_structured, emit_text
from .enrichment import Question, apply_input_defaults
from .generator import random_model
from .model import ERModel, source_universe, validate_model
from .parser import parse_model
from .scheme import check_scheme
from .translator import TranslationOptions, TranslationResult, translate

EXIT_OK = 0
EXIT_TRANSLATION = 1
EXIT_PARSE = 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseFailure as failure:
        for error in failure.errors:
            print(error.render(), file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erdmc",
        description="Translate Entity-Relationship data models into "
                    "(Elementary) Mathematical Data Model schemes.",
    )
    sub = parser.add_subparsers(required=True)

    p_translate = sub.add_parser("translate", help="translate a model to a scheme")
    p_translate.add_argument("input", help="path to a .erdm file, or - for stdin")
    p_translate.add_argument("-o", "--output", help="write the text scheme here instead of stdout")
    p_translate.add_argument("--structured", metavar="PATH",
                             help="also write the structured JSON form")
    p_translate.add_argument("--report", metavar="PATH",
                             help="also write the translation report as JSON")
    p_translate.add_argument("--answers", metavar="PATH",
                             help="JSON document of scripted answers")
    p_translate.add_argument("--interactive", action="store_true",
                             help="prompt for missing definitions, directions, and formulas")
    p_translate.add_argument("--unicode", action="store_true",
                             help="render with mathematical glyphs instead of ASCII")
    p_translate.add_argument("--dbms-max-card", type=int, default=10 ** 9,
                             help="maximum cardinality assumed when a set declares none")
    p_translate.set_defaults(handler=_cmd_translate)

    p_validate = sub.add_parser("validate", help="parse and validate a model")
    p_validate.add_argument("input", help="path to a .erdm file, or - for stdin")
    p_validate.set_defaults(handler=_cmd_validate)

    p_check = sub.add_parser(
        "check", help="translate and verify linearity, soundness, completeness, optimality"
    )
    p_check.add_argument("input", nargs="?", help="path to a .erdm file, or - for stdin")
    p_check.add_argument("--fuzz", type=int, metavar="N",
                         help="check N randomly generated models instead of a file")
    p_check.add_argument("--seed", type=int, default=0, help="seed for --fuzz")
    p_check.add_argument("--dbms-max-card", type=int, default=10 ** 9)
    p_check.set_defaults(handler=_cmd_check)
    return parser


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _print_diagnostics(result: TranslationResult) -> None:
    for d in result.report.diagnostics:
        print(d.render(), file=sys.stderr)


def _stdin_prompter(question: Question) -> str | None:
    print(f"{question.subject} [{question.kind}]: {question.prompt}", file=sys.stderr)
    print("> ", end="", file=sys.stderr, flush=True)
    line = sys.stdin.readline()
    return line.strip() or None


def _cmd_translate(args) -> int:
    source = _read_input(args.input)
    model = parse_model(source)
    answers = None
    if args.answers:
        answers = json.loads(Path(args.answers).read_text(encoding="utf-8"))
    if args.interactive and args.input == "-":
        print("--interactive cannot read prompts while the model comes from stdin",
              file=sys.stderr)
        return EXIT_PARSE
    options = TranslationOptions(
        dbms_max_cardinality=args.dbms_max_card,
        interactive=args.interactive,
        answers=answers,
        prompter=_stdin_prompter if args.interactive else None,
    )
    result = translate(model, options)
    _print_diagnostics(result)
    if args.report:
        Path(args.report).write_text(
            json.dumps(result.report.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )
    if result.scheme is None:
        return EXIT_TRANSLATION
    text = emit_text(result.scheme, unicode=args.unicode)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.structured:
        Path(args.structured).write_text(
            emit_structured(result.scheme, result.report), encoding="utf-8"
        )
    return EXIT_OK


def _cmd_validate(args) -> int:
    source = _read_input(args.input)
    model = parse_model(source)
    issues = validate_model(model)
    errors = [i for i in issues if i.is_error]
    for issue in issues:
        print(f"{issue.severity}: {issue.code}: {issue.message}", file=sys.stderr)
    print(f"{len(errors)} errors")
    return EXIT_OK if not errors else EXIT_TRANSLATION


def _check_one(model: ERModel, options: TranslationOptions, heading: str) -> bool:
    result = translate(model, options)
    report = result.report
    ok = True

    defaults = apply_input_defaults(model, options.dbms_max_cardinality, options.answers)
    expected = census(defaults.model)
    tallies = report.tallies
    linear = (
        tallies is not None
        and len(report.steps) == expected.total
        and tallies.as_dict() == expected.as_dict()
    )
    sources = [s.source for s in report.steps]
    optimal = len(sources) == len(set(sources)) and linear
    if result.scheme is not None:
        diagnostics = check_scheme(result.scheme)
        sound = not diagnostics
        covered = set(result.scheme.provenance.values())
        missing = {
            ref for ref in source_universe(defaults.model)
            if ref not in covered
            and not any(v.startswith(f"{ref}[") for v in covered)
        }
        complete = not missing
    else:
        sound = complete = False
    for name, passed in (
        ("linearity", linear), ("soundness", sound),
        ("completeness", complete), ("optimality", optimal),
    ):
        print(f"{heading}{name.upper()}: {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return ok


def _cmd_check(args) -> int:
    options = TranslationOptions(dbms_max_cardinality=args.dbms_max_card)
    if args.fuzz is not None:
        all_ok = True
        for i in range(args.fuzz):
            model = random_model(args.seed + i)
            all_ok &= _check_one(model, options, heading=f"model {i}: ")
        return EXIT_OK if all_ok else EXIT_TRANSLATION
    if not args.input:
        print("provide an input file or --fuzz N", file=sys.stderr)
        return EXIT_PARSE
    model = parse_model(_read_input(args.input))
    return EXIT_OK if _check_one(model, options, heading="") else EXIT_TRANSLATION


if __name__ == "__main__":
    sys.exit(main())
