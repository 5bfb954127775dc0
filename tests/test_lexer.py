from __future__ import annotations

import gc
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from erdmc.diagnostics import ParseFailure
from erdmc.generator import random_model
from erdmc.lexer import (
    _GLYPHS,
    EOF,
    MAX_DIGITS,
    STRING,
    TokenStream,
    _unescape,
    kind_of,
    offsets,
    parse_error,
    quote_string,
    tokenize,
    value_of,
)
from test_pinned_outputs import _write_model


def token_tuples(text: str) -> list[tuple[str, str, int]]:
    """Each token of *text* as its kind, its value and the offset where it starts."""
    return [(kind_of(lexeme), value_of(lexeme), offset)
            for lexeme, offset in zip(tokenize(text), offsets(text), strict=True)]


def kinds(text: str) -> list[tuple[str, str, int, int]]:
    """Each token's kind and value, and the line and column of its offset."""
    placed = [(t, parse_error(text, t[2], "")) for t in token_tuples(text)]
    return [(*t[:2], at.line, at.column) for t, at in placed]


def failure(text: str) -> tuple[int, int, str]:
    with pytest.raises(ParseFailure) as info:
        tokenize(text)
    [error] = info.value.errors
    return error.line, error.column, error.message


@pytest.mark.parametrize("text, expected", [
    ("", [("eof", "", 1, 1)]),
    # A CR is a blank, so CRLF text keeps the LF's line numbers.
    ("a\r\nbc\r\n", [
        ("name", "a", 1, 1), ("name", "bc", 2, 1), ("eof", "", 3, 1),
    ]),
    ("x\r\n  y", [("name", "x", 1, 1), ("name", "y", 2, 3), ("eof", "", 2, 4)]),
    # '#' glued to a name belongs to it; anywhere else it opens a comment.
    ("Room# a#b", [("name", "Room#", 1, 1), ("name", "a#b", 1, 7), ("eof", "", 1, 10)]),
    ("a # note # more\nb", [("name", "a", 1, 1), ("name", "b", 2, 1), ("eof", "", 2, 2)]),
    ("#", [("eof", "", 1, 2)]),
    ("1#x\n(#)", [
        ("int", "1", 1, 1), ("op", "(", 2, 1), ("eof", "", 2, 4),
    ]),
    # Operators are read longest first.
    ("<-><=<>=>->-<", [
        ("op", "<->", 1, 1), ("op", "<=", 1, 4), ("op", "<>", 1, 6), ("op", "=>", 1, 8),
        ("op", "->", 1, 10), ("op", "-", 1, 12), ("op", "<", 1, 13), ("eof", "", 1, 14),
    ]),
    ("1-2", [("int", "1", 1, 1), ("op", "-", 1, 2), ("int", "2", 1, 3), ("eof", "", 1, 4)]),
    ("1/2/2020 12 3/4/5", [
        ("date", "1/2/2020", 1, 1), ("int", "12", 1, 10), ("date", "3/4/5", 1, 13),
        ("eof", "", 1, 18),
    ]),
    ('"a" "" "b\\"c\\\\" "\\n\\r\\t\\q"', [
        ("string", "a", 1, 1), ("string", "", 1, 5), ("string", 'b"c\\', 1, 8),
        ("string", "\n\r\tq", 1, 17), ("eof", "", 1, 27),
    ]),
    # A glyph right after a string that holds an escape; '#' glued to a name before a string.
    ('"a\\n"→b', [("string", "a\n", 1, 1), ("op", "->", 1, 6), ("name", "b", 1, 7), ("eof", "", 1, 8)]),
    ('Room#"x"', [("name", "Room#", 1, 1), ("string", "x", 1, 6), ("eof", "", 1, 9)]),
    # \d takes digits beyond ASCII, as int() reads them.
    ("a ١٠ 1/٢/3", [
        ("name", "a", 1, 1), ("int", "١٠", 1, 3), ("date", "1/٢/3", 1, 6), ("eof", "", 1, 11),
    ]),
    ("x\n∀y ∈ A", [
        ("name", "x", 1, 1), ("name", "forall", 2, 1), ("name", "y", 2, 2),
        ("name", "in", 2, 4), ("name", "A", 2, 6), ("eof", "", 2, 7),
    ]),
])
def test_tokens_and_positions(text, expected):
    assert kinds(text) == expected


@pytest.mark.parametrize("glyph, kind, value", [
    ("→", "op", "->"), ("↔", "op", "<->"), ("⇒", "op", "=>"), ("≠", "op", "<>"),
    ("≤", "op", "<="), ("≥", "op", ">="), ("∧", "op", "&"), ("∨", "op", "|"),
    ("¬", "op", "!"), ("•", "op", "."),
    ("∀", "name", "forall"), ("∈", "name", "in"), ("⊆", "name", "subset_of"),
])
def test_each_glyph_reads_as_its_ascii_token(glyph, kind, value):
    assert kinds(f"a\n{glyph}b") == [
        ("name", "a", 1, 1), (kind, value, 2, 1), ("name", "b", 2, 2), ("eof", "", 2, 3),
    ]


@pytest.mark.parametrize("text, expected", [
    ('a "abc', (1, 3, "unterminated string literal")),
    ('a\n  "abc\n"', (2, 3, "unterminated string literal")),
    ('"abc\\', (1, 1, "unterminated string literal")),
    ("a $", (1, 3, "unexpected character '$'")),
    ("a\n\n  b @", (3, 5, "unexpected character '@'")),
    ("1/2", (1, 2, "unexpected character '/'")),
    ("1/2/3/4", (1, 6, "unexpected character '/'")),
    ("9" * MAX_DIGITS + "/", (1, MAX_DIGITS + 1, "unexpected character '/'")),
    ("1/2/" + "9" * (MAX_DIGITS + 1), (1, 1, f"integer longer than {MAX_DIGITS} digits")),
    ("a " + "٣" * (MAX_DIGITS + 1), (1, 3, f"integer longer than {MAX_DIGITS} digits")),
    ('→"\\u12"', (1, 3, "malformed \\u escape")),
    ('a "', (1, 3, "unterminated string literal")),
])
def test_lexical_errors_are_positioned(text, expected):
    assert failure(text) == expected


def test_backslash_newline_does_not_continue_a_string():
    # A continued string would put x on line 2, although it is on line 3.
    assert failure('description "a\\\nb"\nx') == (1, 13, "unterminated string literal")


@pytest.mark.parametrize("text, value", [
    ('"\\u00e9\\u2028"', "\u00e9\u2028"),
    ('"\\u000B\\u000c"', "\v\f"),
    ('"\\\\u0041"', "\\u0041"),
])
def test_u_escape_reads_four_hex_digits(text, value):
    assert kinds(text)[0] == ("string", value, 1, 1)


@pytest.mark.parametrize("text, column", [
    ('"\\u12"', 2), ('x "ab\\uzzzz"', 6), ('"\\u"', 2), ('"\\ud800"', 2),
])
def test_malformed_u_escape_is_positioned_at_its_backslash(text, column):
    line, col, message = failure(text)
    assert (line, col) == (1, column)
    assert message.startswith("malformed \\u escape")


@given(st.text())
def test_quoted_strings_read_back_unchanged(s):
    assert kinds(quote_string(s)) == [(STRING, s, 1, 1), (EOF, "", 1, len(quote_string(s)) + 1)]


@given(st.text())
def test_quoted_strings_stay_on_one_line(s):
    assert len(quote_string(s).splitlines()) == 1


def test_tokens_leave_the_collectors_books():
    # The stream keeps str lexemes, and the offsets that place them are ints:
    # the collector tracks neither.
    text = (Path(__file__).parent / "fixtures" / "teaching.erdm").read_text(encoding="utf-8")
    stream = TokenStream(text)
    starts = offsets(text)
    assert len(stream.lexemes) == len(starts) > 600
    assert {type(lexeme) for lexeme in stream.lexemes} == {str}
    assert {type(start) for start in starts} == {int}
    assert [x for x in [*stream.lexemes, *starts] if gc.is_tracked(x)] == []


# --- a reference scanner: one match per token or run of blanks ---

_REFERENCE_RE = re.compile("|".join([
    r"(?P<blank>[ \t\r\n]+|#[^\n]*)",
    r'(?P<string>"[^"\\\n]*(?:\\[^\n][^"\\\n]*)*")',
    r"(?P<date>\d+/\d+/\d+)",
    r"(?P<int>\d+)",
    r"(?P<name>[A-Za-z_][A-Za-z0-9_#]*)",
    r"(?P<op><->|->|=>|<=|>=|<>|[()\[\]{},:^.=<>&|!-])",
    "(?P<glyph>[" + "".join(_GLYPHS) + "])",
    r"(?P<error>.)",
]))


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _REFERENCE_RE.finditer(text):
        kind = m.lastgroup
        if kind == "blank":
            continue
        start = m.start()
        if kind == "string":
            value = text[start + 1:m.end() - 1]
            if "\\" in value:
                value = _unescape(value, text, start + 1)
            tokens.append((STRING, value, start))
        elif kind == "glyph":
            tokens.append((*_GLYPHS[m.group()], start))
        elif kind == "error":
            ch = m.group()
            raise ParseFailure([parse_error(text, start, "unterminated string literal"
                                            if ch == '"' else f"unexpected character {ch!r}")])
        else:
            value = m.group()
            if len(value) > MAX_DIGITS and kind in ("int", "date") and (
                max(map(len, value.split("/"))) > MAX_DIGITS
            ):
                raise ParseFailure([parse_error(
                    text, start, f"integer longer than {MAX_DIGITS} digits",
                )])
            tokens.append((kind, value, start))
    tokens.append((EOF, "", len(text)))
    return tokens


def scanned(scan, text: str) -> list[tuple[str, str, int]] | tuple[int, int, str]:
    """The tokens of *text*, or the line, column and message of its error."""
    try:
        return scan(text)
    except ParseFailure as failure:
        [error] = failure.errors
        return error.line, error.column, error.message


_PIECES = [
    "a", "Room", "x_1", "forall", "7", "12", "1/2/2020", "3/4", "9" * (MAX_DIGITS + 1),
    "<->", "->", "=>", "<=", ">=", "<>", "<", ">", "-", "(", ")", "[", "]", "{", "}", ",",
    ":", "^", ".", "=", "&", "|", "!", '"ab"', '""', '"a\\"b"', '"\\n\\q"', '"\\u00e9"',
    '"\\uzz"', '"\\ud800"', '"\\udc00"', '"\\uDFFF"', '"a\nb"', " ", "\t", "\r\n", "\n",
    "# note", "#", "Room#", "a#b", '"', "\\", "$", "/", *_GLYPHS,
    # scanner boundary cases
    "1/2/3/4", "9" * MAX_DIGITS + "/", "1/2/" + "9" * (MAX_DIGITS + 1), '"a\\n"→', '→"\\u12"',
    'Room#"x"', "٣", "١٠", "٣" * (MAX_DIGITS + 1),
    # characters that str.split takes as blanks, but the scanner does not
    "\x0b", "\x0c", "\u00a0", "\u2028",
]


@given(st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=24).map("".join),
    # a comment that the end of the input closes
    st.lists(st.sampled_from(_PIECES), max_size=24).map(lambda pieces: "".join(pieces) + " # end"),
    st.text(alphabet=sorted({c for piece in _PIECES for c in piece}), max_size=40),
))
def test_tokenize_scans_as_the_reference_does(text):
    assert scanned(token_tuples, text) == scanned(reference_tokenize, text)


def test_tokenize_scans_the_fixtures_and_generated_models_as_the_reference_does():
    fixtures = Path(__file__).parent / "fixtures"
    write_model = _write_model()
    texts = [(fixtures / name).read_text(encoding="utf-8")
             for name in ("teaching.erdm", "every_codomain.erdm")]
    texts += [write_model(random_model(seed)) for seed in range(100)]
    for text in texts:
        assert token_tuples(text) == reference_tokenize(text)
