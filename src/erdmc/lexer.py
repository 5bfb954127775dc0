"""Tokenizer shared by the model DSL and the constraint-formula syntax.

A token is a lexeme: its text as written, a glyph replaced by its ASCII
surface, and "" for the end of the text. The first character of a lexeme
gives its kind, and a "/" marks a date; a string literal keeps its quotes
and escapes until the parser reads its value. ``tokenize`` lists the lexemes
in one regex scan; ``offsets`` places them, and a parse asks for it only when
it reports an error.

Names may contain ``#`` when it directly follows an identifier character
(``Room#``); a ``#`` preceded by whitespace or punctuation starts a line
comment. Mathematical glyphs are accepted as synonyms for their ASCII
operators. The printers take their ``--unicode`` glyphs from this same
table (GLYPH_OF), so every glyph they print lexes back to the surface it
replaced.
"""

from __future__ import annotations

import re
from collections.abc import Container
from string import ascii_letters

from .diagnostics import LINE_BREAKS, ParseError, ParseFailure

NAME = "name"
INT = "int"
STRING = "string"
DATE = "date"
OP = "op"
EOF = "eof"

# Glyph synonyms read as the token of their ASCII surface.
_GLYPHS = {
    "→": (OP, "->"),     # right arrow
    "↔": (OP, "<->"),    # bidirectional arrow
    "⇒": (OP, "=>"),     # double right arrow
    "≠": (OP, "<>"),     # not equal
    "≤": (OP, "<="),
    "≥": (OP, ">="),
    "∧": (OP, "&"),      # logical and
    "∨": (OP, "|"),      # logical or
    "¬": (OP, "!"),      # negation
    "•": (OP, "."),      # bullet, key concatenation
    "∀": (NAME, "forall"),
    "∈": (NAME, "in"),
    "⊆": (NAME, "subset_of"),
}
# Each ASCII surface that has a glyph synonym, to that glyph: what the
# printers write for the surface with --unicode. Without it they write the
# surface itself, as PLAIN maps it.
GLYPH_OF = {surface: glyph for glyph, (_, surface) in _GLYPHS.items()}
PLAIN = {surface: surface for surface in GLYPH_OF}

# The most digits an integer may have, written out or as 10^n: int() and
# str() refuse longer decimals, and computing 10^n for a long n takes seconds.
MAX_DIGITS = 4300
_INTEGER_LIMIT = 10 ** MAX_DIGITS

# A date (day/month/year) and a name, as the tokenizer reads them.
DATE_FORM = r"\d++/\d++/\d++"
NAME_FORM = r"[A-Za-z_][A-Za-z0-9_#]*+"
NAME_RE = re.compile(NAME_FORM)  # a name printed bare must match it whole, to read back

# Blanks and comments: a '#' that does not continue a name opens a comment.
_BLANKS = r"[ \t\r\n]*+(?:#[^\n]*+[ \t\r\n]*+)*+"
_BLANKS_RE = re.compile(_BLANKS)
# No run of more than MAX_DIGITS digits starts here.
_SHORT = rf"(?!\d{{{MAX_DIGITS + 1}}})"
# Each match is one token and the blanks after it, so findall lists lexemes.
# Group 1 is a well-formed token's lexeme: a name, an operator (longest first,
# so "<->" is not read as "<" + "->"), a string literal whose \u escapes are
# all well formed, or digits. Digits that go on as "/digits/digit" are a date,
# else an integer, and neither may hold a run longer than MAX_DIGITS. A fault
# leaves group 1 empty: a glyph, or a lexical error, which _fault tells by its
# first character. It takes one character, or a whole digit run, so that no
# run is checked again from each of its digits. The end of the text matches
# once, empty: the EOF lexeme "". Every run is possessive (``*+``, ``++``):
# what follows a run can never continue it, so no match gives characters back.
_TOKEN_RE = re.compile("(?:(" + "|".join([
    NAME_FORM,
    r"<->|->|=>|<=|>=|<>|[()\[\]{},:^.=<>&|!-]",
    r'"[^"\\\n]*+(?:\\(?:u(?![Dd][89ABab])[0-9A-Fa-f]{4}|[^u\n])[^"\\\n]*+)*+"',
    rf"{_SHORT}\d++(?:/{_SHORT}\d++/{_SHORT}\d++|(?!/\d++/\d))",
]) + r")|\d++|.|\Z)" + _BLANKS)
# A string literal, its escapes well formed or not. It ends at its line: a
# backslash escapes any character but a newline.
_STRING_RE = re.compile(r'"[^"\\\n]*+(?:\\[^\n][^"\\\n]*+)*+"')
# Each kind but the digits', by the first character of its lexemes. Any other
# first character is a digit, which \d takes beyond ASCII too; a date holds a "/".
_KIND_OF = ({"": EOF, '"': STRING} | dict.fromkeys(ascii_letters + "_", NAME)
            | dict.fromkeys("()[]{},:^.=<>&|!-", OP))

# String-literal escapes, by the letter after the backslash: tokenize reads
# them, quote_string writes them. Any other letter stands for itself, except
# "u", which takes four hex digits naming a character. quote_string writes the
# other characters that str.splitlines breaks a line at as \uXXXX, so a
# printed literal stays on one line.
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_QUOTE = str.maketrans(
    {char: f"\\u{ord(char):04x}" for char in LINE_BREAKS}
    | {char: "\\" + letter for letter, char in _ESCAPES.items()}
)
_ESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{0,4}|.)")


def is_integer(v: object) -> bool:
    """True iff *v* is an int but no bool, of at most MAX_DIGITS digits: what the reader gives."""
    return type(v) is int and -_INTEGER_LIMIT < v < _INTEGER_LIMIT  # builds no digit string


def parse_error(text: str, offset: int, message: str, expected: str | None = None) -> ParseError:
    """A ParseError at *offset* of *text*, placed by its 1-based line and column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(text.count("\n", 0, offset) + 1, offset - line_start + 1, message, expected)


def tokenize(text: str) -> list[str]:
    """The lexemes of *text*, the last one EOF's; raises ParseFailure at its first lexical error."""
    lexemes = _TOKEN_RE.findall(text, _BLANKS_RE.match(text).end())
    if lexemes.index("") < len(lexemes) - 1:  # a fault: a glyph or an error
        return _scan(text)[0]
    return lexemes


def offsets(text: str) -> list[int]:
    """Where each lexeme that tokenize lists for *text* starts."""
    return _scan(text)[1]


def _scan(text: str) -> tuple[list[str], list[int]]:
    """The lexemes of *text* and their offsets, match by match, each fault read by _fault."""
    matches = list(_TOKEN_RE.finditer(text, _BLANKS_RE.match(text).end()))
    return [m.group(1) or _fault(text, m.start()) for m in matches], [m.start() for m in matches]


def _fault(text: str, start: int) -> str:
    """The EOF lexeme at the end of *text*, the ASCII surface of a glyph at *start*, or
    else the lexical error there."""
    ch = text[start:start + 1]
    if not ch:
        return ""
    if ch in _GLYPHS:
        return _GLYPHS[ch][1]
    if ch == '"':
        if literal := _STRING_RE.match(text, start):
            _unescape(literal.group()[1:-1], text, start + 1)  # raises at a malformed \u escape
        message = "unterminated string literal"
    elif ch.isdecimal():  # what \d matches
        message = f"integer longer than {MAX_DIGITS} digits"
    else:
        message = f"unexpected character {ch!r}"
    raise ParseFailure([parse_error(text, start, message)])


def kind_of(lexeme: str) -> str:
    """The kind of the token *lexeme*."""
    kind = _KIND_OF.get(lexeme[:1], INT)
    return DATE if kind is INT and "/" in lexeme else kind


def value_of(lexeme: str) -> str:
    """The value of the token *lexeme*: a string literal's text, unescaped, or the lexeme."""
    if lexeme[:1] != '"':
        return lexeme
    body = lexeme[1:-1]
    return _unescape(body, lexeme, 1) if "\\" in body else body


def _unescape(body: str, text: str, offset: int) -> str:
    """The value of the string literal *body*, found at *offset* of *text*."""
    def replace(m: re.Match) -> str:
        esc = m.group(1)
        if esc[0] != "u":
            return _ESCAPES.get(esc, esc)
        if len(esc) == 5 and not 0xD800 <= (code := int(esc[1:], 16)) <= 0xDFFF:
            return chr(code)
        raise ParseFailure([parse_error(
            text, offset + m.start(), "malformed \\u escape",
            expected="four hex digits naming a character that is not a surrogate",
        )])

    return _ESCAPE_RE.sub(replace, body)


def quote_string(text: str) -> str:
    """*text* as a string literal that tokenize reads back unchanged."""
    return '"' + text.translate(_QUOTE) + '"'


class TokenStream:
    """Cursor over the lexemes of *text*; it never moves past the final EOF lexeme "".

    ``error`` places a failure at a position: ``pos``, the current token's, or ``last``,
    the most recently consumed token's."""

    def __init__(self, text: str):
        self.text = text
        self.lexemes = tokenize(text)
        self.offsets: list[int] | None = None  # found at the first error
        self.pos = 0
        self.last = 0

    def peek(self, ahead: int = 0) -> str:
        """The lexeme *ahead* tokens on, or EOF's past the end."""
        if not ahead:
            return self.lexemes[self.pos]
        return self.lexemes[min(self.pos + ahead, len(self.lexemes) - 1)]

    def at(self, kind: str) -> bool:
        return kind_of(self.lexemes[self.pos]) == kind

    def accept(self, lexeme: str) -> bool:
        """Consume the current token if it is *lexeme*, a keyword or an operator."""
        if self.lexemes[self.pos] == lexeme:
            self.last = self.pos
            self.pos += 1
            return True
        return False

    def take(self, keywords: Container[str]) -> str | None:
        """Consume the current token and return it if it is one of *keywords*."""
        lexeme = self.lexemes[self.pos]
        if lexeme in keywords:
            self.last = self.pos
            self.pos += 1
            return lexeme
        return None

    def accept_kind(self, kind: str) -> str | None:
        """Consume the current token and return its value if it is of *kind*.

        *kind* is never EOF, so the cursor stays on the final token. A string
        literal's value may be empty, so test the result against None.
        """
        lexeme = self.lexemes[self.pos]
        if kind_of(lexeme) != kind:
            return None
        self.last = self.pos
        self.pos += 1
        return value_of(lexeme) if kind == STRING else lexeme

    def advance(self) -> None:
        if self.lexemes[self.pos]:
            self.last = self.pos
            self.pos += 1

    def error(self, message: str, expected: str | None = None,
              at: int | None = None) -> ParseFailure:
        """A failure at the token in position *at*, by default the current one."""
        if self.offsets is None:
            self.offsets = offsets(self.text)
        offset = self.offsets[self.pos if at is None else at]
        return ParseFailure([parse_error(self.text, offset, message, expected)])

    def unexpected(self, expected: str) -> ParseFailure:
        """A failure at the current token, which is not the *expected* one."""
        lexeme = self.lexemes[self.pos]
        return self.error(f"found {value_of(lexeme) if lexeme else 'end of input'!r}", expected)

    def expect(self, lexeme: str, label: str | None = None) -> None:
        """Consume the current token, which must be *lexeme*; *label* names it in an error."""
        if self.lexemes[self.pos] != lexeme:
            raise self.unexpected(label or lexeme)
        self.last = self.pos
        self.pos += 1

    def expect_kind(self, kind: str, label: str) -> str:
        """Consume the current token, which must be of *kind*, and return its value."""
        if (value := self.accept_kind(kind)) is None:
            raise self.unexpected(label)
        return value
