"""Tokenizer shared by the model DSL and the constraint-formula syntax.

A token is an exact ``(kind, value, offset)`` tuple: its kind, its text (a
string literal unescaped, a glyph as its ASCII surface) and the offset of its
first character. It holds only a str, a str and an int, so the cyclic
collector stops tracking it at its first pass.

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

# Each match is one token: blanks and comments (a '#' that does not continue
# a name), then one alternative per token kind, each named after the kind it
# yields, so the token is the last group that matched. Names and operators,
# most tokens, come first. The alternatives' first characters are disjoint,
# but a date is tried before an int; "error" takes any other character, an
# unclosed quote included, and "eof" the end of the text. Every run is
# possessive (``*+``, ``++``): what follows a run can never continue it, so
# no match gives characters back.
# A string ends at its line: a backslash escapes any character but a newline.
# Operators are listed longest first so "<->" is not read as "<" + "->".
_TOKEN_RE = re.compile(r"[ \t\r\n]*+(?:#[^\n]*+[ \t\r\n]*+)*+(?:" + "|".join([
    f"(?P<name>{NAME_FORM})",
    r"(?P<op><->|->|=>|<=|>=|<>|[()\[\]{},:^.=<>&|!-])",
    r'(?P<string>"[^"\\\n]*+(?:\\[^\n][^"\\\n]*+)*+")',
    f"(?P<date>{DATE_FORM})",
    r"(?P<int>\d++)",
    "(?P<glyph>[" + "".join(_GLYPHS) + "])",
    r"(?P<error>.)",
    r"(?P<eof>\Z)",
]) + ")")

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


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split *text* into ``(kind, value, offset)`` tokens, the last one EOF,
    raising ParseFailure on lexical errors."""
    tokens: list[tuple[str, str, int]] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        group = m.lastindex
        start = m.start(group)
        if kind == NAME or kind == OP:  # most tokens: tested first, and taken as they are
            append((kind, m.group(group), start))
        elif kind == STRING:
            value = text[start + 1:m.end() - 1]
            if "\\" in value:
                value = _unescape(value, text, start + 1)
            append((STRING, value, start))
        elif kind == "glyph":
            append((*_GLYPHS[m.group(group)], start))
        elif kind == "error":
            ch = m.group(group)
            raise ParseFailure([parse_error(text, start, "unterminated string literal"
                                            if ch == '"' else f"unexpected character {ch!r}")])
        elif kind == EOF:
            # Stop: after blanks that run to the end, the end matches once more, empty.
            append((EOF, "", start))
            break
        else:  # an integer or a date
            value = m.group(group)
            if len(value) > MAX_DIGITS and max(map(len, value.split("/"))) > MAX_DIGITS:
                raise ParseFailure([parse_error(
                    text, start, f"integer longer than {MAX_DIGITS} digits",
                )])
            append((kind, value, start))
    return tokens


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
    """Cursor over the tokens of *text*; it never moves past the final EOF token.

    ``error`` places a failure at a position: ``pos``, the current token's, or ``last``,
    the most recently consumed token's."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.last = 0

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        if not ahead:
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def at(self, kind: str, value: str | None = None) -> bool:
        t = self.tokens[self.pos]
        return t[0] == kind and (value is None or t[1] == value)

    def accept(self, kind: str, value: str | None = None) -> str | None:
        """Consume the current token and return its value if it is *kind* (and *value*).

        *kind* is never EOF, so the cursor stays on the final token. A string
        literal's value may be empty, so test the result against None.
        """
        t = self.tokens[self.pos]
        if t[0] == kind and (value is None or t[1] == value):
            self.last = self.pos
            self.pos += 1
            return t[1]
        return None

    def take(self, keywords: Container[str]) -> str | None:
        """Consume the current token and return its value if it is a name or operator in *keywords*."""
        kind, value, _ = self.tokens[self.pos]
        if value in keywords and (kind == NAME or kind == OP):
            self.last = self.pos
            self.pos += 1
            return value
        return None

    def advance(self) -> str:
        t = self.tokens[self.pos]
        if t[0] != EOF:
            self.last = self.pos
            self.pos += 1
        return t[1]

    def error(self, message: str, expected: str | None = None,
              at: int | None = None) -> ParseFailure:
        """A failure at the token in position *at*, by default the current one."""
        offset = self.tokens[self.pos if at is None else at][2]
        return ParseFailure([parse_error(self.text, offset, message, expected)])

    def unexpected(self, expected: str) -> ParseFailure:
        """A failure at the current token, which is not the *expected* one."""
        kind, value, _ = self.tokens[self.pos]
        got = value if kind != EOF else "end of input"
        return self.error(f"found {got!r}", expected)

    def expect(self, kind: str, value: str | None = None, label: str | None = None) -> str:
        found = self.accept(kind, value)
        if found is None:
            raise self.unexpected(str(label or value or kind))
        return found
