"""Tokenizer shared by the model DSL and the constraint-formula syntax.

Names may contain ``#`` when it directly follows an identifier character
(``Room#``); a ``#`` preceded by whitespace or punctuation starts a line
comment. Mathematical glyphs are accepted as synonyms for their ASCII
operators. The printers take their ``--unicode`` glyphs from this same
table (GLYPH_OF), so every glyph they print lexes back to the surface it
replaced.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import ParseError, ParseFailure

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

# One alternative per token kind, each named after the kind it yields. Their
# first characters are disjoint, so at most one can start at any position;
# "error" takes any other character, an unclosed quote included.
# A string ends at its line: a backslash escapes any character but a newline.
# Operators are listed longest first so "<->" is not read as "<" + "->".
_TOKEN_RE = re.compile("|".join([
    r"(?P<newline>\n)",
    r"(?P<blank>[ \t\r]+|#[^\n]*)",  # a '#' that does not continue a name
    r'(?P<string>"[^"\\\n]*(?:\\[^\n][^"\\\n]*)*")',
    r"(?P<date>\d+/\d+/\d+)",
    r"(?P<int>\d+)",
    r"(?P<name>[A-Za-z_][A-Za-z0-9_#]*)",
    r"(?P<op><->|->|=>|<=|>=|<>|[()\[\]{},:^.=<>&|!-])",
    "(?P<glyph>[" + "".join(_GLYPHS) + "])",
    r"(?P<error>.)",
]))

# String-literal escapes, by the letter after the backslash: tokenize reads
# them, quote_string writes them. Any other letter stands for itself, except
# "u", which takes four hex digits naming a character. quote_string writes the
# other characters that str.splitlines breaks a line at as \uXXXX, so a
# printed literal stays on one line.
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_QUOTE = str.maketrans(
    {char: "\\" + letter for letter, char in _ESCAPES.items()}
    | {char: f"\\u{ord(char):04x}" for char in _LINE_BREAKS}
)
_ESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{0,4}|.)")


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # compact for test failures
        return f"{self.kind}({self.value!r})@{self.line}:{self.column}"


def tokenize(text: str) -> list[Token]:
    """Split *text* into tokens, raising ParseFailure on lexical errors."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "blank":
            continue
        start = m.start()
        if kind == "newline":
            line += 1
            line_start = start + 1
        elif kind == "string":
            value = text[start + 1:m.end() - 1]
            if "\\" in value:
                value = _unescape(value, line, start - line_start + 2)
            append(Token(STRING, value, line, start - line_start + 1))
        elif kind == "glyph":
            append(Token(*_GLYPHS[m.group()], line, start - line_start + 1))
        elif kind == "error":
            ch = m.group()
            message = ("unterminated string literal" if ch == '"'
                       else f"unexpected character {ch!r}")
            raise ParseFailure([ParseError(line, start - line_start + 1, message)])
        else:
            append(Token(kind, m.group(), line, start - line_start + 1))
    append(Token(EOF, "", line, max(1, len(text) - line_start + 1)))
    return tokens


def _unescape(body: str, line: int, column: int) -> str:
    """The value of a string literal whose text from *column* on is *body*."""
    def replace(m: re.Match) -> str:
        esc = m.group(1)
        if esc[0] != "u":
            return _ESCAPES.get(esc, esc)
        if len(esc) == 5 and not 0xD800 <= (code := int(esc[1:], 16)) <= 0xDFFF:
            return chr(code)
        raise ParseFailure([ParseError(
            line, column + m.start(), "malformed \\u escape",
            expected="four hex digits naming a character that is not a surrogate",
        )])

    return _ESCAPE_RE.sub(replace, body)


def quote_string(text: str) -> str:
    """*text* as a string literal that tokenize reads back unchanged."""
    return '"' + text.translate(_QUOTE) + '"'


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        if not ahead:  # the cursor never passes the final EOF token
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def at(self, kind: str, value: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (value is None or t.value == value)

    def at_name(self, value: str) -> bool:
        return self.at(NAME, value)

    def advance(self) -> Token:
        t = self.peek()
        if t.kind != EOF:
            self.pos += 1
        return t

    def error(self, message: str, expected: str | None = None) -> ParseFailure:
        t = self.peek()
        return ParseFailure([ParseError(t.line, t.column, message, expected)])

    def expect(self, kind: str, value: str | None = None, label: str | None = None) -> Token:
        t = self.peek()
        if t.kind == kind and (value is None or t.value == value):
            return self.advance()
        want = label or value or kind
        got = t.value if t.kind != EOF else "end of input"
        raise self.error(f"found {got!r}", expected=str(want))
