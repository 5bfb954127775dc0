"""Tokenizer shared by the model DSL and the constraint-formula syntax.

Names may contain ``#`` when it directly follows an identifier character
(``Room#``); a ``#`` preceded by whitespace or punctuation starts a line
comment. Mathematical glyphs are accepted as synonyms for their ASCII
operators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .diagnostics import ParseError, ParseFailure

NAME = "name"
INT = "int"
STRING = "string"
DATE = "date"
OP = "op"
EOF = "eof"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_#]*")
_INT_RE = re.compile(r"\d+")
_DATE_RE = re.compile(r"\d+/\d+/\d+")

# Longest first so "<->" is not read as "<" + "->".
_OPERATORS = (
    "<->", "->", "=>", "<=", ">=", "<>",
    "(", ")", "[", "]", "{", "}", ",", ":", "^", ".", "=", "<", ">",
    "&", "|", "!", "-",
)

# Glyph synonyms map onto the ASCII surface before operator matching.
_GLYPH_OPS = {
    "→": "->",     # right arrow
    "↔": "<->",    # bidirectional arrow
    "⇒": "=>",     # double right arrow
    "≠": "<>",     # not equal
    "≤": "<=",
    "≥": ">=",
    "∧": "&",      # logical and
    "∨": "|",      # logical or
    "¬": "!",      # negation
    "•": ".",      # bullet, key concatenation
}
_GLYPH_NAMES = {
    "∀": "forall",
    "∈": "in",
    "⊆": "subset_of",
}

# String-literal escapes, by the letter after the backslash: tokenize reads
# them, quote_string writes them.
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_QUOTE = str.maketrans({char: "\\" + letter for letter, char in _ESCAPES.items()})


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # compact for test failures
        return f"{self.kind}({self.value!r})@{self.line}:{self.column}"


def tokenize(text: str) -> list[Token]:
    """Split *text* into tokens, raising ParseFailure on lexical errors."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)

    def here(offset: int = 0) -> tuple[int, int]:
        return line, pos - line_start + 1 + offset

    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if ch == "#":  # not adjacent to a name: comment to end of line
            while pos < n and text[pos] != "\n":
                pos += 1
            continue
        if ch in _GLYPH_NAMES:
            ln, col = here()
            tokens.append(Token(NAME, _GLYPH_NAMES[ch], ln, col))
            pos += 1
            continue
        if ch in _GLYPH_OPS:
            ln, col = here()
            tokens.append(Token(OP, _GLYPH_OPS[ch], ln, col))
            pos += 1
            continue
        if ch == '"':
            ln, col = here()
            pos += 1
            chunks: list[str] = []
            while True:
                if pos >= n or text[pos] == "\n":
                    raise ParseFailure([ParseError(ln, col, "unterminated string literal")])
                c = text[pos]
                if c == "\\" and pos + 1 < n:
                    esc = text[pos + 1]
                    chunks.append(_ESCAPES.get(esc, esc))
                    pos += 2
                    continue
                if c == '"':
                    pos += 1
                    break
                chunks.append(c)
                pos += 1
            tokens.append(Token(STRING, "".join(chunks), ln, col))
            continue
        m = _DATE_RE.match(text, pos)
        if m:
            ln, col = here()
            tokens.append(Token(DATE, m.group(), ln, col))
            pos = m.end()
            continue
        m = _INT_RE.match(text, pos)
        if m:
            ln, col = here()
            tokens.append(Token(INT, m.group(), ln, col))
            pos = m.end()
            continue
        m = _NAME_RE.match(text, pos)
        if m:
            ln, col = here()
            tokens.append(Token(NAME, m.group(), ln, col))
            pos = m.end()
            continue
        for op in _OPERATORS:
            if text.startswith(op, pos):
                ln, col = here()
                tokens.append(Token(OP, op, ln, col))
                pos += len(op)
                break
        else:
            ln, col = here()
            raise ParseFailure([ParseError(ln, col, f"unexpected character {ch!r}")])

    tokens.append(Token(EOF, "", line, max(1, n - line_start + 1)))
    return tokens


def quote_string(text: str) -> str:
    """*text* as a string literal that tokenize reads back unchanged."""
    return '"' + text.translate(_QUOTE) + '"'


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

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
