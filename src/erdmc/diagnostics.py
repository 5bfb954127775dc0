"""Severity-tagged findings shared by validation, translation, and scheme checking."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

ERROR = "error"
WARNING = "warning"
INFO = "info"

# Each character that str.splitlines breaks a line at.
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK_RE = re.compile(f"[{LINE_BREAKS}]")


class Diagnostic(NamedTuple):
    """A message attached to a model or scheme element.

    Errors abort scheme emission; warnings and infos do not.
    """

    severity: str
    code: str
    message: str
    element: str = ""

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def render(self) -> str:
        """One line: each line break in it is written as its escape, such as ``\\n``."""
        where = f" [{self.element}]" if self.element else ""
        return _LINE_BREAK_RE.sub(lambda m: repr(m.group())[1:-1],
                                  f"{self.severity}: {self.code}: {self.message}{where}")


class Diagnostics(list):
    """The findings of one check or translation, in the order they were made."""

    def add(self, code: str, element: str, message: str, severity: str = ERROR) -> None:
        # tuple.__new__ skips the Python-level __new__ that NamedTuple generates.
        self.append(tuple.__new__(Diagnostic, (severity, code, message, element)))

    @property
    def errors(self) -> list[Diagnostic]:
        """The entries that make the input untranslatable or the scheme unsound."""
        return [d for d in self if d.is_error]


@dataclass(frozen=True)
class ParseError:
    """A syntax problem with a 1-based source position."""

    line: int
    column: int
    message: str
    expected: str | None = None

    def render(self) -> str:
        hint = f" (expected {self.expected})" if self.expected else ""
        return f"{self.line}:{self.column}: {self.message}{hint}"


class ParseFailure(Exception):
    """Raised by the parsers; carries every collected ParseError."""

    def __init__(self, errors: list[ParseError]):
        self.errors = list(errors)
        super().__init__("; ".join(e.render() for e in self.errors))

