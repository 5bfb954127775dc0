"""Severity-tagged findings shared by validation, translation, and scheme checking."""

from __future__ import annotations

from dataclasses import dataclass

ERROR = "error"
WARNING = "warning"
INFO = "info"


@dataclass(frozen=True)
class Diagnostic:
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
        where = f" [{self.element}]" if self.element else ""
        return f"{self.severity}: {self.code}: {self.message}{where}"


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

