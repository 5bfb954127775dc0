"""Severity-tagged findings shared by validation, translation, and scheme checking."""

from __future__ import annotations

import re
from dataclasses import MISSING, Field, dataclass
from typing import Any, NamedTuple

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


def record(cls: type) -> type:
    """``dataclass(frozen=True, slots=True)`` for a class of plain fields and defaults, but its
    ``__init__`` stores each field through the slot's descriptor, not through the slower
    ``object.__setattr__`` of a frozen dataclass. Every parse and input default builds these."""
    names = list(cls.__annotations__)
    scope: dict[str, Any] = {}  # each field's setter, filled in once the slots exist
    exec(f"def __init__(self, {', '.join(names)}):"
         + "".join(f"\n _set_{n}(self, {n})" for n in names), scope)
    init = cls.__init__ = scope["__init__"]  # in place before dataclass, which reads it for __doc__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    declared = (vars(cls).get(n, MISSING) for n in names)  # a value, or a field(default=...)
    defaults = (d.default if isinstance(d, Field) else d for d in declared)
    init.__defaults__ = tuple(d for d in defaults if d is not MISSING) or None
    init.__annotations__ = {**cls.__annotations__, "return": None}
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    scope.update({f"_set_{n}": getattr(cls, n).__set__ for n in names})
    return cls


@record
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

