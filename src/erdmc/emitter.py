"""Render schemes as readable text and as a lossless structured document.

The text form prints each set block in translation order: header (bare
name, or ``NAME = (role -> TARGET, ...)`` for relationship-derived sets),
inclusions, the object identifier, attribute and function lines, explicit
keys, and in-block tuple constraints; nonrelational constraints follow all
sets. Implicit keys are not printed: they are implied by the header.

The structured form is a versioned JSON document that round-trips the
scheme exactly, implicit keys and provenance included.
"""

from __future__ import annotations

import json
from collections import defaultdict
from json.encoder import encode_basestring_ascii as _q
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from .census import CONVENTIONS
from .diagnostics import Diagnostic, ParseFailure
from .formula import Formula, format_formula, parse_formula
from .lexer import GLYPH_OF, MAX_DIGITS, NAME_RE, PLAIN, quote_string
from .model import (
    BOUND_FORMS,
    AsciiRange,
    Bound,
    DateBound,
    FuncBound,
    IntBound,
    Interval,
    NatRange,
    Pow10Bound,
    Range,
)
from .scheme import (
    ATTRIBUTE,
    COMPUTED,
    Constraint,
    EMDMScheme,
    EMDMSet,
    InclusionConstraint,
    Key,
    Mapping,
    NonrelationalConstraint,
    RELATIONSHIP_DERIVED,
    ROLE,
    TupleConstraint,
    check_scheme,
)

if TYPE_CHECKING:
    from .translator import TranslationReport

STRUCTURED_VERSION = 1


class EmitError(Exception):
    """Raised when asked to render a scheme that fails its soundness check."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(d.render() for d in diagnostics))


class StructuredFormatError(Exception):
    """Raised on malformed structured documents; carries a path or position."""

    def __init__(self, message: str, path: str = "$"):
        self.path = path
        self.reason = message
        super().__init__(f"{path}: {message}")


# --- text rendering ---

def format_bound(b: Bound) -> str:
    if isinstance(b, IntBound):
        return str(b.value)
    if isinstance(b, Pow10Bound):
        return f"10^{b.exponent}"
    return b.text  # a DateBound or FuncBound


def format_range(r: Range) -> str:
    if isinstance(r, Interval):
        return f"[{format_bound(r.lo)}, {format_bound(r.hi)}]"
    if isinstance(r, AsciiRange):
        return f"ASCII({r.length})"
    return f"NAT({r.digits})"


def emit_text(scheme: EMDMScheme, unicode: bool = False) -> str:
    """Render *scheme*; refuses schemes that fail the soundness check."""
    diagnostics = check_scheme(scheme)
    if diagnostics:
        raise EmitError(diagnostics)

    # One walk renders each constraint: inclusions and tuple checks are filed
    # under their set, in order; nonrelational constraints follow all sets.
    ops = GLYPH_OF if unicode else PLAIN
    inclusions: defaultdict[str, list[str]] = defaultdict(list)
    checks: defaultdict[str, list[str]] = defaultdict(list)
    trailing: list[str] = []
    for c in scheme.constraints:
        if isinstance(c, InclusionConstraint):
            inclusions[c.subset].append(f"  {c.subset} {ops['subset_of']} {c.superset}")
        elif isinstance(c, TupleConstraint):
            checks[c.set_name].append(f"  {c.label}: {format_formula(c.formula, unicode)}")
        elif c.formula is not None:
            trailing.append(f"{c.label}: {format_formula(c.formula, unicode)}")
        else:
            trailing.append(f"{c.label}: informal {quote_string(c.informal)}")

    blocks: list[str] = []
    for s in scheme.sets:
        blocks.append(_render_set(s, inclusions.get(s.name, ()), checks.get(s.name, ()), ops))
    if trailing:
        blocks.append("\n".join(trailing))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def _render_set(
    s: EMDMSet, inclusions: Sequence[str], checks: Sequence[str], ops: dict[str, str]
) -> str:
    if s.kind == COMPUTED:
        return f"{s.name} = {s.computed_definition}"

    arrows = (ops["->"], ops["<->"])  # indexed by one_to_one
    if s.kind == RELATIONSHIP_DERIVED:
        sig = ", ".join(f"{role} {arrows[0]} {target}" for role, target in s.role_signature)
        lines = [f"{s.name} = ({sig})", *inclusions]
    else:
        lines = [s.name, *inclusions]
    lines.append(_render_mapping(s.name, s.object_identifier, arrows))
    for m in s.mappings:
        if m.flavor == ATTRIBUTE:
            lines.append(_render_mapping(s.name, m, arrows))
    for m in s.mappings:
        if m.flavor != ATTRIBUTE and m.flavor != ROLE:
            lines.append(_render_mapping(s.name, m, arrows))
    bullet = f" {ops['.']} "
    for k in s.keys:
        if not k.implicit:
            lines.append(f"  {k.label}: {bullet.join(k.mappings)} key")
    lines += checks
    return "\n".join(lines)


def _render_mapping(set_name: str, m: Mapping, arrows: tuple[str, str]) -> str:
    """``name : SET -> T``, ``name -> RANGE`` or ``name``, then `` = definition``, ``, total``."""
    arrow = arrows[m.one_to_one]
    if isinstance(m.codomain, str):
        text = f"  {m.name} : {set_name} {arrow} {m.codomain}"
    elif m.codomain is not None:
        text = f"  {m.name} {arrow} {format_range(m.codomain)}"
    else:
        text = "  " + m.name
    if m.computed_definition is not None:
        text += f" = {m.computed_definition}"
    if m.total:
        text += ", total"
    return text


# --- structured document ---
#
# Both documents are written as json.dumps writes them with a two-space indent,
# one f-string per record at the depth it sits at. Every field's type is known,
# so no value takes json's per-value dispatch or its pure-Python indenting encoder.

_BOOL = {False: "false", True: "true"}


def _nullable(value: str | None) -> str:
    return "null" if value is None else _q(value)


def _array(items: Iterable[str], pad: str, brackets: str = "[]") -> str:
    """Written JSON *items* in a block whose first line is indented by *pad*."""
    body = f",\n{pad}  ".join(items)
    return f"{brackets[0]}\n{pad}  {body}\n{pad}{brackets[1]}" if body else brackets


def _object(pairs: Iterable[tuple[str, Any]], pad: str, write: Callable[[Any], str] = _q) -> str:
    return _array((f"{_q(k)}: {write(v)}" for k, v in pairs), pad, "{}")


def encode_report(report: TranslationReport) -> str:
    """*report*'s JSON text, as ``--report`` writes it and emit_structured embeds it."""
    t = report.tallies
    steps = [f'{{\n      "kind": {_q(kind)},\n      "source": {_q(source)},'
             f'\n      "produced": {_q(produced)}\n    }}' for kind, source, produced in report.steps]
    diagnostics = [
        f'{{\n      "severity": {_q(d.severity)},\n      "code": {_q(d.code)},'
        f'\n      "message": {_q(d.message)},\n      "element": {_q(d.element)}\n    }}'
        for d in report.diagnostics]
    pending = [
        f'{{\n      "subject": {_q(p.question.subject)},\n      "kind": {_q(p.question.kind)},'
        f'\n      "prompt": {_q(p.question.prompt)},\n      "answer": {_nullable(p.answer)},'
        f'\n      "origin": {_q(p.origin)}\n    }}' for p in report.pending_questions]
    implicit_keys = [
        f'{{\n      "set": {_q(k.set_name)},\n      "label": {_q(k.label)},'
        f'\n      "mappings": {_array(map(_q, k.mappings), "      ")},'
        f'\n      "origin": {_q(k.origin)}\n    }}' for k in report.implicit_keys]
    actions = [
        f'{{\n      "rule": {_q(a.rule)},\n      "target": {_q(a.target)},'
        f'\n      "description": {_q(a.description)},\n      "resulting_labels": '
        f'{_array(map(_q, a.resulting_labels), "      ")}\n    }}'
        for a in report.enrichment_actions]
    return f"""{{
  "conventions": {_array(map(_q, CONVENTIONS), "  ")},
  "tallies": {"null" if t is None else _object(t.as_dict().items(), "  ", repr)},
  "steps": {_array(steps, "  ")},
  "diagnostics": {_array(diagnostics, "  ")},
  "pending_questions": {_array(pending, "  ")},
  "implicit_keys": {_array(implicit_keys, "  ")},
  "enrichment_actions": {_array(actions, "  ")}
}}"""


def emit_structured(scheme: EMDMScheme, report_text: str | None = None) -> str:
    """Serialize *scheme*, and the report that encode_report gave, to versioned JSON."""
    # The report goes last, one level deeper: each of its lines after the
    # first gains two spaces, as json indents it at that depth. A JSON
    # string holds no raw newline, so no value changes.
    report = "null" if report_text is None else report_text.replace("\n", "\n  ")
    return f"""{{
  "version": {STRUCTURED_VERSION},
  "sets": {_array(map(_set, scheme.sets), "  ")},
  "constraints": {_array(map(_constraint, scheme.constraints), "  ")},
  "provenance": {_object(scheme.provenance.items(), "  ")},
  "report": {report}
}}
"""


def _set(s: EMDMSet) -> str:
    ident = "null" if s.object_identifier is None else _mapping(s.object_identifier, s.name, "      ")
    mappings = _array([_mapping(m, s.name, "        ") for m in s.mappings], "      ")
    keys = _array([f'{{\n          "label": {_q(k.label)},\n          "mappings": '
                   f'{_array(map(_q, k.mappings), "          ")},\n          "implicit": '
                   f'{_BOOL[k.implicit]}\n        }}' for k in s.keys], "      ")
    roles = _array([_array(map(_q, pair), "        ") for pair in s.role_signature], "      ")
    return (f'{{\n      "name": {_q(s.name)},\n      "kind": {_q(s.kind)},'
            f'\n      "object_identifier": {ident},\n      "mappings": {mappings},'
            f'\n      "keys": {keys},\n      "role_signature": {roles},'
            f'\n      "computed_definition": {_nullable(s.computed_definition)}\n    }}')


def _mapping(m: Mapping, holder: str, pad: str) -> str:
    sep = f",\n{pad}  "
    return (f'{{\n{pad}  "name": {_q(m.name)}{sep}"source": {_q(holder)}'
            f'{sep}"codomain": {_codomain(m.codomain, pad + "  ")}{sep}"flavor": {_q(m.flavor)}'
            f'{sep}"total": {_BOOL[m.total]}{sep}"one_to_one": {_BOOL[m.one_to_one]}'
            f'{sep}"computed_definition": {_nullable(m.computed_definition)}'
            f'{sep}"source_labels": {_object(m.source_labels.items(), pad + "  ")}\n{pad}}}')


def _codomain(r: Range | Bound | str | None, pad: str) -> str:
    """A codomain, or a bound of an interval, tagged with its kind."""
    if r is None:
        return "null"
    if isinstance(r, Interval):
        inner = pad + "  "
        return (f'{{\n{inner}"kind": "interval",\n{inner}"lo": {_codomain(r.lo, inner)},'
                f'\n{inner}"hi": {_codomain(r.hi, inner)}\n{pad}}}')
    kind, field = _TAG_OF[type(r)]
    value = r if kind == "set" else getattr(r, field)
    text = _q(value) if isinstance(value, str) else repr(value)
    return f'{{\n{pad}  "kind": "{kind}",\n{pad}  "{field}": {text}\n{pad}}}'


def _constraint(c: Constraint) -> str:
    if isinstance(c, InclusionConstraint):
        fields = (f'"kind": "inclusion",\n      "label": {_nullable(c.label)},'
                  f'\n      "subset": {_q(c.subset)},\n      "superset": {_q(c.superset)}')
    elif isinstance(c, TupleConstraint):
        fields = (f'"kind": "tuple",\n      "label": {_q(c.label)},\n      "set": '
                  f'{_q(c.set_name)},\n      "formula": {_q(format_formula(c.formula))}')
    else:
        formula = None if c.formula is None else format_formula(c.formula)
        fields = (f'"kind": "nonrelational",\n      "label": {_q(c.label)},\n      "formula": '
                  f'{_nullable(formula)},\n      "informal": {_nullable(c.informal)}')
    return f"{{\n      {fields}\n    }}"


def read_json(text: str) -> Any:
    """*text* as JSON; a StructuredFormatError at ``$`` says why it cannot be read."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuredFormatError(
            f"not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # int() refuses a longer number
        raise StructuredFormatError(
            f"not readable JSON: an integer longer than {MAX_DIGITS} digits"
        ) from exc
    except RecursionError as exc:
        raise StructuredFormatError(
            "not readable JSON: arrays or objects nested too deeply"
        ) from exc


def load_structured(text: str) -> EMDMScheme:
    """Parse a structured document; unknown top-level fields are ignored."""
    doc = _record(read_json(text), "document", "$")
    version = _field(doc, "version", "an integer", "$")
    if version != STRUCTURED_VERSION:
        raise StructuredFormatError(
            f"unknown version {version!r}; this reader understands {STRUCTURED_VERSION}",
            "$.version",
        )
    scheme = EMDMScheme(
        sets=_records(doc, "sets", "$", _set_from_json),
        constraints=_records(doc, "constraints", "$", _constraint_from_json),
        provenance=_field(doc, "provenance", "an object", "$", {}),
    )
    for ref, source in scheme.provenance.items():
        if not isinstance(source, str):
            raise StructuredFormatError("must be a string", f"$.provenance[{json.dumps(ref)}]")
    return scheme


_REQUIRED = object()

# What each kind of field accepts, keyed by the words that name it in messages.
_FIELD_KINDS: dict[str, Callable[[Any], bool]] = {
    "a string": lambda v: isinstance(v, str),
    "true or false": lambda v: type(v) is bool,
    "a string or null": lambda v: v is None or isinstance(v, str),
    "an array": lambda v: isinstance(v, list),
    "an object": lambda v: isinstance(v, dict),
    "an array of strings": lambda v: isinstance(v, list) and all(isinstance(i, str) for i in v),
    "an array of string pairs": lambda v: isinstance(v, list) and all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(i, str) for i in p) for p in v),
    "an object of strings":
        lambda v: isinstance(v, dict) and all(isinstance(i, str) for i in v.values()),
    # the bounds and sizes, which validate_range checks too; "an integer" among them
    **dict(BOUND_FORMS.values()),
}


def _field(raw: dict, key: str, kind: str, path: str, default: Any = _REQUIRED,
           names: bool = False) -> Any:
    """The field *key* of the object *raw* at *path*, of *kind*; *default* when absent.

    With *names*, each string it holds must be a name, since emit_text prints it bare.
    """
    if key not in raw:
        if default is _REQUIRED:
            raise StructuredFormatError(f"{key} is missing", f"{path}.{key}")
        return default
    value = raw[key]
    if not _FIELD_KINDS[kind](value):
        raise StructuredFormatError(f"{key} must be {kind}", f"{path}.{key}")
    if names:
        _check_names(value, f"{path}.{key}")
    return value


def _check_names(value: Any, path: str) -> None:
    """Refuse, at its path, the first string in *value* or its arrays that is not a name."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            _check_names(item, f"{path}[{i}]")
    elif isinstance(value, str) and not NAME_RE.fullmatch(value):
        raise StructuredFormatError(f"{value!r} is not a name", path)


def _record(raw: Any, what: str, path: str) -> dict:
    """*raw*, which must be a JSON object."""
    if not isinstance(raw, dict):
        raise StructuredFormatError(f"{what} must be an object", path)
    return raw


def _records(raw: dict, key: str, path: str, read: Callable[[Any, str], Any]) -> list:
    """Each item of the array field *key* of *raw*, as *read* gives it."""
    items = _field(raw, key, "an array", path, [])
    return [read(item, f"{path}.{key}[{i}]") for i, item in enumerate(items)]


# Each tagged codomain or bound kind but "interval": the field that holds
# its value, that field's kind, and what the value builds.
_TAGGED: dict[str, tuple[str, str, Callable[[Any], Any]]] = {
    "set": ("name", "a string", str),
    "ascii": ("length", BOUND_FORMS[AsciiRange][0], AsciiRange),
    "nat": ("digits", BOUND_FORMS[NatRange][0], NatRange),
    "int": ("value", BOUND_FORMS[IntBound][0], IntBound),
    "pow10": ("exponent", BOUND_FORMS[Pow10Bound][0], Pow10Bound),
    "date": ("text", BOUND_FORMS[DateBound][0], DateBound),
    "func": ("text", BOUND_FORMS[FuncBound][0], FuncBound),
}
# What the writer reads of the same table: the kind and field of each class.
_TAG_OF = {build: (kind, key) for kind, (key, _, build) in _TAGGED.items()}
_CODOMAINS = ("set", "interval", "ascii", "nat")
_BOUNDS = ("int", "pow10", "date", "func")


def _tagged(raw: Any, what: str, kinds: tuple[str, ...], path: str) -> Range | Bound | str:
    """A codomain or bound as _codomain writes it; its kind must be one of *kinds*."""
    raw = _record(raw, what, path)
    kind = _field(raw, "kind", "a string", path)
    if kind not in kinds:
        raise StructuredFormatError(f"unknown {what} kind {kind!r}", path)
    if kind == "interval":
        lo, hi = (_tagged(_field(raw, end, "an object", path), "bound", _BOUNDS, f"{path}.{end}")
                  for end in ("lo", "hi"))
        return Interval(lo, hi)
    key, field_kind, build = _TAGGED[kind]
    return build(_field(raw, key, field_kind, path, names=kind == "set"))


def _mapping_from_json(raw: Any, path: str, holder: str) -> Mapping:
    raw = _record(raw, "mapping", path)
    name = _field(raw, "name", "a string", path, names=True)
    if _field(raw, "source", "a string", path) != holder:
        raise StructuredFormatError(f"source must be its set {holder!r}", f"{path}.source")
    codomain = raw.get("codomain")
    return Mapping(
        name=name,
        codomain=None if codomain is None else _tagged(
            codomain, "codomain", _CODOMAINS, f"{path}.codomain"),
        flavor=_field(raw, "flavor", "a string", path),
        total=_field(raw, "total", "true or false", path, False),
        one_to_one=_field(raw, "one_to_one", "true or false", path, False),
        computed_definition=_field(raw, "computed_definition", "a string or null", path, None),
        source_labels=dict(_field(raw, "source_labels", "an object of strings", path, {})),
    )


def _key_from_json(raw: Any, path: str) -> Key:
    raw = _record(raw, "key", path)
    return Key(
        label=_field(raw, "label", "a string", path, names=True),
        mappings=tuple(_field(raw, "mappings", "an array of strings", path, names=True)),
        implicit=_field(raw, "implicit", "true or false", path, False),
    )


def _set_from_json(raw: Any, path: str) -> EMDMSet:
    raw = _record(raw, "set", path)
    name = _field(raw, "name", "a string", path, names=True)
    ident = raw.get("object_identifier")
    return EMDMSet(
        name=name,
        kind=_field(raw, "kind", "a string", path),
        object_identifier=None if ident is None else _mapping_from_json(
            ident, f"{path}.object_identifier", name),
        mappings=_records(raw, "mappings", path,
                          lambda item, at: _mapping_from_json(item, at, name)),
        keys=_records(raw, "keys", path, _key_from_json),
        role_signature=tuple(map(tuple, _field(
            raw, "role_signature", "an array of string pairs", path, [], names=True))),
        computed_definition=_field(raw, "computed_definition", "a string or null", path, None),
    )


def _constraint_from_json(raw: Any, path: str) -> Constraint:
    raw = _record(raw, "constraint", path)
    kind = _field(raw, "kind", "a string", path)
    if kind == "inclusion":
        return InclusionConstraint(
            subset=_field(raw, "subset", "a string", path, names=True),
            superset=_field(raw, "superset", "a string", path, names=True),
            label=_field(raw, "label", "a string or null", path, None, names=True),
        )
    if kind == "tuple":
        return TupleConstraint(
            label=_field(raw, "label", "a string", path, names=True),
            set_name=_field(raw, "set", "a string", path, names=True),
            formula=_formula(_field(raw, "formula", "a string", path), kind, path),
        )
    if kind == "nonrelational":
        return NonrelationalConstraint(
            label=_field(raw, "label", "a string", path, names=True),
            formula=_formula(_field(raw, "formula", "a string or null", path, None), kind, path),
            informal=_field(raw, "informal", "a string or null", path, None),
        )
    raise StructuredFormatError(f"unknown constraint kind {kind!r}", path)


def _formula(text: str | None, kind: str, path: str) -> Formula | None:
    """The formula *text* of a *kind* constraint at *path*, parsed; None for null."""
    if text is None:
        return None
    try:
        return parse_formula(text)
    except ParseFailure as exc:
        raise StructuredFormatError(f"malformed {kind} constraint: {exc}", path) from exc
