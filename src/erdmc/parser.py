"""Parser for the ``.erdm`` model DSL.

Grammar (EBNF, ``#`` line comments, whitespace insignificant)::

    model       = { description | diagram | restriction } ;
    description = "description" STRING ;
    diagram     = "diagram" NAME "{" { set } "}" ;
    set         = kind NAME [ "subset_of" NAME { "," NAME } ]
                  [ "card" cardinality ] [ "=" STRING ] "{" { member } "}" ;
    kind        = "entity" | "relationship" | "computed" ;
    cardinality = INT "^" INT | INT ;
    member      = "attr" NAME [ ":" range ] [ "computed" "=" STRING ]
                | "role" NAME "->" NAME [ "unique" ]
                | "fn"   NAME "->" NAME [ "computed" "=" STRING ] ;
    range       = "[" bound "," bound "]"
                | ("ascii" | "ASCII") "(" INT ")"
                | ("nat" | "NAT") "(" INT ")" ;
    bound       = [ "-" ] INT [ "^" INT ] | DATE | NAME "(" ")" ;
    restriction = "restriction" NAME "on" NAME body ;
    body        = "subset_of" NAME
                | "card" cardinality
                | "range" path range
                | "compulsory" NAME { "," NAME }
                | "unique" NAME { "," NAME }
                | "other" [ "informal" STRING ] [ "formal" formula ] ;
    path        = NAME [ "." NAME ] ;

Formulas follow the quantified-comparison syntax of :mod:`erdmc.formula`.
"""

from __future__ import annotations

from .diagnostics import ParseError, ParseFailure
from .formula import parse_formula_tokens
from .lexer import DATE, INT, MAX_DIGITS, NAME, STRING, TokenStream
from .model import (
    AsciiRange,
    Attribute,
    Bound,
    CardinalityBody,
    CompulsoryBody,
    DateBound,
    Diagram,
    ERModel,
    FuncBound,
    InclusionBody,
    IntBound,
    Interval,
    NatRange,
    ObjectSet,
    OtherBody,
    Pow10Bound,
    Range,
    RangeBody,
    Restriction,
    RestrictionBody,
    Role,
    StructuralFunction,
    UniquenessBody,
)

_SET_KINDS = ("entity", "relationship", "computed")
_TOPLEVEL = ("diagram", "restriction", "description")
# The optional clauses of a set's header, in order, then the brace that ends it.
_SET_HEADER = ("subset_of", "card", "=", "{")
# Each keyword of a sized range: the range it builds and the label of its size.
_SIZED_RANGES = {
    "ascii": (AsciiRange, "length"), "ASCII": (AsciiRange, "length"),
    "nat": (NatRange, "digits"), "NAT": (NatRange, "digits"),
}


def parse_model(source: str) -> ERModel:
    """Parse DSL text into an ERModel, preserving declaration order.

    Raises ParseFailure carrying every collected ParseError; recovery skips
    to the next top-level statement so several errors can be reported at once.
    """
    stream = TokenStream(source)
    diagrams: list[Diagram] = []
    restrictions: list[Restriction] = []
    description: str | None = None
    errors: list[ParseError] = []

    while stream.peek():
        try:
            statement = stream.take(_TOPLEVEL)
            if statement == "diagram":
                diagrams.append(_parse_diagram(stream))
            elif statement == "restriction":
                restrictions.append(_parse_restriction(stream))
            elif statement == "description":
                keyword = stream.last
                text = stream.expect_kind(STRING, "description text")
                if description is not None:
                    errors += stream.error("description declared twice", at=keyword).errors
                description = text
            else:
                raise stream.unexpected("'diagram', 'restriction', or 'description'")
        except ParseFailure as failure:
            errors.extend(failure.errors)
            _skip_to_toplevel(stream)

    if errors:
        raise ParseFailure(errors)
    return ERModel(tuple(diagrams), tuple(restrictions), description)


def _skip_to_toplevel(stream: TokenStream) -> None:
    # An error reported at the next statement's keyword means the failed
    # statement is already fully consumed; resume right there.
    while (lexeme := stream.peek()) and lexeme not in _TOPLEVEL:
        stream.advance()


def _parse_diagram(stream: TokenStream) -> Diagram:
    name = stream.expect_kind(NAME, "diagram name")
    stream.expect("{")
    sets: list[ObjectSet] = []
    while not stream.accept("}"):
        sets.append(_parse_set(stream))
    return Diagram(name, tuple(sets))


def _parse_set(stream: TokenStream) -> ObjectSet:
    if (kind := stream.take(_SET_KINDS)) is None:
        raise stream.unexpected("'entity', 'relationship', or 'computed'")
    name = stream.expect_kind(NAME, "set name")

    included: tuple[str, ...] = ()
    max_card: int | None = None
    card_pow: int | None = None
    definition: str | None = None
    clause = stream.take(_SET_HEADER)
    if clause == "subset_of":
        included = _parse_names(stream, "superset name")
        clause = stream.take(_SET_HEADER[1:])
    if clause == "card":
        max_card, card_pow = _parse_cardinality(stream)
        clause = stream.take(_SET_HEADER[2:])
    if clause == "=":
        definition = stream.expect_kind(STRING, "definition text")
        clause = stream.take(_SET_HEADER[3:])
    if clause is None:
        raise stream.unexpected("{")

    attributes: list[Attribute] = []
    roles: list[Role] = []
    functions: list[StructuralFunction] = []
    while (keyword := stream.take(("attr", "role", "fn", "}"))) != "}":
        if keyword == "attr":
            attributes.append(_parse_attribute(stream))
        elif keyword == "role":
            roles.append(Role(*_parse_arrow(stream, "role"), stream.accept("unique")))
        elif keyword == "fn":
            arrow = _parse_arrow(stream, "function")
            computed = _parse_computed(stream) if stream.accept("computed") else None
            functions.append(StructuralFunction(*arrow, computed))
        else:
            raise stream.unexpected("'attr', 'role', 'fn', or '}'")
    return ObjectSet(
        name=name,
        kind=kind,
        attributes=tuple(attributes),
        roles=tuple(roles),
        structural_functions=tuple(functions),
        included_in=included,
        max_cardinality=max_card,
        cardinality_pow10=card_pow,
        computed_definition=definition,
    )


def _parse_names(stream: TokenStream, label: str) -> tuple[str, ...]:
    names = [stream.expect_kind(NAME, label)]
    while stream.accept(","):
        names.append(stream.expect_kind(NAME, label))
    return tuple(names)


def _parse_cardinality(stream: TokenStream) -> tuple[int, int | None]:
    digits = stream.expect_kind(INT, "cardinality")
    exponent = _parse_pow10(stream, digits, "cardinality powers")
    return (int(digits), None) if exponent is None else (10 ** exponent, exponent)


def _parse_pow10(stream: TokenStream, base: str, what: str) -> int | None:
    """The n of ``10^n`` if ``^`` follows the digits *base*, below MAX_DIGITS; *what* names it."""
    if not stream.accept("^"):
        return None
    exponent = int(stream.expect_kind(INT, "exponent"))
    if int(base) != 10:
        raise stream.error(f"{what} must use base 10", at=stream.last)
    if exponent >= MAX_DIGITS:
        raise stream.error(f"integer longer than {MAX_DIGITS} digits", at=stream.last)
    return exponent


def _parse_computed(stream: TokenStream) -> str:
    """The expression of a ``computed`` clause, whose keyword was just read."""
    stream.expect("=")
    return stream.expect_kind(STRING, "computed expression")


def _parse_attribute(stream: TokenStream) -> Attribute:
    name = stream.expect_kind(NAME, "attribute name")
    rng = None
    if (clause := stream.take((":", "computed"))) == ":":
        rng = _parse_range(stream)
        clause = stream.take(("computed",))
    return Attribute(name, rng, _parse_computed(stream) if clause else None)


def _parse_arrow(stream: TokenStream, member: str) -> tuple[str, str]:
    """``NAME -> SET`` of a *member* (role or function): its name, then its target set."""
    name = stream.expect_kind(NAME, f"{member} name")
    stream.expect("->")
    return name, stream.expect_kind(NAME, "target set")


def _parse_range(stream: TokenStream) -> Range:
    if stream.accept("["):
        opened = stream.last
        try:
            lo = _parse_bound(stream)
            stream.expect(",")
            hi = _parse_bound(stream)
            stream.expect("]")
        except ParseFailure:
            if not stream.peek():
                raise stream.error(
                    "unterminated range bracket", expected="]", at=opened
                ) from None
            raise
        return Interval(lo, hi)
    if (keyword := stream.take(_SIZED_RANGES)) is not None:
        sized, label = _SIZED_RANGES[keyword]
        stream.expect("(")
        size = int(stream.expect_kind(INT, label))
        stream.expect(")")
        return sized(size)
    raise stream.unexpected("'[', 'ascii', or 'nat'")


def _parse_bound(stream: TokenStream) -> Bound:
    if date := stream.accept_kind(DATE):
        return DateBound(date)
    if stream.accept("-"):
        return IntBound(-int(stream.expect_kind(INT, "integer")))
    if digits := stream.accept_kind(INT):
        if (exponent := _parse_pow10(stream, digits, "power bounds")) is None:
            return IntBound(int(digits))
        return Pow10Bound(exponent)
    if name := stream.accept_kind(NAME):
        stream.expect("(")
        stream.expect(")")
        return FuncBound(f"{name}()")
    raise stream.unexpected("bound")


def _parse_restriction(stream: TokenStream) -> Restriction:
    label = stream.expect_kind(NAME, "restriction label")
    stream.expect("on", "'on'")
    target = stream.expect_kind(NAME, "target set")

    body: RestrictionBody
    keyword = stream.take(("subset_of", "card", "range", "compulsory", "unique", "other"))
    if keyword == "subset_of":
        body = InclusionBody(target, stream.expect_kind(NAME, "superset name"))
    elif keyword == "card":
        body = CardinalityBody(*_parse_cardinality(stream))
    elif keyword == "range":
        attr = stream.expect_kind(NAME, "attribute name")
        start = stream.last
        if stream.accept("."):
            inner = stream.expect_kind(NAME, "attribute name")
            if attr != target:
                raise stream.error(
                    f"path {attr}.{inner} does not start at target set {target}", at=start
                )
            attr = inner
        body = RangeBody(attr, _parse_range(stream))
    elif keyword == "compulsory":
        body = CompulsoryBody(_parse_names(stream, "mapping name"))
    elif keyword == "unique":
        body = UniquenessBody(_parse_names(stream, "mapping name"))
    elif keyword == "other":
        informal: str | None = None
        formal = None
        if stream.accept("informal"):
            informal = stream.expect_kind(STRING, "informal text")
        if stream.accept("formal"):
            formal = parse_formula_tokens(stream)
        body = OtherBody(informal, formal)
    else:
        raise stream.unexpected(
            "'subset_of', 'card', 'range', 'compulsory', 'unique', or 'other'"
        )
    return Restriction(label, target, body)
