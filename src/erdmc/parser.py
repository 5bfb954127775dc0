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
from .lexer import EOF, INT, NAME, OP, STRING, DATE, TokenStream, tokenize
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
    Role,
    StructuralFunction,
    UniquenessBody,
)

_SET_KINDS = ("entity", "relationship", "computed")
_TOPLEVEL = ("diagram", "restriction", "description")


def parse_model(source: str) -> ERModel:
    """Parse DSL text into an ERModel, preserving declaration order.

    Raises ParseFailure carrying every collected ParseError; recovery skips
    to the next top-level statement so several errors can be reported at once.
    """
    stream = TokenStream(tokenize(source))
    diagrams: list[Diagram] = []
    restrictions: list[Restriction] = []
    description: str | None = None
    errors: list[ParseError] = []

    while not stream.at(EOF):
        try:
            tok = stream.peek()
            if stream.at_name("diagram"):
                diagrams.append(_parse_diagram(stream))
            elif stream.at_name("restriction"):
                restrictions.append(_parse_restriction(stream))
            elif stream.at_name("description"):
                stream.advance()
                text = stream.expect(STRING, label="description text").value
                if description is not None:
                    errors.append(
                        ParseError(tok.line, tok.column, "description declared twice")
                    )
                description = text
            else:
                raise stream.error(
                    f"found {tok.value!r}", expected="'diagram', 'restriction', or 'description'"
                )
        except ParseFailure as failure:
            errors.extend(failure.errors)
            _skip_to_toplevel(stream)

    if errors:
        raise ParseFailure(errors)
    return ERModel(tuple(diagrams), tuple(restrictions), description)


def _skip_to_toplevel(stream: TokenStream) -> None:
    # An error reported at the next statement's keyword means the failed
    # statement is already fully consumed; resume right there.
    t = stream.peek()
    if t.kind == NAME and t.value in _TOPLEVEL:
        return
    stream.advance()
    while not stream.at(EOF):
        t = stream.peek()
        if t.kind == NAME and t.value in _TOPLEVEL:
            return
        stream.advance()


def _parse_diagram(stream: TokenStream) -> Diagram:
    stream.expect(NAME, "diagram")
    name = stream.expect(NAME, label="diagram name").value
    stream.expect(OP, "{")
    sets: list[ObjectSet] = []
    while not stream.at(OP, "}"):
        sets.append(_parse_set(stream))
    stream.expect(OP, "}")
    return Diagram(name, tuple(sets))


def _parse_set(stream: TokenStream) -> ObjectSet:
    kind_tok = stream.peek()
    if kind_tok.kind != NAME or kind_tok.value not in _SET_KINDS:
        raise stream.error(
            f"found {kind_tok.value!r}", expected="'entity', 'relationship', or 'computed'"
        )
    stream.advance()
    kind = kind_tok.value
    name = stream.expect(NAME, label="set name").value

    included: list[str] = []
    max_card: int | None = None
    card_pow: int | None = None
    definition: str | None = None
    if stream.at_name("subset_of"):
        stream.advance()
        included.append(stream.expect(NAME, label="superset name").value)
        while stream.at(OP, ","):
            stream.advance()
            included.append(stream.expect(NAME, label="superset name").value)
    if stream.at_name("card"):
        stream.advance()
        max_card, card_pow = _parse_cardinality(stream)
    if stream.at(OP, "="):
        stream.advance()
        definition = stream.expect(STRING, label="definition text").value

    stream.expect(OP, "{")
    attributes: list[Attribute] = []
    roles: list[Role] = []
    functions: list[StructuralFunction] = []
    while not stream.at(OP, "}"):
        if stream.at_name("attr"):
            attributes.append(_parse_attribute(stream))
        elif stream.at_name("role"):
            roles.append(_parse_role(stream))
        elif stream.at_name("fn"):
            functions.append(_parse_function(stream))
        else:
            raise stream.error(
                f"found {stream.peek().value!r}", expected="'attr', 'role', 'fn', or '}'"
            )
    stream.expect(OP, "}")
    return ObjectSet(
        name=name,
        kind=kind,
        attributes=tuple(attributes),
        roles=tuple(roles),
        structural_functions=tuple(functions),
        included_in=tuple(included),
        max_cardinality=max_card,
        cardinality_pow10=card_pow,
        computed_definition=definition,
    )


def _parse_cardinality(stream: TokenStream) -> tuple[int, int | None]:
    base = int(stream.expect(INT, label="cardinality").value)
    if stream.at(OP, "^"):
        stream.advance()
        exp_tok = stream.peek()
        exponent = int(stream.expect(INT, label="exponent").value)
        if base != 10:
            raise ParseFailure(
                [ParseError(exp_tok.line, exp_tok.column, "cardinality powers must use base 10")]
            )
        return 10 ** exponent, exponent
    return base, None


def _parse_attribute(stream: TokenStream) -> Attribute:
    stream.expect(NAME, "attr")
    name = stream.expect(NAME, label="attribute name").value
    rng: Range | None = None
    definition: str | None = None
    if stream.at(OP, ":"):
        stream.advance()
        rng = _parse_range(stream)
    if stream.at_name("computed"):
        stream.advance()
        stream.expect(OP, "=")
        definition = stream.expect(STRING, label="computed expression").value
    return Attribute(name, rng, definition)


def _parse_role(stream: TokenStream) -> Role:
    stream.expect(NAME, "role")
    name = stream.expect(NAME, label="role name").value
    stream.expect(OP, "->")
    target = stream.expect(NAME, label="target set").value
    unique = False
    if stream.at_name("unique"):
        stream.advance()
        unique = True
    return Role(name, target, unique)


def _parse_function(stream: TokenStream) -> StructuralFunction:
    stream.expect(NAME, "fn")
    name = stream.expect(NAME, label="function name").value
    stream.expect(OP, "->")
    target = stream.expect(NAME, label="target set").value
    definition: str | None = None
    if stream.at_name("computed"):
        stream.advance()
        stream.expect(OP, "=")
        definition = stream.expect(STRING, label="computed expression").value
    return StructuralFunction(name, target, definition)


def _parse_range(stream: TokenStream) -> Range:
    if stream.at(OP, "["):
        open_tok = stream.advance()
        try:
            lo = _parse_bound(stream)
            stream.expect(OP, ",")
            hi = _parse_bound(stream)
            stream.expect(OP, "]")
        except ParseFailure:
            if stream.at(EOF):
                raise ParseFailure(
                    [ParseError(open_tok.line, open_tok.column,
                                "unterminated range bracket", expected="]")]
                ) from None
            raise
        return Interval(lo, hi)
    if stream.at_name("ascii") or stream.at_name("ASCII"):
        stream.advance()
        stream.expect(OP, "(")
        length = int(stream.expect(INT, label="length").value)
        stream.expect(OP, ")")
        return AsciiRange(length)
    if stream.at_name("nat") or stream.at_name("NAT"):
        stream.advance()
        stream.expect(OP, "(")
        digits = int(stream.expect(INT, label="digits").value)
        stream.expect(OP, ")")
        return NatRange(digits)
    raise stream.error(f"found {stream.peek().value!r}", expected="'[', 'ascii', or 'nat'")


def _parse_bound(stream: TokenStream) -> Bound:
    tok = stream.peek()
    if tok.kind == DATE:
        stream.advance()
        return DateBound(tok.value)
    if tok.kind == OP and tok.value == "-":
        stream.advance()
        value = stream.expect(INT, label="integer")
        return IntBound(-int(value.value))
    if tok.kind == INT:
        stream.advance()
        if stream.at(OP, "^"):
            stream.advance()
            exp_tok = stream.peek()
            exponent = int(stream.expect(INT, label="exponent").value)
            if int(tok.value) != 10:
                raise ParseFailure(
                    [ParseError(exp_tok.line, exp_tok.column, "power bounds must use base 10")]
                )
            return Pow10Bound(exponent)
        return IntBound(int(tok.value))
    if tok.kind == NAME:
        stream.advance()
        stream.expect(OP, "(")
        stream.expect(OP, ")")
        return FuncBound(f"{tok.value}()")
    raise stream.error(f"found {tok.value!r}", expected="bound")


def _parse_restriction(stream: TokenStream) -> Restriction:
    stream.expect(NAME, "restriction")
    label = stream.expect(NAME, label="restriction label").value
    stream.expect(NAME, "on", label="'on'")
    target = stream.expect(NAME, label="target set").value

    if stream.at_name("subset_of"):
        stream.advance()
        superset = stream.expect(NAME, label="superset name").value
        return Restriction(label, target, InclusionBody(target, superset))
    if stream.at_name("card"):
        stream.advance()
        maximum, pow10 = _parse_cardinality(stream)
        return Restriction(label, target, CardinalityBody(maximum, pow10))
    if stream.at_name("range"):
        stream.advance()
        attr_tok = stream.peek()
        attr = stream.expect(NAME, label="attribute name").value
        if stream.at(OP, "."):
            stream.advance()
            inner = stream.expect(NAME, label="attribute name").value
            if attr != target:
                raise ParseFailure(
                    [ParseError(attr_tok.line, attr_tok.column,
                                f"path {attr}.{inner} does not start at target set {target}")]
                )
            attr = inner
        rng = _parse_range(stream)
        return Restriction(label, target, RangeBody(attr, rng))
    if stream.at_name("compulsory"):
        stream.advance()
        return Restriction(label, target, CompulsoryBody(_parse_name_list(stream)))
    if stream.at_name("unique"):
        stream.advance()
        return Restriction(label, target, UniquenessBody(_parse_name_list(stream)))
    if stream.at_name("other"):
        stream.advance()
        informal: str | None = None
        formal = None
        if stream.at_name("informal"):
            stream.advance()
            informal = stream.expect(STRING, label="informal text").value
        if stream.at_name("formal"):
            stream.advance()
            formal = parse_formula_tokens(stream, bound=frozenset())
        return Restriction(label, target, OtherBody(informal, formal))
    raise stream.error(
        f"found {stream.peek().value!r}",
        expected="'subset_of', 'card', 'range', 'compulsory', 'unique', or 'other'",
    )


def _parse_name_list(stream: TokenStream) -> tuple[str, ...]:
    names = [stream.expect(NAME, label="mapping name").value]
    while stream.at(OP, ","):
        stream.advance()
        names.append(stream.expect(NAME, label="mapping name").value)
    return tuple(names)
