"""Universally quantified comparison formulas used to formalize business rules.

Surface syntax (ASCII, glyph synonyms accepted)::

    (forall x, y in SCHEDULES)(Weekday(x) = Weekday(y) => StartH(x) <> StartH(y))

Multi-variable quantifier sugar desugars into nested single-variable
quantifiers over the same domain. Comparisons bind tightest, then ``!``,
``&``, ``|``, and right-associative ``=>``.

A formula nests at most MAX_FORMULA_DEPTH levels. A level opens at each
``(``, ``!``, quantified variable and mapping application, until it closes,
and at each ``&``, ``|`` and ``=>``, until its chain ends. The bound keeps
every recursive walk over a formula far inside Python's recursion limit.
"""

from __future__ import annotations

from typing import Union

from .diagnostics import record
from .lexer import GLYPH_OF, INT, NAME, PLAIN, STRING, TokenStream, quote_string, value_of

# --- terms ---


@record
class Var:
    name: str


@record
class Apply:
    mapping: str
    argument: "Term"


@record
class Literal:
    value: int | str


Term = Union[Var, Apply, Literal]

# --- formulas ---


@record
class Compare:
    op: str  # one of = <> < <= > >=
    lhs: Term
    rhs: Term


@record
class Not:
    body: "Formula"


@record
class Binary:
    op: str  # one of & | =>
    left: "Formula"
    right: "Formula"


@record
class Forall:
    variable: str
    domain: str
    body: "Formula"


Formula = Union[Compare, Not, Binary, Forall]

COMPARE_OPS = ("=", "<>", "<", "<=", ">", ">=")

MAX_FORMULA_DEPTH = 64


def parse_formula(source: str) -> Formula:
    """Parse *source* into a Formula AST.

    Raises ParseFailure for syntax errors, unbound variables, and
    duplicate quantified variable names.
    """
    stream = TokenStream(source)
    node = parse_formula_tokens(stream)
    if stream.peek():
        raise stream.error(f"trailing input after formula: {value_of(stream.peek())!r}")
    return node


def parse_formula_tokens(stream: TokenStream) -> Formula:
    """Parse one formula from *stream*; used standalone and by the DSL parser."""
    if _at_quantifier(stream):
        return _parse_quantified(stream, frozenset(), 0)
    return _parse_binary(stream, frozenset(), 0, _LEVEL_IMPLIES)


def _at_quantifier(stream: TokenStream) -> bool:
    """Whether a ``(forall`` binder starts at the cursor."""
    return stream.peek() == "(" and stream.peek(1) == "forall"


def _deeper(stream: TokenStream, depth: int, at: int) -> int:
    """Open one more level at the token in stream position *at*, or fail past the bound."""
    if depth >= MAX_FORMULA_DEPTH:
        raise stream.error(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", at=at)
    return depth + 1


def _parse_quantified(stream: TokenStream, bound: frozenset[str], depth: int) -> Formula:
    stream.expect("(")
    stream.expect("forall")
    depth = _deeper(stream, depth, stream.pos)
    variables = [stream.expect_kind(NAME, "variable name")]
    while stream.accept(","):
        depth = _deeper(stream, depth, stream.pos)
        variables.append(stream.expect_kind(NAME, "variable name"))
    stream.expect("in", "'in'")
    domain = stream.expect_kind(NAME, "set name")
    stream.expect(")")
    for v in variables:
        if v in bound:
            raise stream.error(f"variable {v!r} is already quantified")
    if len(set(variables)) != len(variables):
        raise stream.error("duplicate variable in quantifier")
    inner_bound = bound.union(variables)
    if _at_quantifier(stream):
        body: Formula = _parse_quantified(stream, inner_bound, depth)
    else:
        stream.expect("(")
        body = _parse_binary(stream, inner_bound, depth, _LEVEL_IMPLIES)
        stream.expect(")")
    for v in reversed(variables):
        body = Forall(v, domain, body)
    return body


def _parse_binary(stream: TokenStream, bound: frozenset[str], depth: int, level: int) -> Formula:
    """A chain of the connective at *level*, or what binds tighter.

    Right operands are read at the level CONNECTIVES gives them: ``=>``'s own, so it nests right."""
    if level == _LEVEL_UNARY:
        return _parse_unary(stream, bound, depth)
    op = _CONNECTIVE_AT[level]
    node = _parse_binary(stream, bound, depth, level + 1)
    while stream.accept(op):
        depth = _deeper(stream, depth, stream.last)
        node = Binary(op, node, _parse_binary(stream, bound, depth, CONNECTIVES[op][2]))
    return node


def _parse_unary(stream: TokenStream, bound: frozenset[str], depth: int) -> Formula:
    if stream.accept("!"):
        return Not(_parse_unary(stream, bound, _deeper(stream, depth, stream.last)))
    if _at_quantifier(stream):
        return _parse_quantified(stream, bound, depth)
    if stream.accept("("):
        node = _parse_binary(stream, bound, _deeper(stream, depth, stream.last), _LEVEL_IMPLIES)
        stream.expect(")")
        return node
    return _parse_comparison(stream, bound, depth)


def _parse_comparison(stream: TokenStream, bound: frozenset[str], depth: int) -> Formula:
    lhs = _parse_term(stream, bound, depth)
    if (op := stream.take(COMPARE_OPS)) is None:
        raise stream.unexpected("comparison operator")
    return Compare(op, lhs, _parse_term(stream, bound, depth))


def _parse_term(stream: TokenStream, bound: frozenset[str], depth: int) -> Term:
    if digits := stream.accept_kind(INT):
        return Literal(int(digits))
    if stream.accept("-"):
        return Literal(-int(stream.expect_kind(INT, "integer")))
    if (text := stream.accept_kind(STRING)) is not None:
        return Literal(text)
    if name := stream.accept_kind(NAME):
        if stream.accept("("):
            arg = _parse_term(stream, bound, _deeper(stream, depth, stream.last))
            stream.expect(")")
            return Apply(name, arg)
        if name not in bound:
            raise stream.error(f"unbound variable {name!r}", at=stream.last)
        return Var(name)
    raise stream.unexpected("term")


# --- queries ---


def quantifier_count(node: Formula) -> int:
    """Number of quantified variables; drives tuple vs nonrelational routing."""
    return len(quantifier_domains(node))


def quantifier_domains(node: Formula) -> list[str]:
    """Domains of all quantifiers, outermost first."""
    if isinstance(node, Forall):
        return [node.domain] + quantifier_domains(node.body)
    if isinstance(node, Binary):
        return quantifier_domains(node.left) + quantifier_domains(node.right)
    if isinstance(node, Not):
        return quantifier_domains(node.body)
    return []


# --- printing ---

_LEVEL_IMPLIES = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_UNARY = 4
_LEVEL_ATOM = 5

# Each binary connective: its own level, and its operands' levels.
CONNECTIVES = {
    "=>": (_LEVEL_IMPLIES, _LEVEL_OR, _LEVEL_IMPLIES),
    "|": (_LEVEL_OR, _LEVEL_OR, _LEVEL_AND),
    "&": (_LEVEL_AND, _LEVEL_AND, _LEVEL_UNARY),
}
# Each level a connective binds at, to that connective.
_CONNECTIVE_AT = {own: op for op, (own, _, _) in CONNECTIVES.items()}


def format_formula(node: Formula, unicode: bool = False) -> str:
    """Render *node* so that re-parsing yields a structurally identical AST.

    Runs of directly nested quantifiers over the same domain are re-sugared
    into the multi-variable form, e.g. ``(forall x, y in SCHEDULES)``.
    """
    return _fmt(node, 0, GLYPH_OF if unicode else PLAIN)


def _fmt(node: Formula, level: int, ops: dict[str, str]) -> str:
    if isinstance(node, Forall):
        # Each run of quantifiers over one domain prints as one binder.
        forall = ops["forall"]
        binder = forall + " " if forall.isascii() else forall  # the keyword takes a space
        prefix = ""
        while isinstance(node, Forall):
            names, domain = [node.variable], node.domain
            node = node.body
            while isinstance(node, Forall) and node.domain == domain:
                names.append(node.variable)
                node = node.body
            prefix += f"({binder}{', '.join(names)} {ops['in']} {domain})"
        return f"{prefix}({_fmt(node, 0, ops)})"
    if isinstance(node, Binary):
        own, left, right = CONNECTIVES[node.op]
        text = f"{_fmt(node.left, left, ops)} {ops[node.op]} {_fmt(node.right, right, ops)}"
        return f"({text})" if level > own else text
    if isinstance(node, Not):
        return f"{ops['!']}{_fmt(node.body, _LEVEL_ATOM, ops)}"
    return f"{format_term(node.lhs)} {ops.get(node.op, node.op)} {format_term(node.rhs)}"


def format_term(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Apply):
        return f"{term.mapping}({format_term(term.argument)})"
    return str(term.value) if isinstance(term.value, int) else quote_string(term.value)
