from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from erdmc.diagnostics import ParseFailure
from erdmc.formula import (
    MAX_FORMULA_DEPTH,
    Apply,
    Binary,
    Compare,
    Forall,
    Literal,
    Not,
    Var,
    format_formula,
    parse_formula,
    quantifier_count,
)

START_BEFORE_END = "(forall x in SCHEDULES)(StartH(x) < EndH(x))"
DISTINCT_SSN = "(forall x in STUDENTS)(forall y in TEACHERS)(SSN(x) <> SSN(y))"


def test_single_variable_check_structure():
    f = parse_formula(START_BEFORE_END)
    assert f == Forall(
        "x", "SCHEDULES",
        Compare("<", Apply("StartH", Var("x")), Apply("EndH", Var("x"))),
    )


def test_reflexive_comparison_is_well_formed():
    f = parse_formula("(forall x in S)(f(x) = f(x))")
    assert f == Forall("x", "S", Compare("=", Apply("f", Var("x")), Apply("f", Var("x"))))


def test_nested_quantifiers_over_two_sets():
    f = parse_formula(DISTINCT_SSN)
    assert f == Forall(
        "x", "STUDENTS",
        Forall("y", "TEACHERS", Compare("<>", Apply("SSN", Var("x")), Apply("SSN", Var("y")))),
    )


def test_multi_variable_sugar_desugars_to_nested_quantifiers():
    sugared = parse_formula("(forall x, y in S)(a(x) = a(y))")
    nested = parse_formula("(forall x in S)(forall y in S)(a(x) = a(y))")
    assert sugared == nested


@pytest.mark.parametrize(
    "source,count",
    [
        (START_BEFORE_END, 1),
        ("(forall x, y in SCHEDULES)(Weekday(x) = Weekday(y))", 2),
        ("(forall u, v in ATTENDANCES)(forall x, y in SCHEDULES)"
         "(Student(u) = Student(v) & Weekday(x) = Weekday(y))", 4),
    ],
)
def test_quantifier_count(source, count):
    assert quantifier_count(parse_formula(source)) == count


def test_unbound_variable_is_rejected_by_name():
    with pytest.raises(ParseFailure) as info:
        parse_formula("(forall x in S)(a(x) = a(z))")
    assert "z" in str(info.value)


def test_duplicate_quantified_variable_is_rejected():
    with pytest.raises(ParseFailure):
        parse_formula("(forall x in S)(forall x in T)(a(x) = a(x))")


def test_malformed_quantifier_is_rejected():
    with pytest.raises(ParseFailure):
        parse_formula("(forall x S)(a(x) = 1)")


def test_unicode_glyphs_are_synonyms():
    ascii_form = parse_formula(DISTINCT_SSN)
    glyph_form = parse_formula(
        "(∀x ∈ STUDENTS)(∀y ∈ TEACHERS)(SSN(x) ≠ SSN(y))"
    )
    assert ascii_form == glyph_form


def test_operator_precedence_comparisons_then_not_and_or_implies():
    f = parse_formula("(forall x in S)(a(x) = 1 & b(x) = 2 | !c(x) = 3 => d(x) = 4)")
    body = f.body
    assert isinstance(body, Binary) and body.op == "=>"
    assert isinstance(body.left, Binary) and body.left.op == "|"
    assert isinstance(body.left.left, Binary) and body.left.left.op == "&"
    assert isinstance(body.left.right, Not)
    assert isinstance(body.right, Compare)


def test_implies_is_right_associative():
    f = parse_formula("(forall x in S)(a(x) = 1 => b(x) = 2 => c(x) = 3)")
    assert isinstance(f.body, Binary) and f.body.op == "=>"
    assert isinstance(f.body.left, Compare)
    assert isinstance(f.body.right, Binary) and f.body.right.op == "=>"


@pytest.mark.parametrize("op", ["&", "|"])
def test_conjunction_and_disjunction_are_left_associative(op):
    f = parse_formula(f"(forall x in S)(a(x) = 1 {op} b(x) = 2 {op} c(x) = 3)")
    assert isinstance(f.body, Binary) and f.body.op == op
    assert isinstance(f.body.left, Binary) and f.body.left.op == op
    assert isinstance(f.body.right, Compare)


def test_numbers_and_text_parse_to_literals():
    f = parse_formula('(forall x in S)(a(x) = -7 | b(x) = "7")')
    assert f.body == Binary(
        "|",
        Compare("=", Apply("a", Var("x")), Literal(-7)),
        Compare("=", Apply("b", Var("x")), Literal("7")),
    )


def test_an_empty_string_parses_to_an_empty_literal():
    # The token stream hands back a string literal's value, which may be empty.
    f = parse_formula('(forall x in S)(a(x) = "")')
    assert f.body == Compare("=", Apply("a", Var("x")), Literal(""))


def test_print_parse_fixpoint_on_representative_formulas():
    for source in (
        START_BEFORE_END,
        DISTINCT_SSN,
        "(forall x, y in S)(a(x) = a(y) => b(x) <> b(y))",
        "(forall x in S)(!(a(x) = 1 | a(x) = 2) & b(x) >= 0)",
    ):
        first = parse_formula(source)
        printed = format_formula(first)
        assert parse_formula(printed) == first


def test_multi_variable_sugar_reapplied_on_print():
    f = parse_formula("(forall u, v in A)(forall x, y in S)(a(u) = a(v) & b(x) = b(y))")
    assert format_formula(f).startswith("(forall u, v in A)(forall x, y in S)")


def test_unicode_rendering_round_trips():
    f = parse_formula(DISTINCT_SSN)
    glyphs = format_formula(f, unicode=True)
    assert "∀" in glyphs and "≠" in glyphs
    assert parse_formula(glyphs) == f


# --- nesting bound ---

# Each shape opens one level for the quantified x, then one per opener.
_NESTING_SHAPES = {
    "parentheses": ("(", lambda n: "(" * n + "x = 1" + ")" * n),
    "negations": ("!", lambda n: "!" * n + "x = 1"),
    "conjunction": ("&", lambda n: "x = 1" + " & x = 1" * n),
    "disjunction": ("|", lambda n: "x = 1" + " | x = 1" * n),
    "implication": ("=>", lambda n: "x = 1" + " => x = 1" * n),
}


@pytest.mark.parametrize("shape", sorted(_NESTING_SHAPES))
def test_nesting_just_below_and_just_above_the_bound(shape):
    opener, body = _NESTING_SHAPES[shape]
    prefix = "(forall x in A)("
    deepest = MAX_FORMULA_DEPTH - 1
    accepted = parse_formula(f"{prefix}{body(deepest)})")
    assert parse_formula(format_formula(accepted)) == accepted
    source = f"{prefix}{body(deepest + 1)})"
    with pytest.raises(ParseFailure) as info:
        parse_formula(source)
    [error] = info.value.errors
    assert error.message == f"formula nested deeper than {MAX_FORMULA_DEPTH} levels"
    assert error.line == 1
    assert source.startswith(opener, error.column - 1)
    assert source[len(prefix):error.column - 1].count(opener) == deepest


# --- property: printing any generated AST re-parses to the same tree ---

_names = st.sampled_from(["a", "b", "c", "f", "g"])
_domains = st.sampled_from(["S", "T", "U"])


def _terms(variables: tuple[str, ...]) -> st.SearchStrategy:
    base = st.one_of(
        st.sampled_from([Var(v) for v in variables]),
        st.integers(-50, 50).map(Literal),
        st.text(max_size=6).map(Literal),
    )
    return st.recursive(
        base,
        lambda inner: st.builds(Apply, _names, inner),
        max_leaves=4,
    )


def _comparisons(variables: tuple[str, ...]) -> st.SearchStrategy:
    ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
    return st.builds(Compare, ops, _terms(variables), _terms(variables))


def _bodies(variables: tuple[str, ...]) -> st.SearchStrategy:
    return st.recursive(
        _comparisons(variables),
        lambda inner: st.one_of(
            st.builds(Binary, st.sampled_from(["&", "|", "=>"]), inner, inner),
            st.builds(Not, inner),
        ),
        max_leaves=8,
    )


@st.composite
def _formulas(draw) -> Forall:
    variables = draw(st.lists(
        st.sampled_from(["x", "y", "z", "u", "v"]), min_size=1, max_size=3, unique=True,
    ))
    body = draw(_bodies(tuple(variables)))
    for v in reversed(variables):
        body = Forall(v, draw(_domains), body)
    return body


@given(_formulas())
def test_print_then_parse_is_identity(formula):
    assert parse_formula(format_formula(formula)) == formula
