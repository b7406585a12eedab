import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from reference import normalize_per_variable

from pptor import corpus
from pptor._lexer import int_digit_limit
from pptor.formulas import (
    Equation,
    FormulaError,
    ParseError,
    PpFormula,
    is_low,
    normalize,
    parse,
    print_formula,
    scalar_formula,
    solution_group_over_z,
    sum_formulas,
    witness_over_z,
)


def test_parse_simple():
    f = parse("2*x = 0")
    assert f.free_vars == ("x",)
    assert f.bound_vars == ()
    assert len(f.equations) == 1


def test_parse_quantifier_prefix():
    f = parse("E y. x = 2*y")
    assert f.free_vars == ("x",)
    assert f.bound_vars == ("y",)


def test_parse_quantifier_mid_conjunction():
    f = parse("2*x = 0 & E y. x = 4*y")
    assert f.free_vars == ("x",)
    assert f.bound_vars == ("y",)
    assert len(f.equations) == 2


def test_parse_multiple_bound():
    f = parse("E y. E z. x = 2*y + 3*z & y = z")
    assert set(f.bound_vars) == {"y", "z"}


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("x = ")
    for text, col in (("x = 2*y &", 10), ("x =", 4), ("(x = y", 7)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert "end of input" in str(exc.value) and "None" not in str(exc.value)
        assert f"(line 1, column {col})" in str(exc.value)
    with pytest.raises(FormulaError):
        parse("x + 1 = 0")  # nonzero constant breaks homogeneity
    with pytest.raises(FormulaError):
        parse("E y. y = 0 & E y. x = y")  # duplicate bound variable
    with pytest.raises(FormulaError):
        parse("y = 0 & E y. x = 2*y")  # capture of an occurring variable


def test_formula_refusals():
    """PpFormula checks its parts when it is built directly, not parsed."""
    eq = Equation(((1, "x"),), ((2, "y"),))
    cases = [
        ((("x",), ("x",), ()), r"^variables both free and bound: \['x'\]$"),
        ((("x",), ("y", "y"), (eq,)), "^duplicate bound variable$"),
        ((("x",), (), (eq,)), r"^undeclared variables: \['y'\]$"),
        ((("x",), (), (Equation(((1, "x"),), ((1, None),)),)),
         "^equation is not homogeneous$"),
    ]
    for args, message in cases:
        with pytest.raises(FormulaError, match=message):
            PpFormula(*args)


def test_parse_reads_ascii_digits_up_to_the_literal_limit():
    """A non-ASCII digit is an unexpected character, not a number; a
    literal past the interpreter's integer-string limit is a ParseError
    that names the limit; a literal at the limit parses."""
    limit = int_digit_limit()
    cases = [("x = ²*y", "unexpected character '²' (line 1, column 5)"),
             ("x =\n ٣*y", "unexpected character '٣' (line 2, column 2)"),
             ("x = 3²*y", "unexpected character '²' (line 1, column 6)")]
    if 0 < limit < 5000:  # a limit of 0 means none
        cases.append(("x = " + "7" * 5000 + "*y",
                      f"integer literal of 5000 digits exceeds the limit of "
                      f"{limit} digits (line 1, column 5)"))
    for text, message in cases:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message
    assert parse("x² = y٣").free_vars == ("x²", "y٣")  # names are as before
    if limit:
        f = parse("x = " + "7" * limit + "*y")
        assert f.equations[0].rhs == ((int("7" * limit), "y"),)


def test_print_parse_roundtrip_random():
    rng = random.Random(5)
    for _ in range(300):
        f = corpus.random_formula(rng)
        g = parse(print_formula(f))
        # printing drops redundant zero terms and infers variable order from
        # occurrence; compare after aligning columns by variable name
        assert print_formula(g) == print_formula(parse(print_formula(g)))
        assert set(g.free_vars) == set(f.free_vars)
        assert set(g.bound_vars) == set(f.bound_vars)
        m1, m2 = normalize(f), normalize(g)
        fmap = [g.free_vars.index(v) for v in f.free_vars]
        bmap = [g.bound_vars.index(v) for v in f.bound_vars]
        C2 = tuple(tuple(row[j] for j in fmap) for row in m2.C)
        D2 = tuple(tuple(row[j] for j in bmap) for row in m2.D)
        assert (m1.C, m1.D) == (C2, D2)


@st.composite
def _formula_texts(draw):
    """Formula text over x0..x3 and y0, y1 with coefficients in -3..3, zero
    included; a side with no terms is written 0."""
    bound = draw(st.lists(st.sampled_from(["y0", "y1"]), unique=True,
                          max_size=2))
    names = st.sampled_from(["x0", "x1", "x2", "x3", *bound])
    term = st.tuples(st.integers(-3, 3), names)

    def side():
        terms = draw(st.lists(term, max_size=3))
        text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{v}"
                        for c, v in terms).removeprefix("+ ")
        return text or "0"

    eqs = [f"{side()} = {side()}"
           for _ in range(draw(st.integers(1, 3)))]
    body = " & ".join(eqs)
    return f"E {' '.join(bound)} . {body}" if bound else body


@example("0*x0 + x1 = 0 & x0 = 2*x1")
@given(_formula_texts())
def test_print_parse_roundtrip_keeps_variable_order(text):
    f = parse(text)
    g = parse(print_formula(f))
    # printing drops zero terms that change neither the variables nor
    # their order of first appearance
    assert (g.free_vars, g.bound_vars) == (f.free_vars, f.bound_vars)
    assert normalize(g) == normalize(f)
    if all(c != 0 for eq in f.equations for c, v in eq.lhs + eq.rhs if v):
        assert g == f


@st.composite
def _pp_formulas(draw):
    """Formulas over 1–3 free and 0–2 bound variables, built directly so a
    free variable may occur in no equation; terms repeat variables on one
    side and across sides, and constant terms are 0."""
    free = draw(st.lists(st.sampled_from(["x0", "x1", "x2"]), unique=True,
                         min_size=1, max_size=3))
    bound = draw(st.lists(st.sampled_from(["y0", "y1"]), unique=True,
                          max_size=2))
    term = st.one_of(
        st.tuples(st.integers(-3, 3), st.sampled_from(free + bound)),
        st.just((0, None)),
    )
    side = st.lists(term, max_size=4).map(tuple)
    eqs = draw(st.lists(st.builds(Equation, side, side), max_size=3))
    return PpFormula(tuple(free), tuple(bound), tuple(eqs))


# variables repeated on one side and across sides; a net coefficient 0; a
# free variable x1 in no equation; no bound variables; constant terms 0
@example(parse("E y0 . x0 + 2*x0 = x0 - y0 + 3*y0 & y0 = y0 + y0"))
@example(parse("2*x0 + x1 = 2*x0"))
@example(PpFormula(("x0", "x1"), (), (Equation(((2, "x0"),), ((0, None),)),)))
@example(parse("x0 = 3*x1"))
@example(parse("x0 + 0 = 0 - x0"))
@given(_pp_formulas())
def test_normalize_matches_per_variable_reference(f):
    m = normalize(f)
    assert m == normalize_per_variable(f)
    assert all(type(c) is int for rows in (m.C, m.D) for row in rows
               for c in row)


def test_normalize_shapes():
    f = parse("2*x = 0 & E y. x = 4*y")
    m = normalize(f)
    assert len(m.C) == len(m.D) == 2
    assert len(m.C[0]) == 1 and len(m.D[0]) == 1


def test_lowness_examples():
    assert not is_low(parse("E y. x = 2*y"))        # ψ[Z] = 2Z
    assert is_low(parse("2*x = 0 & E y. x = 4*y"))  # ψ[Z] = 0
    assert is_low(parse("3*x = 0"))
    assert not is_low(parse("x = x"))


def test_solution_group_over_z():
    assert solution_group_over_z(parse("E y. x = 2*y")) == 2
    assert solution_group_over_z(parse("2*x = 0")) == 0
    assert solution_group_over_z(parse("x = x")) == 1


def test_witness_over_z():
    f = parse("E y. x = 6*y")
    w = witness_over_z(f, 12)
    assert w is not None and w == [2]
    assert witness_over_z(f, 3) is None


def test_sum_formulas_over_z():
    f = parse("E y. x = 4*y")
    g = parse("E y. x = 6*y")
    s = sum_formulas(f, g)
    assert solution_group_over_z(s) == 2  # 4Z + 6Z = 2Z
    assert len(s.free_vars) == 1


def test_scalar_formula_over_z():
    f = parse("E y. x = 4*y")
    assert solution_group_over_z(scalar_formula(3, f)) == 12
    assert solution_group_over_z(scalar_formula(0, f)) == 0


def test_sum_requires_one_free_var():
    f2 = parse("x1 = x2")
    with pytest.raises(FormulaError):
        sum_formulas(f2, f2)


def test_fresh_renaming_avoids_collision():
    f = parse("E y. x = 2*y")
    s = sum_formulas(f, f)
    assert len(set(s.bound_vars)) == len(s.bound_vars)
    assert "x" not in s.bound_vars
