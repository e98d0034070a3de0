"""Differential tests of RatPoly.evaluate against two independent evaluators.

RatPoly.evaluate clears the denominators once and runs Horner on integers,
homogenized in the point's numerator and denominator, so only one Fraction
is built per evaluation.  The test oracle ``horner`` runs Horner on
Fractions term by term, and sympy evaluates its own polynomial type; all
three must return the same exact rational.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from oracles import horner
from phelix import RatPoly, RationalFunction

BIG = 10**30

# coefficients up to about 10^30 in numerator and denominator
big_rationals = st.builds(
    Fraction,
    st.integers(min_value=-BIG, max_value=BIG),
    st.integers(min_value=1, max_value=BIG),
)
big_integers = st.integers(min_value=-BIG, max_value=BIG).map(Fraction)
coefficients = st.one_of(big_integers, big_rationals)
# min_size 0 and 1 give the zero polynomial and the constants
polys = st.lists(coefficients, min_size=0, max_size=8).map(RatPoly)
points = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-50, max_value=-1).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=10**6),
)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def sympy_eval(sympy, p: RatPoly, t: Fraction) -> Fraction:
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    value = sympy.Poly(coeffs or [0], sympy.Symbol("t"), domain="QQ").eval(
        sympy.Rational(t.numerator, t.denominator)
    )
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


@given(polys, points)
@example(RatPoly(), Fraction(3, 7))
@example(RatPoly([Fraction(-5, 3)]), Fraction(-2))
@example(RatPoly([1, 2, 3]), Fraction(0))
def test_integer_horner_matches_generic_horner(p, t):
    ours = p.evaluate(t)
    assert type(ours) is Fraction
    assert ours == horner(p, t)


@given(polys, points)
def test_integer_horner_matches_sympy(sympy, p, t):
    assert p.evaluate(t) == sympy_eval(sympy, p, t)


def test_points_need_not_be_fractions():
    p = RatPoly([Fraction(1, 2), 0, -3])
    assert p.evaluate(2) == p.evaluate("2") == p.evaluate(Fraction(2)) == Fraction(-23, 2)


@given(polys, nonzero_polys, points)
def test_rational_function_value(num, den, t):
    # away from the poles of num/den the reduced quotient has the same value
    r = RationalFunction(num, den)
    if not horner(r.den, t):
        with pytest.raises(ZeroDivisionError):
            r.evaluate(t)
    d = horner(den, t)
    if d:
        assert r.evaluate(t) == horner(num, t) / d


@given(polys, nonzero_polys, points)
def test_rational_function_value_matches_sympy(sympy, num, den, t):
    d = sympy_eval(sympy, den, t)
    if d:
        assert RationalFunction(num, den).evaluate(t) == sympy_eval(sympy, num, t) / d
