"""Differential tests of poly_gcd and RationalFunction reduction against sympy.

poly_gcd runs Euclid with monic remainders over the coefficient field, and
RationalFunction divides numerator and denominator by that gcd and makes
the denominator primitive with a positive leading coefficient.  sympy's
gcd and cancel reach the same results by other algorithms; the two must
agree up to a unit, and after the normalization exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from conftest import gauss_rationals, rationals
from phelix import GaussPoly, GaussianRational, RatPoly, RationalFunction, poly_gcd

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")

# the factors below multiply to degree at most 7
factors = st.lists(rationals, min_size=1, max_size=4).map(RatPoly)
cofactors = st.lists(rationals, min_size=1, max_size=5).map(RatPoly)
gauss_factors = st.lists(gauss_rationals, min_size=1, max_size=3).map(GaussPoly)
gauss_cofactors = st.lists(gauss_rationals, min_size=1, max_size=4).map(GaussPoly)


def to_sympy(p: RatPoly):
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)] or [0],
        T,
        domain="QQ",
    )


def _fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def from_sympy(poly) -> RatPoly:
    return RatPoly([_fraction(c) for c in reversed(poly.all_coeffs())])


def gauss_to_sympy(p: GaussPoly):
    coeffs = [
        sympy.Rational(c.re.numerator, c.re.denominator)
        + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
        for c in reversed(p.coeffs)
    ]
    return sympy.Poly(coeffs or [0], T, domain=sympy.QQ_I)


def gauss_from_sympy(poly) -> GaussPoly:
    return GaussPoly(
        [
            GaussianRational(_fraction(sympy.re(c)), _fraction(sympy.im(c)))
            for c in reversed(poly.all_coeffs())
        ]
    )


def assert_gcd_agrees(a, b, ours_to_sympy, sympy_to_ours):
    ours = poly_gcd(a, b)
    theirs = sympy_to_ours(sympy.gcd(ours_to_sympy(a), ours_to_sympy(b)))
    # both are gcds of (a, b), so they agree up to a unit; poly_gcd is monic
    assert ours == theirs.monic()
    return ours


@given(factors, cofactors, cofactors)
def test_gcd_of_rational_polynomials(g, p, q):
    a, b = g * p, g * q
    assume(not (a.is_zero and b.is_zero))
    ours = assert_gcd_agrees(a, b, to_sympy, from_sympy)
    assert (ours % g).is_zero


@given(gauss_factors, gauss_cofactors, gauss_cofactors)
def test_gcd_of_gaussian_polynomials(g, p, q):
    a, b = g * p, g * q
    assume(not (a.is_zero and b.is_zero))
    ours = assert_gcd_agrees(a, b, gauss_to_sympy, gauss_from_sympy)
    assert (ours % g).is_zero


@given(factors, cofactors, cofactors)
def test_rational_function_reduction(g, p, q):
    num, den = g * p, g * q
    assume(not den.is_zero)
    ours = RationalFunction(num, den)
    n_expr, d_expr = sympy.fraction(
        sympy.cancel(to_sympy(num).as_expr() / to_sympy(den).as_expr())
    )
    n = from_sympy(sympy.Poly(n_expr, T, domain="QQ"))
    d = from_sympy(sympy.Poly(d_expr, T, domain="QQ"))
    content, primitive = d.primitive_positive()
    assert ours.den == primitive
    assert ours.num == RatPoly([c / content for c in n.coeffs])
