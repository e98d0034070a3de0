"""Differential tests of poly_gcd, monotone_test and RationalFunction
reduction against sympy.

poly_gcd runs Euclid with monic remainders over the rationals, and
RationalFunction divides numerator and denominator by that gcd and makes
the denominator primitive with a positive leading coefficient.
monotone_test reads gcd(z1, z2) of a Hopf pair of degree at most two off
the double root of its Wronskian.  sympy's gcd and cancel reach the same
results by other algorithms; the two must agree up to a unit, and after
the normalization exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from conftest import gauss_rationals, rationals
from phelix import (
    GaussPoly,
    GaussianRational,
    HopfPair,
    RatPoly,
    RationalFunction,
    monotone_test,
    poly_gcd,
)

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")

# the factors below multiply to degree at most 7
factors = st.lists(rationals, min_size=1, max_size=4).map(RatPoly)
cofactors = st.lists(rationals, min_size=1, max_size=5).map(RatPoly)


def gauss_upto(degree: int):
    return st.lists(gauss_rationals, max_size=degree + 1).map(GaussPoly)


def _planted(r, u, v):
    shared = GaussPoly([-r, GaussianRational(1)])
    return shared * u, shared * v


# Hopf pairs of degree at most two, as (z1, z2): a planted shared root
# (real in about one draw in six), proportional pairs, one zero member,
# degree-deficient pairs and random ones
hopf_pairs = st.one_of(
    st.builds(_planted, gauss_rationals, gauss_upto(1), gauss_upto(1)),
    st.builds(_planted, rationals.map(GaussianRational), gauss_upto(1), gauss_upto(1)),
    st.builds(lambda z, c: (z, z * c), gauss_upto(2), gauss_rationals),
    st.builds(lambda z, first: (z, GaussPoly()) if first else (GaussPoly(), z),
              gauss_upto(2), st.booleans()),
    st.tuples(gauss_upto(1), gauss_upto(2)),
    st.tuples(gauss_upto(2), gauss_upto(2)),
)


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


@given(factors, cofactors, cofactors)
def test_gcd_of_rational_polynomials(g, p, q):
    a, b = g * p, g * q
    assume(not (a.is_zero and b.is_zero))
    ours = poly_gcd(a, b)
    # both are gcds of (a, b), so they agree up to a unit; poly_gcd is monic
    assert ours == from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))).monic()
    assert (ours % g).is_zero


@settings(max_examples=200)
@given(hopf_pairs)
def test_monotone_test_is_the_gaussian_gcd(pair):
    z1, z2 = pair
    assume(not (z1.is_zero and z2.is_zero))
    expected = gauss_from_sympy(sympy.gcd(gauss_to_sympy(z1), gauss_to_sympy(z2)))
    # sympy's gcd is a gcd up to a unit; monotone_test keeps a monic one of
    # positive degree
    assert monotone_test(HopfPair(z1, z2)) == (expected.monic() if expected.degree else None)


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
