"""Differential tests of the GaussPoly kernel against coefficient-object references.

A GaussPoly keeps its real and imaginary parts as two RatPolys, and its
products run through RatPoly's integer convolution.  The reference in
oracles.py multiplies one GaussianRational at a time, the way a polynomial
over any ring would.  The two must agree exactly, on zero operands and on
mixed RatPoly x GaussPoly products too.
"""

from hypothesis import given
import hypothesis.strategies as st

from conftest import gauss_polys, gauss_rationals, rat_polys
from oracles import convolve
from phelix import GaussPoly, GaussianRational

ZERO, ONE = GaussianRational(), GaussianRational(1)

operands = st.one_of(gauss_polys, rat_polys)


def gauss_coeffs(p) -> list:
    """The coefficients of a GaussPoly or RatPoly as GaussianRationals."""
    return [GaussianRational.coerce(c) for c in p.coeffs]


def as_gauss(p) -> GaussPoly:
    return p if isinstance(p, GaussPoly) else GaussPoly.from_real(p)


@given(operands, operands)
def test_product(a, b):
    expected = GaussPoly(convolve(gauss_coeffs(a), gauss_coeffs(b), ZERO))
    assert as_gauss(a * b) == expected
    assert as_gauss(b * a) == expected


@given(gauss_polys, gauss_rationals)
def test_scalar_product(a, c):
    assert a * c == GaussPoly(convolve(gauss_coeffs(a), [c] if c else [], ZERO))


@given(gauss_polys)
def test_monic(a):
    coeffs = gauss_coeffs(a)
    expected = [c * (ONE / coeffs[-1]) for c in coeffs] if coeffs else []
    assert a.monic() == GaussPoly(expected)
