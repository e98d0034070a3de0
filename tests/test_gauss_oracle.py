"""Differential tests of the GaussPoly kernel against coefficient-object references.

A GaussPoly keeps its real and imaginary parts as two RatPolys: its products
run through RatPoly's integer convolution, and its division works on integer
numerators.  The references in oracles.py multiply and divide one
GaussianRational at a time, the way a polynomial over any field would.  The
two must agree exactly, on zero operands and on mixed RatPoly x GaussPoly
products too.
"""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import (
    gauss_polys,
    gauss_rationals,
    nonzero_gauss_polys,
    nonzero_rat_polys,
    rat_polys,
)
from oracles import convolve, long_divmod
from phelix import DegenerateInputError, GaussPoly, GaussianRational

ZERO, ONE = GaussianRational(), GaussianRational(1)

operands = st.one_of(gauss_polys, rat_polys)
divisors = st.one_of(nonzero_gauss_polys, nonzero_rat_polys)


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


@given(gauss_polys, divisors)
def test_divmod(a, b):
    quotient, remainder = long_divmod(gauss_coeffs(a), gauss_coeffs(b), ONE)
    q, r = divmod(a, b)
    assert q == GaussPoly(quotient)
    assert r == GaussPoly(remainder)
    assert a % b == r


@given(gauss_polys, nonzero_gauss_polys)
def test_exact_div(a, b):
    assert (a * b).exact_div(b) == a
    if not (a % b).is_zero:
        with pytest.raises(DegenerateInputError):
            a.exact_div(b)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(GaussPoly([ONE]), GaussPoly())


@given(gauss_polys)
def test_monic(a):
    coeffs = gauss_coeffs(a)
    expected = [c * (ONE / coeffs[-1]) for c in coeffs] if coeffs else []
    assert a.monic() == GaussPoly(expected)
