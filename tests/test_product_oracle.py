"""Differential tests of the RatPoly product kernels against sympy.

``RatPoly`` products convolve integer numerators over a product of
denominators, powers square from the base, and ``primitive_positive``
splits off the content from the integer form.  sympy's ``Poly`` reaches the
same values over QQ by its own arithmetic.  ``Poly.primitive()`` returns a
positive content; phelix's primitive part has a positive leading
coefficient instead, so the oracle moves the sign onto the content.
"""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import rat_polys
from phelix import RatPoly

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")


def to_sympy(p: RatPoly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], T, domain="QQ")


def _fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def from_sympy(poly) -> RatPoly:
    return RatPoly([_fraction(c) for c in reversed(poly.all_coeffs())])


@given(rat_polys, rat_polys)
def test_product(p, q):
    assert p * q == from_sympy(to_sympy(p) * to_sympy(q))


@given(rat_polys, rat_polys, rat_polys)
def test_product_of_products(p, q, r):
    # the inner products hand their integer forms to the outer one
    assert (p * q) * (q * r) == from_sympy(to_sympy(p) * to_sympy(q) ** 2 * to_sympy(r))


@given(rat_polys, st.integers(0, 7))
def test_power(p, n):
    assert p**n == from_sympy(to_sympy(p) ** n)


@given(rat_polys, rat_polys)
def test_primitive_positive(p, q):
    for poly in (p, p * q):
        content, primitive = poly.primitive_positive()
        sym_content, sym_primitive = to_sympy(poly).primitive()
        if sym_primitive.LC() < 0:
            sym_content, sym_primitive = -sym_content, -sym_primitive
        assert content == _fraction(sym_content)
        assert primitive == from_sympy(sym_primitive)
        assert all(c.denominator == 1 for c in primitive.coeffs)
