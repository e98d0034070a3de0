"""Differential tests of perfect_square_root against two independent roots.

The kernel reads the root off the top half of the integer-primitive
coefficients and squares it back.  The oracles decide squareness through
square-free multiplicities instead: Yun's decomposition in this package
(squarefree_decompose) and sympy's sqf_list.  All three must return the
same normal form, or all None.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import nonzero_rat_polys, rationals
from phelix import RatPoly, ScaledSqrt, perfect_square_root, squarefree_decompose

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")

positive_rationals = rationals.filter(lambda c: c > 0)
nonzero_rationals = rationals.filter(lambda c: c != 0)


def root_from_multiplicities(content, factors, to_rat_poly):
    if content <= 0 or any(mult % 2 for _, mult in factors):
        return None
    body = RatPoly.one()
    for factor, mult in factors:
        body = body * to_rat_poly(factor) ** (mult // 2)
    return ScaledSqrt(content, body)


def yun_root(p: RatPoly):
    content, factors = squarefree_decompose(p)
    return root_from_multiplicities(content, factors, lambda f: f)


def _from_sympy_rational(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def sympy_root(p: RatPoly):
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
        T,
        domain="QQ",
    )
    content, factors = sympy.sqf_list(poly)
    return root_from_multiplicities(
        _from_sympy_rational(content),
        factors,
        lambda f: RatPoly([_from_sympy_rational(c) for c in reversed(f.all_coeffs())]),
    )


def assert_agrees(p: RatPoly):
    root = perfect_square_root(p)
    assert root == yun_root(p)
    assert root == sympy_root(p)
    if root is not None:
        assert root.scale * (root.body * root.body) == p
    return root


@given(nonzero_rat_polys, positive_rationals)
def test_scaled_square(q, c):
    assert assert_agrees(c * q * q) is not None


@given(nonzero_rat_polys.filter(lambda q: q.degree >= 1), nonzero_rationals, st.data())
def test_changed_low_coefficient(q, delta, data):
    # the coefficients of t^n .. t^2n of a square of degree 2n fix its root,
    # so a change below t^n keeps a square-looking top half that only
    # squaring back can tell from a square
    p = q * q
    k = data.draw(st.integers(min_value=0, max_value=q.degree - 1))
    coeffs = list(p.coeffs)
    coeffs[k] += delta
    assert assert_agrees(RatPoly(coeffs)) is None


@given(nonzero_rat_polys, rationals, rationals, st.sampled_from([1, 3]))
def test_odd_power_of_a_linear_factor(q, r, s, odd):
    square = q * q
    assert assert_agrees(square * RatPoly([-r, 1]) ** odd) is None
    # two odd powers give even degree; the product is a square only for r == s
    root = assert_agrees(square * RatPoly([-r, 1]) ** odd * RatPoly([-s, 1]))
    assert (root is not None) == (r == s)


@given(
    st.integers(min_value=2, max_value=10**6).filter(lambda n: math.isqrt(n) ** 2 != n),
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.lists(st.integers(-50, 50), min_size=2 * n - 1, max_size=2 * n - 1)
    ),
    positive_rationals,
)
def test_leading_coefficient_not_a_square(lead, middle, c):
    # the constant term 1 keeps the integer polynomial primitive, so its
    # leading coefficient is the one whose integer square root is taken
    assert assert_agrees(c * RatPoly([1, *middle, lead])) is None


@given(nonzero_rat_polys, positive_rationals, st.integers(min_value=1, max_value=4))
def test_zero_low_order_coefficients(q, c, shift):
    monomial = RatPoly([0] * shift + [1])
    root = assert_agrees(c * q * q * monomial)
    assert (root is not None) == (shift % 2 == 0)


@given(nonzero_rationals)
def test_degree_zero(c):
    root = assert_agrees(RatPoly([c]))
    assert (root is not None) == (c > 0)
