"""The integer form a RatPoly carries never disagrees with its coefficients.

A RatPoly holds (den, ints) with coeffs = ints / den, where den is any
positive common denominator: it is cleared on first read, or set by the
product, sum, difference or derivative that made the polynomial.
Polynomials are built here through products, powers, sums, differences
(cancelling ones among them), derivatives, divisions and the parts of
Gaussian products.  Every result's form must equal its coefficients in
value, and every reader of the form (``evaluate``, ``primitive_positive``,
``perfect_square_root``) must answer as it does on a fresh
``RatPoly(p.coeffs)``, whose form is cleared from the lcm of the
denominators.  Products are also checked coefficient by coefficient
against a Fraction convolution, so a wrong denominator that a product's
coefficients and form share still shows.  A sum that cancels must leave
the normal form: no trailing zeros, and degree None for zero.
"""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import rat_polys
from oracles import convolve
from phelix import GaussPoly, RatPoly, perfect_square_root

OPS = ("mul", "pow", "add", "sub", "cancel", "derivative", "divmod", "gauss")
POINTS = (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 5), Fraction(-7, 4))
MAX_DEGREE = 24

steps = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 9), st.integers(0, 9), st.integers(0, 3)),
    max_size=6,
)


def product(a: RatPoly, b: RatPoly) -> RatPoly:
    return RatPoly(convolve(list(a.coeffs), list(b.coeffs), Fraction(0)))


def degree(p: RatPoly) -> int:
    return p.degree or 0


def apply(op, a: RatPoly, b: RatPoly, n: int) -> list:
    """The polynomials one step makes from a and b, each checked against
    the Fraction oracle where the step is a product."""
    if op == "mul":
        out = a * b
        assert out.coeffs == product(a, b).coeffs
        return [out]
    if op == "pow":
        out = a**n
        expected = RatPoly.one()
        for _ in range(n):
            expected = product(expected, a)
        assert out.coeffs == expected.coeffs
        return [out]
    if op == "add":
        return [a + b]
    if op == "sub":
        return [a - b]
    if op == "cancel":
        out = a - a
        assert out.is_zero and out.degree is None
        return [out]
    if op == "derivative":
        return [a.derivative()]
    if op == "divmod":
        return [] if b.is_zero else list(divmod(a, b))
    # (a + i b) * (b + i a'), on the parts' own products
    c = a.derivative()
    zw = GaussPoly.from_parts(a, b) * GaussPoly.from_parts(b, c)
    assert zw.re.coeffs == (product(a, b) - product(b, c)).coeffs
    assert zw.im.coeffs == (product(a, c) + product(b, b)).coeffs
    return [zw.re, zw.im]


def check_form(p: RatPoly) -> None:
    den, ints = p._integer_form()
    assert den > 0
    assert tuple(Fraction(v, den) for v in ints) == p.coeffs


def check_readers(p: RatPoly) -> None:
    fresh = RatPoly(p.coeffs)
    for t in POINTS:
        assert p.evaluate(t) == fresh.evaluate(t)
    content, primitive = p.primitive_positive()
    fresh_content, fresh_primitive = fresh.primitive_positive()
    assert content == fresh_content
    assert primitive.coeffs == fresh_primitive.coeffs
    assert perfect_square_root(p) == perfect_square_root(fresh)


@given(st.lists(rat_polys, min_size=2, max_size=3), steps)
def test_form_agrees_with_coeffs(pool, ops):
    for op, i, j, n in ops:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if degree(a) * max(n, 2) + degree(b) > MAX_DEGREE:
            continue
        pool.extend(apply(op, a, b, n))
    for p in pool:
        check_form(p)
        check_readers(p)


@given(st.lists(rat_polys, min_size=1, max_size=2), steps)
def test_square_of_any_built_polynomial_has_its_root(pool, ops):
    # p * p carries a product form, so the hit branch of perfect_square_root
    # reads it; its root must be the fresh polynomial's root
    for op, i, j, n in ops:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if degree(a) * max(n, 2) + degree(b) > MAX_DEGREE // 2:
            continue
        pool.extend(apply(op, a, b, n))
    for p in pool:
        square = p * p
        root = perfect_square_root(square)
        assert root is not None
        assert root == perfect_square_root(RatPoly(square.coeffs))
        check_form(square)


T = RatPoly([0, 1])
P = RatPoly([Fraction(1, 3), Fraction(-5, 6), 0, Fraction(7, 4)])


@pytest.mark.parametrize(
    "result, degree",
    [
        (P - P, None),
        (P + (-1) * P, None),
        ((T * T + T) - T * T, 1),
        ((Fraction(1, 6) * T + Fraction(1, 4)) + (Fraction(1, 10) * T - Fraction(1, 4)), 1),
        (RatPoly([Fraction(5, 7)]).derivative(), None),
        (RatPoly().derivative(), None),
    ],
    ids=["p-p", "p+(-p)", "t2+t-t2", "unequal-dens", "constant-derivative", "zero-derivative"],
)
def test_cancellation_keeps_the_normal_form(result, degree):
    fresh = RatPoly(result.coeffs)
    assert result == fresh
    assert hash(result) == hash(fresh)
    assert result.degree == degree
    check_form(result)
    check_readers(result)
