"""A RatPoly's integer form and its coefficients never disagree.

A RatPoly stores one field, its integer form (den, ints) with coeffs =
ints / den, where den is any positive common denominator.  A polynomial
built from coefficients clears them over the lcm of their denominators; a
product, power, sum, difference or derivative hands on a form whose
denominator need not be the least.  Polynomials are built here through
those operations (cancelling sums among them), divisions and the parts of
Gaussian products.  Every result's form must equal its coefficients in
value, and every reader must answer as it does on a fresh
``RatPoly(p.coeffs)``, whose form is cleared from the lcm of the
denominators: the form readers (``evaluate``, ``primitive_positive``,
``perfect_square_root``) and the Fraction kernel's callers (``divmod``,
``poly_gcd``, ``monic`` and ``RationalFunction``, each paired with a
nonzero polynomial of the same chain).  Products are also checked
coefficient by coefficient against a Fraction convolution, so a wrong
denominator that a product's coefficients and form share still shows.  A
sum that cancels must leave the normal form: no trailing zeros, and degree
None for zero.

Each op chain is built twice.  On the twin whose ``coeffs`` nobody reads,
the structure queries and ``==`` must agree with the answers the other
twin gives after reading its coefficients.
"""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import rat_polys
from oracles import convolve
from phelix import (
    DegenerateInputError,
    GaussPoly,
    RatPoly,
    RationalFunction,
    perfect_square_root,
    poly_gcd,
)

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
    den, ints = p._form
    assert den > 0
    assert tuple(Fraction(v, den) for v in ints) == p.coeffs


def check_readers(p: RatPoly, partner: RatPoly) -> None:
    """p's readers answer as on RatPoly(p.coeffs); partner is nonzero."""
    fresh, fresh_partner = RatPoly(p.coeffs), RatPoly(partner.coeffs)
    for t in POINTS:
        assert p.evaluate(t) == fresh.evaluate(t)
    content, primitive = p.primitive_positive()
    fresh_content, fresh_primitive = fresh.primitive_positive()
    assert content == fresh_content
    assert primitive.coeffs == fresh_primitive.coeffs
    assert perfect_square_root(p) == perfect_square_root(fresh)
    quot, rem = divmod(p, partner)
    fresh_quot, fresh_rem = divmod(fresh, fresh_partner)
    assert (quot.coeffs, rem.coeffs) == (fresh_quot.coeffs, fresh_rem.coeffs)
    assert poly_gcd(p, partner).coeffs == poly_gcd(fresh, fresh_partner).coeffs
    assert p.monic().coeffs == fresh.monic().coeffs
    ratio = RationalFunction(p, partner)
    fresh_ratio = RationalFunction(fresh, fresh_partner)
    assert ratio.num.coeffs == fresh_ratio.num.coeffs
    assert ratio.den.coeffs == fresh_ratio.den.coeffs


def build(op, a: RatPoly, b: RatPoly, n: int) -> list:
    """The polynomials ``apply`` makes, built without reading coeffs."""
    if op == "mul":
        return [a * b]
    if op == "pow":
        return [a**n]
    if op == "add":
        return [a + b]
    if op == "sub":
        return [a - b]
    if op == "cancel":
        return [a - a]
    if op == "derivative":
        return [a.derivative()]
    if op == "divmod":
        return [] if b.is_zero else list(divmod(a, b))
    zw = GaussPoly.from_parts(a, b) * GaussPoly.from_parts(b, a.derivative())
    return [zw.re, zw.im]


def structure(p: RatPoly) -> list:
    """Every answer of the structure queries on p."""
    try:
        lead = p.leading_coefficient
    except DegenerateInputError:
        lead = "zero"
    top = -1 if p.degree is None else p.degree
    return [p.is_zero, p.degree, lead, p.is_constant()] + [
        p.coefficient(k) for k in range(-1, top + 2)
    ]


def chains(pool: list, ops, max_degree: int):
    """The op chain on pool, built twice: through ``apply``, which checks
    and reads coeffs, and through ``build``, which reads none.

    Returns (pool, twin, gauss): the twin pool holds the same values as
    pool, and gauss pairs each unread Gaussian product of the chain with
    the index of its real part in the pools."""
    twin = [RatPoly(p.coeffs) for p in pool]
    gauss = []
    for op, i, j, n in ops:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if degree(a) * max(n, 2) + degree(b) > max_degree:
            continue
        pool.extend(apply(op, a, b, n))
        made = build(op, twin[i % len(twin)], twin[j % len(twin)], n)
        if op == "gauss":
            gauss.append((GaussPoly.from_parts(*made), len(twin)))
        twin.extend(made)
    return pool, twin, gauss


@given(st.lists(rat_polys, min_size=2, max_size=3), steps)
def test_form_agrees_with_coeffs(pool, ops):
    forced, twin, gauss = chains(pool, ops, MAX_DEGREE)
    # one() stands in for a partner only when the whole chain is zero
    nonzero = [p for p in forced if not p.is_zero] or [RatPoly.one()]
    for k, p in enumerate(forced):
        check_form(p)
        check_readers(p, nonzero[k % len(nonzero)])
    for p, f in zip(twin, forced):
        assert structure(p) == structure(f)
        assert p == RatPoly(f.coeffs)
    size = len(twin)
    for k in range(size):
        assert (twin[k] == twin[(k + 1) % size]) == (forced[k] == forced[(k + 1) % size])
    for g, k in gauss:
        parts = forced[k], forced[k + 1]
        top = max(-1 if f.degree is None else f.degree for f in parts)
        assert g.degree == (None if top < 0 else top)
        assert g.is_zero == all(f.is_zero for f in parts)
    for p, f in zip(twin, forced):
        assert p == f
        assert p.coeffs == f.coeffs
        assert hash(p) == hash(f)


@given(st.lists(rat_polys, min_size=1, max_size=2), steps)
def test_square_of_any_built_polynomial_has_its_root(pool, ops):
    # p * p carries a product form, so the hit branch of perfect_square_root
    # reads it; its root must be the fresh polynomial's root, also on the
    # twin whose coefficients nobody has read
    forced, twin, _ = chains(pool, ops, MAX_DEGREE // 2)
    for p, q in zip(forced, twin):
        square = p * p
        root = perfect_square_root(square)
        assert root is not None
        assert root == perfect_square_root(RatPoly(square.coeffs))
        check_form(square)
        unread = q * q
        unread_root = perfect_square_root(unread)
        assert unread_root == root


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
    check_readers(result, P)


HALF = RatPoly([Fraction(1, 2)])
QUARTER = RatPoly([Fraction(1, 4)])


@pytest.mark.parametrize(
    "left, right, equal",
    [
        (HALF * RatPoly([1, 3]), QUARTER * RatPoly([2, 6]), True),
        (HALF * RatPoly([1, 3]), RatPoly([Fraction(1, 2), Fraction(3, 2)]), True),
        (RatPoly([Fraction(1, 2), Fraction(3, 2)]), QUARTER * RatPoly([2, 6]), True),
        (RatPoly([2]) * T, HALF * T, False),
        (HALF * T, RatPoly([2]) * T, False),
        (HALF * RatPoly([1, 3]), QUARTER * RatPoly([2, 6, 1]), False),
        (RatPoly([Fraction(1, 3)]) * P, RatPoly([Fraction(1, 6)]) * (P + P), True),
        (P - P, RatPoly(), True),
        (P - P, T - T, True),
        (P - P, HALF * T - HALF * T, True),
        (P - P, HALF * T, False),
    ],
    ids=["forms-1/2-vs-2/4", "form-vs-tuple", "tuple-vs-form", "2t-vs-t/2", "t/2-vs-2t",
         "degree-differs", "dens-36-vs-72", "zero-form-vs-tuple", "zero-forms",
         "zero-forms-unequal-dens", "zero-vs-nonzero"],
)
def test_equality_across_views(left, right, equal):
    # "form" is a value made by the arithmetic, "tuple" one built from
    # coefficients: their denominators differ, and == cross-multiplies
    assert (left == right) is equal
    assert (right == left) is equal
    if equal:
        assert hash(left) == hash(right)
    assert (left.coeffs == right.coeffs) is equal


@pytest.mark.parametrize(
    "zero", [P - P, RatPoly([Fraction(5, 7)]).derivative(), HALF * T - HALF * T, RatPoly()],
    ids=["p-p", "constant-derivative", "unequal-dens", "empty"],
)
def test_zero_polynomial_structure_without_a_tuple(zero):
    assert zero.is_zero and zero.degree is None and zero.is_constant()
    with pytest.raises(DegenerateInputError):
        zero.leading_coefficient
    assert [zero.coefficient(k) for k in (-1, 0, 1)] == [0, 0, 0]
    gauss = GaussPoly.from_parts(zero, zero)
    assert gauss.is_zero and gauss.degree is None
    assert zero.coeffs == ()
