"""Shared strategies and exact-arithmetic test helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import settings

from phelix import GaussPoly, GaussianRational, Quaternion, QuaternionPolynomial, RatPoly

settings.register_profile("fast", deadline=None, max_examples=60)
settings.load_profile("fast")

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
rat_polys = st.lists(rationals, min_size=0, max_size=6).map(RatPoly)
nonzero_rat_polys = rat_polys.filter(lambda p: not p.is_zero)
gauss_rationals = st.builds(GaussianRational, rationals, rationals)
gauss_polys = st.lists(gauss_rationals, min_size=0, max_size=5).map(GaussPoly)
nonzero_gauss_polys = gauss_polys.filter(lambda p: not p.is_zero)
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)
quaternion_quadratics = (
    st.lists(quaternions, min_size=1, max_size=3)
    .map(QuaternionPolynomial)
    .filter(lambda a: not a.is_zero)
)


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


def rand_fraction(rng: random.Random, height: int = 9) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def rand_rat_poly(rng: random.Random, degree: int, height: int = 9) -> RatPoly:
    while True:
        p = RatPoly([rand_fraction(rng, height) for _ in range(degree + 1)])
        if p.degree == degree:
            return p


def rand_gaussian(rng: random.Random, height: int = 9) -> GaussianRational:
    return GaussianRational(rand_fraction(rng, height), rand_fraction(rng, height))


def rand_quaternion(rng: random.Random, height: int = 9) -> Quaternion:
    return Quaternion(*(rand_fraction(rng, height) for _ in range(4)))


def rand_quaternion_quadratic(rng: random.Random, height: int = 9) -> QuaternionPolynomial:
    while True:
        a = QuaternionPolynomial([rand_quaternion(rng, height) for _ in range(3)])
        if a.degree == 2:
            return a


def compose_affine(p: RatPoly, a, b) -> RatPoly:
    """The polynomial p(a*t + b), computed exactly by Horner."""
    lin = RatPoly([b, a])
    acc = RatPoly()
    for c in reversed(p.coeffs):
        acc = acc * lin + c
    return acc


def sylvester_resultant(p, q):
    """Exact resultant via the Sylvester matrix (fraction-free expansion).

    Independent of the library's gcd: uses only coefficient arithmetic and a
    Laplace-expansion determinant, so it can serve as an oracle for
    coprimality of small polynomials.
    """
    m, n = p.degree, q.degree
    assert m is not None and n is not None
    size = m + n
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    zero = pc[0] - pc[0]
    for i in range(n):
        rows.append([zero] * i + pc + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + qc + [zero] * (size - n - 1 - i))
    return _determinant(rows)


def _determinant(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        pivot = rows[0][j]
        if not pivot:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = pivot * _determinant(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return rows[0][0] - rows[0][0]
    return total
