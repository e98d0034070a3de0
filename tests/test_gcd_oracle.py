"""Differential tests of poly_gcd, monotone_test and RationalFunction
reduction against sympy.

poly_gcd runs Euclid with monic remainders over the rationals, and
RationalFunction divides numerator and denominator by that gcd and makes
the denominator primitive with a positive leading coefficient.
monotone_test reads gcd(z1, z2) of a Hopf pair of degree at most two off
the double root of its Wronskian, on Gaussian integers over one common
denominator per polynomial, and decompose_wronskian_quintic calls W
omega-constant exactly when that double root exists.  sympy's gcd and
cancel reach the same results by other algorithms; the two must agree up
to a unit, and after the normalization exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from conftest import gauss_rationals, quaternions, rationals
from phelix import (
    GaussPoly,
    GaussianRational,
    DecompositionCase,
    DegenerateInputError,
    HopfPair,
    QuaternionPolynomial,
    RatPoly,
    RationalFunction,
    decompose_wronskian_quintic,
    hopf_from_quaternion,
    monotone_test,
    poly_gcd,
)

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")

# the factors below multiply to degree at most 7
factors = st.lists(rationals, min_size=1, max_size=4).map(RatPoly)
cofactors = st.lists(rationals, min_size=1, max_size=5).map(RatPoly)


def gauss_upto(degree: int, coefficients=gauss_rationals):
    return st.lists(coefficients, max_size=degree + 1).map(GaussPoly)


def _planted(r, u, v):
    shared = GaussPoly([-r, GaussianRational(1)])
    return shared * u, shared * v


def exactly(degree: int, coefficients=gauss_rationals):
    return st.builds(
        lambda low, top: GaussPoly(low + [top]),
        st.lists(coefficients, min_size=degree, max_size=degree),
        coefficients.filter(bool),
    )


def _full_degree(coefficients):
    """Hopf pairs of full degree, as (z1, z2): a planted shared root (real
    in one family) and random ones; W vanishes only by accident."""
    exact = lambda degree: exactly(degree, coefficients)  # noqa: E731
    return st.one_of(
        st.builds(_planted, coefficients, exact(1), exact(1)),
        st.builds(_planted, rationals.map(GaussianRational), exact(1), exact(1)),
        st.tuples(exact(2), st.one_of(exact(1), exact(2))),
    )


def _pairs(coefficients):
    """Hopf pairs of degree at most two, as (z1, z2): the full-degree ones,
    and a planted shared root (real in about one draw in six), proportional
    pairs, one zero member, degree-deficient pairs and random ones."""
    upto = lambda degree: gauss_upto(degree, coefficients)  # noqa: E731
    return st.one_of(
        _full_degree(coefficients),
        st.builds(_planted, coefficients, upto(1), upto(1)),
        st.builds(_planted, rationals.map(GaussianRational), upto(1), upto(1)),
        st.builds(lambda z, c: (z, z * c), upto(2), coefficients),
        st.builds(lambda z, first: (z, GaussPoly()) if first else (GaussPoly(), z),
                  upto(2), st.booleans()),
        st.tuples(upto(1), upto(2)),
        st.tuples(upto(2), upto(2)),
    )


# real parts over powers of 2 and imaginary parts over powers of 3, so the
# parts of a coefficient, and of a polynomial, have different denominators
split_rationals = st.builds(
    GaussianRational,
    st.builds(lambda n, k: Fraction(n, 2**k), st.integers(-9, 9), st.integers(0, 3)),
    st.builds(lambda n, k: Fraction(n, 3**k), st.integers(-9, 9), st.integers(1, 2)),
)


def redenominated(z: GaussPoly, m: int, n: int) -> GaussPoly:
    """z with its real part's integer form over m times its least
    denominator and its imaginary part's over n times; the value is z's."""
    return GaussPoly.from_parts(z.re * m * Fraction(1, m), z.im * n * Fraction(1, n))


def _redenominated_pair(pair, m1, n1, m2, n2):
    z1, z2 = pair
    return redenominated(z1, m1, n1), redenominated(z2, m2, n2)


def _all_denominators(pairs):
    """pairs(coefficients) drawn with either coefficient strategy, and with
    the parts' integer forms over non-least denominators."""
    return st.one_of(
        pairs(gauss_rationals),
        pairs(split_rationals),
        st.builds(_redenominated_pair, pairs(gauss_rationals), *[st.integers(1, 9)] * 4),
    )


hopf_pairs = _all_denominators(_pairs)
full_degree_pairs = _all_denominators(_full_degree)
# the general family, A1 = c0 A0 + c2 A2, whose W is a constant times a
# real polynomial
general_pairs = (
    st.builds(
        lambda a0, a2, c0, c2: QuaternionPolynomial([a0, c0 * a0 + c2 * a2, a2]),
        quaternions,
        quaternions,
        rationals,
        rationals,
    )
    .filter(lambda a: not a.is_zero)
    .map(hopf_from_quaternion)
    .map(lambda pair: (pair.z1, pair.z2))
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


def sympy_gcd(z1: GaussPoly, z2: GaussPoly):
    """sympy's gcd of (z1, z2) made monic, or None when it is constant."""
    expected = gauss_from_sympy(sympy.gcd(gauss_to_sympy(z1), gauss_to_sympy(z2)))
    return expected.monic() if expected.degree else None


@settings(max_examples=200)
@given(hopf_pairs)
def test_monotone_test_is_the_gaussian_gcd(pair):
    z1, z2 = pair
    assume(not (z1.is_zero and z2.is_zero))
    # sympy's gcd is a gcd up to a unit; monotone_test keeps a monic one of
    # positive degree
    assert monotone_test(HopfPair(z1, z2)) == sympy_gcd(z1, z2)


nonzero_gaussians = st.one_of(gauss_rationals, split_rationals).filter(bool)


@settings(max_examples=100)
@given(hopf_pairs, nonzero_gaussians, nonzero_gaussians)
def test_monotone_test_ignores_scaling(pair, c1, c2):
    # independent Gaussian scalings multiply every minor by c1 * c2, and
    # the shared factor stays the same
    z1, z2 = pair
    assume(not (z1.is_zero and z2.is_zero))
    scaled = HopfPair(z1 * c1, z2 * c2)
    assert monotone_test(scaled) == monotone_test(HopfPair(z1, z2)) == sympy_gcd(z1, z2)


@settings(max_examples=200)
@given(st.one_of(full_degree_pairs, general_pairs, hopf_pairs))
def test_omega_constant_is_a_double_root(pair):
    # W = z1' z2 - z1 z2', built by sympy; the decomposition reads W alone
    z1, z2 = pair
    a, b = gauss_to_sympy(z1), gauss_to_sympy(z2)
    w = a.diff(T) * b - a * b.diff(T)
    if w.is_zero:
        with pytest.raises(DegenerateInputError):
            decompose_wronskian_quintic(HopfPair(z1, z2))
        return
    double_root = w.degree() == 2 and sympy.gcd(w, w.diff(T)).degree() == 1
    case = decompose_wronskian_quintic(HopfPair(z1, z2)).case
    assert (case == DecompositionCase.OMEGA_CONSTANT) == double_root


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
