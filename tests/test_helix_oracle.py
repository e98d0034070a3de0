"""Differential test of the constant-slope verdict against sympy.

is_helix decides constancy of (tau/kappa)^2 = det^2 sigma^6 / rho^6 by
degrees, trial points and one exact polynomial identity.  sympy decides
the same question by building the invariants itself and cancelling the
quotient: the verdict is helix or planar exactly when the cancelled
quotient is a constant.  On the Hopf map of a pair, sigma^2 divides rho^2,
so is_helix decides constancy on det^2 = lambda q^3 for q = rho^2 / sigma^2;
the oracle still cancels det^2 sigma^6 / rho^6 whole.
"""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import gauss_rationals, quaternions, rationals
from phelix import (
    GaussPoly,
    HelixKind,
    Hodograph,
    HopfPair,
    QuaternionPolynomial,
    RatPoly,
    hodograph_from_hopf,
    hodograph_from_quaternion,
    hopf_from_quaternion,
    is_helix,
)

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")


def polys(min_size):
    return st.lists(rationals, min_size=min_size, max_size=4).map(RatPoly)


# degree at most 3 in each component; the minimum sizes keep hypothesis from
# drawing mostly constant (straight-line) hodographs
arbitrary = st.tuples(polys(3), polys(2), polys(0))
planar = st.tuples(polys(2), polys(1), st.just(RatPoly()))
# every PH cubic (a linear quaternion polynomial) is a helix
ph_cubics = (
    st.lists(quaternions, min_size=2, max_size=2)
    .map(QuaternionPolynomial)
    .filter(lambda a: not a.is_zero)
    .map(lambda a: hodograph_from_quaternion(a).vector())
)
hodographs = (
    st.one_of(arbitrary, planar, ph_cubics)
    .filter(lambda v: any(not p.is_zero for p in v))
    .map(lambda v: Hodograph(*v))
)


# Hopf pairs of degree at most 3: random ones, and helices — every degree-1
# pair, the monotone (shared linear factor) and general (A1 = c0*A0 + c2*A2)
# quintic families, and a helical pair times a common real linear factor
nonzero_gauss = gauss_rationals.filter(bool)
linear = gauss_rationals.map(lambda r: GaussPoly([-r, 1]))
random_pairs = (
    st.tuples(
        st.lists(gauss_rationals, min_size=2, max_size=4).map(GaussPoly),
        st.lists(gauss_rationals, min_size=1, max_size=4).map(GaussPoly),
    )
    .filter(lambda zs: not zs[0].is_zero or not zs[1].is_zero)
    .map(lambda zs: HopfPair(*zs))
)
monotone_pairs = st.builds(
    lambda a, b, s, r2, r4: HopfPair(GaussPoly([a]) * s * r2, GaussPoly([b]) * s * r4),
    nonzero_gauss,
    nonzero_gauss,
    linear,
    linear,
    linear,
)
general_pairs = st.builds(
    lambda a0, a2, c0, c2: QuaternionPolynomial([a0, c0 * a0 + c2 * a2, a2]),
    quaternions,
    quaternions,
    rationals,
    rationals,
).filter(lambda a: not a.is_zero).map(hopf_from_quaternion)
helical_pairs = st.one_of(
    random_pairs.filter(lambda p: p.degree == 1), monotone_pairs, general_pairs
)
scaled_pairs = st.builds(
    lambda pair, c: HopfPair(GaussPoly([c, 1]) * pair.z1, GaussPoly([c, 1]) * pair.z2),
    st.one_of(random_pairs.filter(lambda p: p.degree <= 2), helical_pairs),
    rationals,
)
hopf_pairs = st.one_of(random_pairs, helical_pairs, scaled_pairs)


def to_sympy(p: RatPoly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], T, domain="QQ")


def sympy_ratio(h: Hodograph):
    """det^2 sigma^6 / rho^6 cancelled to (num, den), or None for a line."""
    v = [to_sympy(p) for p in h.vector()]
    a2 = [p.diff(T) for p in v]
    a3 = [p.diff(T) for p in a2]
    cross = [
        v[1] * a2[2] - v[2] * a2[1],
        v[2] * a2[0] - v[0] * a2[2],
        v[0] * a2[1] - v[1] * a2[0],
    ]
    rho2 = sum((c * c for c in cross), to_sympy(RatPoly()))
    if rho2.is_zero:
        return None
    s2 = sum((p * p for p in v), to_sympy(RatPoly()))
    det = sum((c * p for c, p in zip(cross, a3)), to_sympy(RatPoly()))
    return sympy.cancel((det**2 * s2**3, rho2**3))


def assert_matches_sympy(h: Hodograph, kind: str) -> None:
    ratio = sympy_ratio(h)
    if ratio is None:
        assert kind == HelixKind.LINE
        return
    constant = all(sympy.Poly(part, T).degree() <= 0 for part in ratio[1:])
    assert constant == (kind in (HelixKind.HELIX, HelixKind.PLANAR))


@given(hodographs)
def test_verdict_matches_sympy_constancy(h):
    assert_matches_sympy(h, is_helix(h).kind)


# sympy's cancellation dominates at degree 3; this bound keeps the test to a
# few seconds
@settings(max_examples=25)
@given(hopf_pairs)
def test_wronskian_route_matches_sympy_constancy(pair):
    h = hodograph_from_hopf(pair)
    assert_matches_sympy(h, is_helix(h).kind)
