"""Differential test of the constant-slope verdict against sympy.

is_helix decides constancy of (tau/kappa)^2 = det^2 sigma^6 / rho^6 by
degrees, the identity at t = 0 on the constant coefficients, and then the
identity det^2 sigma^6 = lambda rho^6 itself, with lambda read off the
leading coefficients.  sympy decides the same question by building the
invariants itself and cancelling the quotient: the verdict is helix or
planar exactly when the cancelled quotient is a constant.  The oracle
always cancels det^2 sigma^6 / rho^6 whole.

Hodographs go up to degree 7.  A hodograph times t keeps (tau/kappa)^2 but
has no constant terms, so the check at t = 0 passes and every such draw
that survives the degree check is decided by the full identity: on the
Hopf map of a pair, where sigma^2 divides rho^2, and on almost every other
hodograph, where it does not.
"""

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from conftest import gauss_rationals, quaternions, rationals, times_t
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
    invariants,
    is_helix,
)

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")


def polys(min_size):
    return st.lists(rationals, min_size=min_size, max_size=8).map(RatPoly)


def exact_degree(degree):
    return st.builds(
        lambda low, top: RatPoly(low + [top]),
        st.lists(rationals, min_size=degree, max_size=degree),
        rationals.filter(bool),
    )


# degree at most 7 in each component; the minimum sizes keep hypothesis from
# drawing mostly constant (straight-line) hodographs
arbitrary = st.tuples(polys(3), polys(2), polys(0))
planar = st.tuples(polys(2), polys(1), st.just(RatPoly()))
# PH hodographs of degree 2 to 6, from quaternion polynomials of degree 1 to
# 3; every PH cubic curve (a linear quaternion polynomial) is a helix
ph_hodographs = (
    st.lists(quaternions, min_size=2, max_size=4)
    .map(QuaternionPolynomial)
    .filter(lambda a: not a.is_zero)
    .map(lambda a: hodograph_from_quaternion(a).vector())
)
# degrees (n, n - 1, n - 2) pass the degree check, and almost none is PH
balanced = st.integers(2, 7).flatmap(
    lambda n: st.tuples(*(exact_degree(d) for d in (n, n - 1, n - 2)))
)


def hodographs_of(*vectors):
    return (
        st.one_of(*vectors)
        .filter(lambda v: any(not p.is_zero for p in v))
        .map(lambda v: Hodograph(*v))
    )


hodographs = hodographs_of(arbitrary, planar, ph_hodographs)


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


# draws times t, so the point check cannot decide them and the full
# identity must; the balanced share is where sigma^2 does not divide rho^2
identity_draws = st.one_of(
    hodographs_of(balanced), hodographs, hopf_pairs.map(hodograph_from_hopf)
).map(times_t)


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


# sympy's cancellation dominates, at up to 0.3 s per draw of degree 8; these
# bounds keep the file well under 15 s
@settings(max_examples=40)
@given(hodographs)
def test_verdict_matches_sympy_constancy(h):
    assert_matches_sympy(h, is_helix(h).kind)


@settings(max_examples=25)
@given(hopf_pairs)
def test_wronskian_route_matches_sympy_constancy(pair):
    h = hodograph_from_hopf(pair)
    assert_matches_sympy(h, is_helix(h).kind)


@settings(max_examples=40)
@given(identity_draws)
# degrees (2, 1, 0): the degree check passes and sigma^2 does not divide rho^2
@example(times_t(Hodograph(RatPoly([1, 2, 3]), RatPoly([4, 5]), RatPoly([6]))))
def test_identity_matches_sympy_constancy(h):
    inv = invariants(h)
    assert not any(p.coefficient(0) for p in (inv.det, inv.sigma_squared, inv.rho_squared))
    assert_matches_sympy(h, is_helix(h).kind)
