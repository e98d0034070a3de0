"""Differential test of the constant-slope verdict against sympy.

is_helix decides constancy of (tau/kappa)^2 = det^2 sigma^6 / rho^6 by
degrees, trial points and one exact polynomial identity.  sympy decides
the same question by building the invariants itself and cancelling the
quotient: the verdict is helix or planar exactly when the cancelled
quotient is a constant.
"""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import quaternions, rationals
from phelix import (
    HelixKind,
    Hodograph,
    QuaternionPolynomial,
    RatPoly,
    hodograph_from_quaternion,
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


@given(hodographs)
def test_verdict_matches_sympy_constancy(h):
    ratio = sympy_ratio(h)
    kind = is_helix(h).kind
    if ratio is None:
        assert kind == HelixKind.LINE
        return
    constant = all(sympy.Poly(part, T).degree() <= 0 for part in ratio[1:])
    assert constant == (kind in (HelixKind.HELIX, HelixKind.PLANAR))
