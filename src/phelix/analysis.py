"""Differential-geometric analysis of a hodograph, all in exact arithmetic.

The central questions — is the speed a polynomial, is the cross-product norm
a polynomial, is the curve a helix — are decided as exact algebraic
identities on rational polynomials, never by sampling.

Every question reads the same four invariants of the hodograph, so they are
built once into an :class:`Invariants` record and each verdict reads that.

A helix is a curve whose tangent keeps a constant angle with a fixed axis u.
Away from lines and planar curves, the verdict reads only the axis
identities <u, alpha'>^2 = s |u|^2 sigma^2 and
<u, alpha' ^ alpha''>^2 = (1 - s) |u|^2 rho^2 for the one candidate u that
:func:`_extract_axis` takes, with s = slope^2.  Four facts make that the
whole test.

* The identities imply a helix.  With |u| = 1 they give <u, T>^2 = s and
  <u, B>^2 = 1 - s, so <u, N> = 0; differentiating <u, T> and <u, B> gives
  kappa <u, T> = tau <u, B>, so (tau/kappa)^2 = s / (1 - s) is constant.
  That is the lambda^2 that ``CurveAnalysis.lancret_ratio_squared`` reads
  off the slope.
* A helix passes the identities.  The candidate det sigma^2 alpha' +
  rho^2 (alpha' ^ alpha'') is sigma^3 rho^2 times the Darboux vector
  tau T + kappa B, which on a helix is a scalar times the axis.
* A helix is 2-PH, in any degree.  Lines and planar curves are decided
  first, so 0 < s < 1, and then sigma^2 = <u, alpha'>^2 / (s |u|^2) and
  rho^2 = <u, alpha' ^ alpha''>^2 / ((1 - s) |u|^2) are positive multiples
  of rational squares.  So :func:`analyze` treats a helix verdict beside a
  missing norm as an internal inconsistency.
* The scan never comes back empty.  alpha' is orthogonal to
  alpha' ^ alpha'', so off a line the candidate is not identically zero,
  and a scan of deg + 1 points finds a point where it is nonzero.

The verdict reads no square root, so every spec form takes the same test on
the same curve.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Tuple

from .curves import Hodograph
from .errors import (
    InternalInconsistencyError,
    LineDegeneracyError,
    NotRationalFrameError,
)
from .polynomials import (
    RatPoly,
    RationalFunction,
    ScaledSqrt,
    perfect_square_root,
    primitive_split,
    rational_sqrt,
)

Vec3 = Tuple


def _cross(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u: Vec3, v: Vec3):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


class Invariants(NamedTuple):
    """The hodograph invariants that every verdict reads.

    v is alpha', sigma_squared = <alpha', alpha'>, cross = alpha' ^ alpha'',
    rho_squared = <cross, cross> and det = <cross, alpha'''>, which is
    det(alpha', alpha'', alpha''').  All are exact rational polynomials.
    """

    v: Vec3
    sigma_squared: RatPoly
    cross: Vec3
    rho_squared: RatPoly
    det: RatPoly


def invariants(h: Hodograph) -> Invariants:
    """Build the invariants, taking each derivative and product once."""
    v = h.vector()
    a2 = tuple(c.derivative() for c in v)
    a3 = tuple(c.derivative() for c in a2)
    cross = _cross(v, a2)
    return Invariants(v, _dot(v, v), cross, _dot(cross, cross), _dot(cross, a3))


def norms(inv: Invariants) -> Tuple[Optional[ScaledSqrt], Optional[ScaledSqrt]]:
    """(sigma, rho): the real square roots of sigma^2 and rho^2, each None
    when its square is not the square of a real polynomial."""
    return perfect_square_root(inv.sigma_squared), perfect_square_root(inv.rho_squared)


class CrossNorm(NamedTuple):
    """|alpha' ^ alpha''|^2 together with its real square root when one exists."""

    rho_squared: RatPoly
    rho: Optional[ScaledSqrt]


class FrenetFrame(NamedTuple):
    """Exact Frenet frame data.

    The tangent entries are fully normalized rational functions (tangent dot
    tangent is exactly 1).  The binormal and normal are stored without the
    irrational factor 1/sqrt(frame_scale): their stored self-products equal
    frame_scale, and the true unit vectors are the stored ones divided by
    sqrt(frame_scale).
    """

    tangent: Tuple[RationalFunction, RationalFunction, RationalFunction]
    binormal: Tuple[RationalFunction, RationalFunction, RationalFunction]
    normal: Tuple[RationalFunction, RationalFunction, RationalFunction]
    frame_scale: Fraction


class HelixKind:
    LINE = "line"
    PLANAR = "planar"
    HELIX = "helix"
    NOT_HELIX = "not-helix"


class HelixVerdict(NamedTuple):
    """Outcome of the constant-slope test.

    For helices, slope_squared is the exact square of the cosine of the angle
    between tangent and axis, and axis is an integer-cleared direction vector
    that satisfies <axis, alpha'>^2 = slope_squared * |axis|^2 * sigma^2 as a
    polynomial identity.  Planar curves report their plane normal with slope
    zero; lines and non-helices carry no axis.
    """

    kind: str
    slope_squared: Optional[Fraction] = None
    axis: Optional[Tuple[Fraction, Fraction, Fraction]] = None


def cross_norm(h: Hodograph) -> CrossNorm:
    """|alpha' ^ alpha''|^2 via the literal cross product."""
    rho_squared = invariants(h).rho_squared
    return CrossNorm(rho_squared, perfect_square_root(rho_squared))


def is_ph(h: Hodograph) -> Optional[ScaledSqrt]:
    """The speed as a real polynomial if |alpha'|^2 is a perfect square."""
    return perfect_square_root(invariants(h).sigma_squared)


def is_2ph(h: Hodograph) -> Optional[Tuple[ScaledSqrt, ScaledSqrt]]:
    """(sigma, rho) when both norms are real-polynomial squares, else None."""
    sigma, rho = norms(invariants(h))
    return None if sigma is None or rho is None else (sigma, rho)


def _lancret_ratio(inv: Invariants) -> RationalFunction:
    s2, r2, det = inv.sigma_squared, inv.rho_squared, inv.det
    return RationalFunction(det * det * s2 * s2 * s2, r2 * r2 * r2)


def lancret_ratio_squared(h: Hodograph) -> RationalFunction:
    """(tau/kappa)^2 = det^2 * (sigma^2)^3 / (rho^2)^3, reduced."""
    inv = invariants(h)
    if inv.rho_squared.is_zero:
        raise LineDegeneracyError("curvature vanishes identically (straight line)")
    return _lancret_ratio(inv)


def _scan_points(n: int) -> Iterator[Fraction]:
    """The first n points of 0, 1, -1, 2, -2, ..., one at a time; they are distinct."""
    for k in range(n):
        yield Fraction((k + 1) // 2 if k % 2 else -(k // 2))


def helix_verdict(inv: Invariants) -> HelixVerdict:
    """Constant-slope classification from the invariants of a hodograph: off
    lines and planar curves, a helix exactly when the axis identities hold."""
    if inv.rho_squared.is_zero:
        return HelixVerdict(HelixKind.LINE)
    axis = _extract_axis(inv)
    slope = _verify_axis(axis, inv)
    if inv.det.is_zero:
        if slope is None:
            raise InternalInconsistencyError("axis identities failed")
        return HelixVerdict(HelixKind.PLANAR, slope, axis)
    if slope is None:
        return HelixVerdict(HelixKind.NOT_HELIX)
    return HelixVerdict(HelixKind.HELIX, slope, axis)


def is_helix(h: Hodograph) -> HelixVerdict:
    """Constant-slope classification of an arbitrary polynomial hodograph."""
    return helix_verdict(invariants(h))


def _integer_cleared(values) -> Tuple[Fraction, ...]:
    """The coprime integer direction of values whose first nonzero entry is positive."""
    _, ints = primitive_split(values[::-1])
    return tuple(Fraction(v) for v in reversed(ints))


def _proportionality(num: RatPoly, den: RatPoly) -> Optional[Fraction]:
    """lambda with num = lambda * den as polynomials, or None."""
    if num.is_zero:
        return Fraction(0)
    if den.is_zero or num.degree != den.degree:
        return None
    lam = num.leading_coefficient / den.leading_coefficient
    return lam if num == lam * den else None


def _verify_axis(axis, inv: Invariants) -> Optional[Fraction]:
    """Slope^2 when the axis identities hold exactly, else None.

    The identities are <u, alpha'>^2 = slope^2 |u|^2 sigma^2 and
    <u, alpha' ^ alpha''>^2 = (1 - slope^2) |u|^2 rho^2, both as zero
    polynomials.
    """
    axis_norm2 = sum(a * a for a in axis)
    tangent_proj = _dot(axis, inv.v)
    slope = _proportionality(tangent_proj * tangent_proj, axis_norm2 * inv.sigma_squared)
    if slope is None:
        return None
    binormal_proj = _dot(axis, inv.cross)
    residual = (
        binormal_proj * binormal_proj - (1 - slope) * axis_norm2 * inv.rho_squared
    )
    return slope if residual.is_zero else None


def _degree_bound(vec) -> int:
    return max((p.degree for p in vec if not p.is_zero), default=0)


def _extract_axis(inv: Invariants) -> Tuple[Fraction, Fraction, Fraction]:
    """The axis candidate: the only direction that can be the constant axis.

    The axis is the Darboux direction tau*t + kappa*b, scaled by
    sigma^3 * rho^2 so that the vector reads det * sigma^2 * alpha' +
    rho^2 * (alpha' ^ alpha'') — a rational polynomial vector that is a scalar
    polynomial times the constant direction; on a planar curve det = 0 and it
    is the plane normal times rho^2 = |alpha' ^ alpha''|^2.  Its value at any
    parameter where it does not vanish is therefore the axis, assembled from
    the values of its factors, and the axis identities make that exact.
    The vector has degree at most deg, so unless it vanishes identically it
    is nonzero at one of any deg + 1 distinct points.
    """
    v, c = inv.v, inv.cross
    det, s2, r2 = inv.det, inv.sigma_squared, inv.rho_squared
    deg = max(
        _degree_bound((det,)) + s2.degree + _degree_bound(v),
        r2.degree + _degree_bound(c),
    )
    for t in _scan_points(deg + 1):
        det_s2 = det.evaluate(t) * s2.evaluate(t)
        r2_t = r2.evaluate(t)
        values = tuple(det_s2 * p.evaluate(t) + r2_t * q.evaluate(t) for p, q in zip(v, c))
        if any(values):
            return _integer_cleared(values)
    raise InternalInconsistencyError("axis candidate vector vanished identically")


def frenet_frame(analysis: CurveAnalysis) -> FrenetFrame:
    """Exact Frenet frame for a 2-PH hodograph, from its analysis.

    Requires the speed's square-root scale to be a perfect rational square so
    the tangent can be written with rational entries; quaternion-generated
    curves always satisfy this (their speed is itself a rational polynomial).
    """
    sigma, rho = analysis.sigma, analysis.rho
    if sigma is None or rho is None:
        raise NotRationalFrameError(
            "Frenet frame entries are rational only for 2-PH curves"
        )
    if rho.is_zero:
        raise LineDegeneracyError("Frenet frame undefined along a straight line")
    sigma_root = rational_sqrt(sigma.scale)
    if sigma_root is None:
        raise NotRationalFrameError(
            "speed carries an irrational constant factor; tangent entries "
            "would not be rational"
        )
    speed = sigma_root * sigma.body
    inv = analysis.invariants
    tangent = tuple(RationalFunction(p, speed) for p in inv.v)
    binormal = tuple(RationalFunction(p, rho.body) for p in inv.cross)
    # binormal x tangent, taken on the numerators: one quotient per entry
    normal_den = rho.body * speed
    normal = tuple(RationalFunction(p, normal_den) for p in _cross(inv.cross, inv.v))
    return FrenetFrame(tangent, binormal, normal, rho.scale)


class CurveAnalysis(NamedTuple):
    """Everything the analyze pipeline computes for one hodograph."""

    invariants: Invariants
    sigma: Optional[ScaledSqrt]
    rho: Optional[ScaledSqrt]
    verdict: HelixVerdict

    @property
    def is_ph(self) -> bool:
        return self.sigma is not None

    @property
    def is_2ph(self) -> bool:
        return self.sigma is not None and self.rho is not None

    @property
    def lancret_ratio_squared(self) -> Optional[RationalFunction]:
        """(tau/kappa)^2 reduced, or None along a straight line.

        The verdict has already proved the ratio constant on a helix: it is
        lambda^2 = s / (1 - s) for the slope^2 s, and 0 on a planar curve.
        Only a non-helix reduces det^2 * (sigma^2)^3 / (rho^2)^3, on each
        read, since that reduction dominates a non-helix analysis.
        """
        v = self.verdict
        if v.kind == HelixKind.LINE:
            return None
        if v.kind == HelixKind.HELIX:
            s = v.slope_squared
            return RationalFunction.constant(s / (1 - s))
        if v.kind == HelixKind.PLANAR:
            return RationalFunction.constant(0)
        return _lancret_ratio(self.invariants)


def analyze(h: Hodograph) -> CurveAnalysis:
    """Run every analysis that is defined for the input and bundle the results."""
    inv = invariants(h)
    sigma, rho = norms(inv)
    verdict = helix_verdict(inv)
    if verdict.kind == HelixKind.HELIX and (sigma is None or rho is None):
        # a helix is 2-PH in any degree (module docstring)
        raise InternalInconsistencyError("helix verdict on a curve that is not 2-PH")
    return CurveAnalysis(inv, sigma, rho, verdict)
