"""Quintic helix classification via the Wronskian of the Hopf pair.

For a quintic curve the Hopf polynomials z1, z2 are quadratics and their
Wronskian W = z1'*z2 - z1*z2' has degree at most two.  W factors as a real
polynomial omega times the square of a complex polynomial exactly when the
cross-product norm is a real polynomial, and for quadratic W only two shapes
are possible: omega constant with z linear (these are the curves whose z1 and
z2 share a linear factor — the "monotone" family), or z constant with omega
carrying the full degree (the "general" family, whose defining quaternions
are linearly dependent).  A quintic is a constant-slope curve precisely when
one of the two decompositions exists; the classifier checks that equivalence
at runtime on every input instead of assuming it.

Canonical decomposition: omega is normalized to integer coefficients with
content 1 and positive leading coefficient, and every residual constant is
folded into z^2.  z itself is never materialized — its coefficients live in a
quadratic extension in general — so squareness of z^2 is checked structurally
(a constant, or a quadratic with zero discriminant).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple, Union

from .analysis import CurveAnalysis, HelixKind, analyze, is_helix
from .curves import (
    HopfPair,
    Quaternion,
    QuaternionPolynomial,
    hodograph_from_hopf,
    hopf_from_quaternion,
    quaternion_from_hopf,
)
from .errors import (
    DegenerateInputError,
    InternalInconsistencyError,
    UnsupportedDegreeError,
)
from .polynomials import GaussPoly, GaussianRational, RatPoly, wronskian

QUINTIC_MAX_DEGREE = 2

CurveInput = Union[QuaternionPolynomial, HopfPair]
# a quaternion coefficient, or its integer parts (w, x, y, z) over a denominator
QuaternionParts = Union[Quaternion, Tuple[int, int, int, int]]


class DecompositionCase:
    OMEGA_CONSTANT = "omega-constant"
    Z_CONSTANT = "z-constant"
    BOTH_CONSTANT = "both-constant"
    DEGENERATE = "degenerate"


class WronskianDecomposition(NamedTuple):
    """W = omega * z_squared in canonical form; fields are None when no
    decomposition exists (the degenerate case)."""

    case: str
    omega: Optional[RatPoly]
    z_squared: Optional[GaussPoly]

    @property
    def exists(self) -> bool:
        return self.case != DecompositionCase.DEGENERATE


class QuinticKind:
    MONOTONE_HELIX = "monotone-helix"
    GENERAL_HELIX = "general-helix"
    NOT_HELIX = "not-helix"
    DEGENERATE = "degenerate"


class DependenceSolution(NamedTuple):
    """Solution of A1 = c0*A0 + c2*A2; degenerate means A0, A2 were linearly
    dependent themselves and the returned pair is one of many."""

    c0: Fraction
    c2: Fraction
    degenerate: bool = False


class QuinticClass(NamedTuple):
    kind: str
    dependence: Optional[DependenceSolution] = None
    shared_factor: Optional[GaussPoly] = None
    reason: Optional[str] = None


class ConstantZParameters(NamedTuple):
    """Branch-free rotation/weight parameters of the constant-z decomposition.

    With N = ay*c + az*cx - a*cy - ax*cz and D = az*c - ay*cx + ax*cy - a*cz
    (built from the degree-0 and degree-2 quaternions), the half-angle of the
    unit constant z satisfies tan(2*theta) = N/D and the Wronskian's linear
    coefficient has squared magnitude m1^2 = 4*(N^2 + D^2).  The quadratic
    weights are exposed as the rational ratios m0/m1 and m2/m1 read off the
    canonical omega (m1 itself is irrational in general); they exist only
    when omega has a nonzero linear coefficient.
    """

    tan_two_theta: Optional[Fraction]
    m1_squared: Fraction
    m0_over_m1: Optional[Fraction] = None
    m2_over_m1: Optional[Fraction] = None


class ClassificationReport(NamedTuple):
    """Full two-route verdict for one quintic (or lower-degree) curve; analysis
    is the slope route's, the other fields are the Wronskian route's."""

    analysis: CurveAnalysis
    wronskian: GaussPoly
    decomposition: Optional[WronskianDecomposition]
    quintic_class: QuinticClass

    @property
    def is_helix(self) -> bool:
        return self.analysis.verdict.kind in (HelixKind.HELIX, HelixKind.PLANAR)


def _check_degrees(pair: HopfPair) -> None:
    if pair.degree > QUINTIC_MAX_DEGREE:
        raise UnsupportedDegreeError(
            "quintic casework needs Hopf polynomials of degree at most "
            f"{QUINTIC_MAX_DEGREE}, got degree {pair.degree}"
        )


def decompose_wronskian_quintic(
    pair: HopfPair, w: Optional[GaussPoly] = None
) -> WronskianDecomposition:
    """Casework on W = z1'*z2 - z1*z2' for quadratic-or-lower Hopf pairs.

    w, when given, must be that Wronskian; it is built here otherwise.
    Raises DegenerateInputError when W vanishes identically (z1 and z2
    proportional, i.e. a straight tangent direction).
    """
    _check_degrees(pair)
    if w is None:
        w = wronskian(pair.z1, pair.z2)
    if w.is_zero:
        raise DegenerateInputError(
            "Wronskian vanishes identically: the Hopf pair is proportional"
        )
    if w.degree == 0:
        return WronskianDecomposition(
            DecompositionCase.BOTH_CONSTANT, RatPoly.one(), w
        )

    # W = c (t - r)^2 exactly when t - r divides z1 and z2 (see
    # monotone_test), so a square W is always the shared-factor reading
    square_split = _constant_square_split(w)
    if square_split is not None:
        return _checked(DecompositionCase.OMEGA_CONSTANT, square_split, w)
    real_split = _real_proportional_split(w)
    if real_split is not None:
        return _checked(DecompositionCase.Z_CONSTANT, real_split, w)
    return WronskianDecomposition(DecompositionCase.DEGENERATE, None, None)


def _checked(
    case: str, split: Tuple[RatPoly, GaussPoly], w: GaussPoly
) -> WronskianDecomposition:
    omega, z_squared = split
    if omega * z_squared != w:
        raise InternalInconsistencyError("Wronskian decomposition does not multiply back")
    return WronskianDecomposition(case, omega, z_squared)


def _real_proportional_split(w: GaussPoly) -> Optional[Tuple[RatPoly, GaussPoly]]:
    """W as (complex constant) * (real polynomial), canonicalized.

    W / lead is real exactly when lead.re * W.im = lead.im * W.re.  It is
    then the monic real polynomial omega / omega's leading coefficient, so
    the constant is lead / omega's leading coefficient.
    """
    lead = w.leading_coefficient
    if lead.re * w.im != lead.im * w.re:
        return None
    _, omega = (w.re if lead.re else w.im).primitive_positive()
    return omega, GaussPoly([lead / omega.leading_coefficient])


def _constant_square_split(w: GaussPoly) -> Optional[Tuple[RatPoly, GaussPoly]]:
    """W as 1 * (square of a linear complex polynomial): a double root."""
    if _double_root(*w._gaussian_integers(3)) is None:
        return None
    return RatPoly.one(), w


GaussianInteger = Tuple[int, int]


def _gauss_mul(a: GaussianInteger, b: GaussianInteger) -> GaussianInteger:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _minor(a, b, j: int, k: int) -> GaussianInteger:
    """a_j b_k - a_k b_j."""
    x, y = _gauss_mul(a[j], b[k]), _gauss_mul(a[k], b[j])
    return (x[0] - y[0], x[1] - y[1])


def _double_root(
    c0: GaussianInteger, c1: GaussianInteger, c2: GaussianInteger
) -> Optional[Tuple[GaussianInteger, GaussianInteger]]:
    """(p, q) with c2 t^2 + c1 t + c0 = c2 (t - p/q)^2 and c2 != 0, else None.

    The test c1^2 = 4 c0 c2 is homogeneous, so the Gaussian integers may
    carry any common nonzero factor.
    """
    x, y = _gauss_mul(c0, c2)
    if c2 == (0, 0) or _gauss_mul(c1, c1) != (4 * x, 4 * y):
        return None
    return (-c1[0], -c1[1]), (2 * c2[0], 2 * c2[1])


def _vanishes_at(c, p2: GaussianInteger, pq: GaussianInteger, q2: GaussianInteger) -> bool:
    """c0 + c1 r + c2 r^2 = 0 at r = p/q, as c2 p^2 + c1 pq + c0 q^2 = 0."""
    terms = (_gauss_mul(c[2], p2), _gauss_mul(c[1], pq), _gauss_mul(c[0], q2))
    return not any(map(sum, zip(*terms)))


def monotone_test(pair: HopfPair) -> Optional[GaussPoly]:
    """The non-constant monic gcd of (z1, z2) when one exists.

    With W = z1'z2 - z1z2' not identically zero, t - r divides both z1 and
    z2 exactly when W = c (t - r)^2 with c != 0.  One way,
    W = (t - r)^2 (u'v - uv') with u, v of degree at most one.  The other:
    f = z2(r) z1 - z1(r) z2 has f(r) = 0, f'(r) = W(r) = 0 and
    f''(r) = W'(r) = 0, so f = 0, and z1(r), z2(r) not both zero would make
    the pair proportional.  W's coefficients are 2x2 minors of the pair's
    coefficients a, b; all of them vanish for a proportional pair, whose gcd
    is its nonzero member made monic.

    a and b are read as Gaussian integers, each over one common
    denominator.  That scales every minor by the same factor, and the
    minors, the double-root test and the root check at r = p/q, read as
    c2 p^2 + c1 pq + c0 q^2 = 0, are all homogeneous, so none of them
    divides.  Only a shared root is built as a Gaussian rational.
    """
    _check_degrees(pair)
    a, b = pair.z1._gaussian_integers(3), pair.z2._gaussian_integers(3)
    w0, w2 = _minor(a, b, 1, 0), _minor(a, b, 2, 1)
    w1 = tuple(2 * v for v in _minor(a, b, 2, 0))
    if w0 == w1 == w2 == (0, 0):
        z = pair.z2 if pair.z1.is_zero else pair.z1
        return z.monic() if z.degree else None
    root = _double_root(w0, w1, w2)
    if root is None:
        return None
    p, q = root
    p2, pq, q2 = _gauss_mul(p, p), _gauss_mul(p, q), _gauss_mul(q, q)
    if not (_vanishes_at(a, p2, pq, q2) and _vanishes_at(b, p2, pq, q2)):
        return None
    r = GaussianRational(*p) / GaussianRational(*q)
    return GaussPoly([-r, GaussianRational(1)])


def quaternion_dependence(
    a0: QuaternionParts, a1: QuaternionParts, a2: QuaternionParts
) -> Optional[DependenceSolution]:
    """Exact solution of the four-equation system A1 = c0*A0 + c2*A2.

    Each coefficient is a Quaternion or its parts (w, x, y, z).  Each
    equation is homogeneous, so integer parts over one common denominator
    give the same solution; a candidate c = n / det is checked on every
    equation times det, so only the solution itself is divided out.
    Returns None when the system is inconsistent.  When A0 and A2 are
    linearly dependent the solution is not unique; one consistent pair is
    returned with the degenerate flag set.
    """
    rows = list(zip(*(a.components() if isinstance(a, Quaternion) else a for a in (a0, a2, a1))))
    # find a 2x2 invertible minor
    for i in range(4):
        for j in range(i + 1, 4):
            p0, q0, r0 = rows[i]
            p1, q1, r1 = rows[j]
            det = p0 * q1 - p1 * q0
            if det:
                n0, n2 = r0 * q1 - r1 * q0, p0 * r1 - p1 * r0
                if any(p * n0 + q * n2 != r * det for p, q, r in rows):
                    return None
                return DependenceSolution(Fraction(n0, det), Fraction(n2, det))
    # A0, A2 linearly dependent: try expressing A1 along whichever is nonzero
    for pick in (0, 1):
        base = [row[pick] for row in rows]
        if not any(base):
            continue
        k = next(i for i, b in enumerate(base) if b)
        if any(row[pick] * rows[k][2] != row[2] * base[k] for row in rows):
            return None
        coeff = Fraction(rows[k][2], base[k])
        if pick == 0:
            return DependenceSolution(coeff, Fraction(0), True)
        return DependenceSolution(Fraction(0), coeff, True)
    # A0 = A2 = 0: consistent only for A1 = 0
    if not any(row[2] for row in rows):
        return DependenceSolution(Fraction(0), Fraction(0), True)
    return None


def _quadratic_coefficients(a: QuaternionPolynomial) -> Tuple[int, List[QuaternionParts]]:
    """(den, [A0, A1, A2]), each coefficient's parts as integers over den."""
    if (a.degree or 0) > QUINTIC_MAX_DEGREE:
        raise UnsupportedDegreeError(
            f"expected a quaternion polynomial of degree at most 2, got {a.degree}"
        )
    return a._integer_coefficients(3)


def constant_z_parameters(a: QuaternionPolynomial) -> ConstantZParameters:
    """Rotation and weight parameters of the constant-z route for a quadratic."""
    den, (a0, _, a2) = _quadratic_coefficients(a)
    w0, x0, y0, z0 = a0
    w2, x2, y2, z2 = a2
    # integer parts over den: n and d carry den^2
    n = y0 * w2 + z0 * x2 - w0 * y2 - x0 * z2
    d = z0 * w2 - y0 * x2 + x0 * y2 - w0 * z2
    tan_two_theta = None if not d else Fraction(n, d)
    m1_squared = Fraction(4 * (n * n + d * d), den**4)

    m0_over_m1 = m2_over_m1 = None
    try:
        dec = decompose_wronskian_quintic(hopf_from_quaternion(a))
    except DegenerateInputError:
        dec = None
    if (
        dec is not None
        and dec.case in (DecompositionCase.Z_CONSTANT, DecompositionCase.BOTH_CONSTANT)
        and dec.omega.coefficient(1)
    ):
        omega = dec.omega
        m0_over_m1 = omega.coefficient(0) / omega.coefficient(1)
        m2_over_m1 = omega.coefficient(2) / omega.coefficient(1)
    return ConstantZParameters(tan_two_theta, m1_squared, m0_over_m1, m2_over_m1)


def classify_quintic(curve: CurveInput) -> ClassificationReport:
    """Classify a quintic (or lower-degree) PH curve by both routes.

    The algebraic route decomposes the Wronskian and maps the case to the
    monotone/general families; the analytic route runs the constant-slope
    test on the hodograph.  The two must agree — a decomposable Wronskian if
    and only if both norms are polynomial if and only if the slope test says
    helix (or planar) — and any disagreement raises
    InternalInconsistencyError rather than returning a report.
    """
    if isinstance(curve, QuaternionPolynomial):
        pair = hopf_from_quaternion(curve)
    elif isinstance(curve, HopfPair):
        pair = curve
    else:
        raise TypeError(f"expected a quaternion polynomial or Hopf pair, got {curve!r}")
    _check_degrees(pair)

    w = wronskian(pair.z1, pair.z2)
    analysis = analyze(hodograph_from_hopf(pair))

    if w.is_zero:
        return ClassificationReport(
            analysis=analysis,
            wronskian=w,
            decomposition=None,
            quintic_class=QuinticClass(
                QuinticKind.DEGENERATE,
                reason="proportional Hopf pair: the tangent direction is constant",
            ),
        )

    decomposition = decompose_wronskian_quintic(pair, w)
    quintic_class = _route_case(decomposition, pair)

    report = ClassificationReport(analysis, w, decomposition, quintic_class)
    decomposable = decomposition.exists
    if decomposable != analysis.is_2ph:
        raise InternalInconsistencyError(
            "Wronskian decomposability disagrees with the polynomial-norm test"
        )
    if decomposable != report.is_helix:
        raise InternalInconsistencyError(
            "algebraic classification disagrees with the constant-slope test"
        )
    return report


def _route_case(decomposition: WronskianDecomposition, pair: HopfPair) -> QuinticClass:
    if not decomposition.exists:
        return QuinticClass(QuinticKind.NOT_HELIX)
    shared = monotone_test(pair)
    # the casework reads the polynomial W, monotone_test the coefficients of
    # z1 and z2; omega is constant exactly when z1 and z2 share a factor
    if (decomposition.case == DecompositionCase.OMEGA_CONSTANT) != (shared is not None):
        raise InternalInconsistencyError(
            "constant-omega decomposition without a shared Hopf factor"
            if shared is None
            else f"shared Hopf factor with a {decomposition.case} decomposition"
        )
    if shared is not None:
        return QuinticClass(QuinticKind.MONOTONE_HELIX, shared_factor=shared)
    _, coefficients = _quadratic_coefficients(quaternion_from_hopf(pair))
    dependence = quaternion_dependence(*coefficients)
    # dependence can legitimately be absent when the Wronskian's linear
    # coefficient vanishes (m1 = 0); the curve is still a helix
    return QuinticClass(QuinticKind.GENERAL_HELIX, dependence=dependence)


# ---------------------------------------------------------------------------
# generators for the two helix families
# ---------------------------------------------------------------------------

_MAX_ATTEMPTS = 1000


def random_fraction(rng: random.Random, height: int) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def random_gaussian(rng: random.Random, height: int) -> GaussianRational:
    return GaussianRational(random_fraction(rng, height), random_fraction(rng, height))


def _nonzero_gaussian(rng: random.Random, height: int) -> GaussianRational:
    while True:
        g = random_gaussian(rng, height)
        if g:
            return g


def random_quaternion(rng: random.Random, height: int) -> Quaternion:
    return Quaternion(*(random_fraction(rng, height) for _ in range(4)))


def _linear_factor(root: GaussianRational) -> GaussPoly:
    return GaussPoly([-root, GaussianRational(1)])


def generate_monotone_quintic(rng: random.Random, height: int) -> HopfPair:
    """A Hopf pair z1 = a(t-r)(t-r2), z2 = b(t-r)(t-r4) with a shared root.

    The parameters are height-bounded rationals, drawn in the order r, r2,
    r4, a, b; a and b are nonzero.  A sample whose slope verdict is not a
    helix is redrawn: r2 = r4 makes the pair proportional and the curve a
    line, and a planar sample is no helix of this family either.
    """
    for _ in range(_MAX_ATTEMPTS):
        r, r2, r4 = (random_gaussian(rng, height) for _ in range(3))
        a, b = _nonzero_gaussian(rng, height), _nonzero_gaussian(rng, height)
        shared = _linear_factor(r)
        pair = HopfPair(
            GaussPoly([a]) * shared * _linear_factor(r2),
            GaussPoly([b]) * shared * _linear_factor(r4),
        )
        if is_helix(hodograph_from_hopf(pair)).kind == HelixKind.HELIX:
            return pair
    raise DegenerateInputError("could not sample a monotone helix")


def generate_general_quintic(rng: random.Random, height: int) -> QuaternionPolynomial:
    """A quadratic quaternion polynomial with A1 = c0*A0 + c2*A2.

    A0, A2, c0 and c2 are height-bounded rationals, drawn in that order.  The
    zero polynomial and a sample whose slope verdict is not a helix are
    redrawn; a vanishing Wronskian makes the curve a line.
    """
    for _ in range(_MAX_ATTEMPTS):
        q0, q2 = random_quaternion(rng, height), random_quaternion(rng, height)
        k0, k2 = random_fraction(rng, height), random_fraction(rng, height)
        quat = QuaternionPolynomial([q0, k0 * q0 + k2 * q2, q2])
        if quat.is_zero:
            continue
        h = hodograph_from_hopf(hopf_from_quaternion(quat))
        if is_helix(h).kind == HelixKind.HELIX:
            return quat
    raise DegenerateInputError("could not sample a general helix")
