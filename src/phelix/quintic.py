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
from typing import NamedTuple, Optional, Tuple, Union

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
from .polynomials import (
    GaussPoly,
    GaussianRational,
    RatPoly,
    poly_gcd,
    wronskian,
)

QUINTIC_MAX_DEGREE = 2

CurveInput = Union[QuaternionPolynomial, HopfPair]


class DecompositionCase:
    OMEGA_CONSTANT = "omega-constant"
    Z_CONSTANT = "z-constant"
    BOTH_CONSTANT = "both-constant"
    DEGENERATE = "degenerate"


class WronskianDecomposition(NamedTuple):
    """W = omega * z_squared in canonical form; fields are None when no
    decomposition exists (the degenerate case).  hopf_gcd is gcd(z1, z2)
    when the casework took it to choose between two readings, else None."""

    case: str
    omega: Optional[RatPoly]
    z_squared: Optional[GaussPoly]
    hopf_gcd: Optional[GaussPoly] = None

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

    real_split = _real_proportional_split(w)
    square_split = _constant_square_split(w)

    if real_split is not None and square_split is not None:
        # both decompositions exist; prefer the shared-factor reading when
        # there is one so the monotone characterization stays an equivalence
        shared = poly_gcd(pair.z1, pair.z2)
        if _nonconstant(shared) is None:
            return _checked(DecompositionCase.Z_CONSTANT, real_split, w, shared)
        return _checked(DecompositionCase.OMEGA_CONSTANT, square_split, w, shared)
    if square_split is not None:
        return _checked(DecompositionCase.OMEGA_CONSTANT, square_split, w)
    if real_split is not None:
        return _checked(DecompositionCase.Z_CONSTANT, real_split, w)
    return WronskianDecomposition(DecompositionCase.DEGENERATE, None, None)


def _checked(
    case: str,
    split: Tuple[RatPoly, GaussPoly],
    w: GaussPoly,
    hopf_gcd: Optional[GaussPoly] = None,
) -> WronskianDecomposition:
    omega, z_squared = split
    if omega * z_squared != w:
        raise InternalInconsistencyError("Wronskian decomposition does not multiply back")
    return WronskianDecomposition(case, omega, z_squared, hopf_gcd)


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
    """W as 1 * (square of a linear complex polynomial): zero discriminant."""
    if w.degree != 2:
        return None
    c2, c1, c0 = w.coefficient(2), w.coefficient(1), w.coefficient(0)
    if c1 * c1 - 4 * c2 * c0:
        return None
    return RatPoly.one(), w


def _nonconstant(g: GaussPoly) -> Optional[GaussPoly]:
    return g if (g.degree or 0) >= 1 else None


def monotone_test(pair: HopfPair) -> Optional[GaussPoly]:
    """The non-constant monic gcd of (z1, z2) when one exists."""
    _check_degrees(pair)
    return _nonconstant(poly_gcd(pair.z1, pair.z2))


def quaternion_dependence(
    a0: Quaternion, a1: Quaternion, a2: Quaternion
) -> Optional[DependenceSolution]:
    """Exact solution of the four-equation system A1 = c0*A0 + c2*A2.

    Returns None when the system is inconsistent.  When A0 and A2 are
    linearly dependent the solution is not unique; one consistent pair is
    returned with the degenerate flag set.
    """
    rows = list(zip(a0.components(), a2.components(), a1.components()))
    # find a 2x2 invertible minor
    for i in range(4):
        for j in range(i + 1, 4):
            p0, q0, r0 = rows[i]
            p1, q1, r1 = rows[j]
            det = p0 * q1 - p1 * q0
            if det:
                c0 = (r0 * q1 - r1 * q0) / det
                c2 = (p0 * r1 - p1 * r0) / det
                candidate = DependenceSolution(c0, c2)
                return candidate if _dependence_holds(rows, candidate) else None
    # A0, A2 linearly dependent: try expressing A1 along whichever is nonzero
    for pick in (0, 1):
        base = [row[pick] for row in rows]
        if not any(base):
            continue
        k = next(i for i, b in enumerate(base) if b)
        coeff = rows[k][2] / base[k]
        candidate = (
            DependenceSolution(coeff, Fraction(0), True)
            if pick == 0
            else DependenceSolution(Fraction(0), coeff, True)
        )
        if _dependence_holds(rows, candidate):
            return candidate
        return None
    # A0 = A2 = 0: consistent only for A1 = 0
    if a1.is_zero:
        return DependenceSolution(Fraction(0), Fraction(0), True)
    return None


def _dependence_holds(rows, sol: DependenceSolution) -> bool:
    return all(p * sol.c0 + q * sol.c2 == r for p, q, r in rows)


def _quadratic_coefficients(a: QuaternionPolynomial) -> Tuple[Quaternion, Quaternion, Quaternion]:
    if (a.degree or 0) > QUINTIC_MAX_DEGREE:
        raise UnsupportedDegreeError(
            f"expected a quaternion polynomial of degree at most 2, got {a.degree}"
        )
    return a.coefficient(0), a.coefficient(1), a.coefficient(2)


def constant_z_parameters(a: QuaternionPolynomial) -> ConstantZParameters:
    """Rotation and weight parameters of the constant-z route for a quadratic."""
    a0, _, a2 = _quadratic_coefficients(a)
    w0, x0, y0, z0 = a0.components()
    w2, x2, y2, z2 = a2.components()
    n = y0 * w2 + z0 * x2 - w0 * y2 - x0 * z2
    d = z0 * w2 - y0 * x2 + x0 * y2 - w0 * z2
    tan_two_theta = None if not d else n / d
    m1_squared = 4 * (n * n + d * d)

    m0_over_m1 = m2_over_m1 = None
    try:
        dec = decompose_wronskian_quintic(hopf_from_quaternion(a))
    except (DegenerateInputError, UnsupportedDegreeError):
        dec = None
    if (
        dec is not None
        and dec.case in (DecompositionCase.Z_CONSTANT, DecompositionCase.BOTH_CONSTANT)
        and dec.omega is not None
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
        quat = curve
        pair = hopf_from_quaternion(curve)
    elif isinstance(curve, HopfPair):
        pair = curve
        quat = quaternion_from_hopf(curve)
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
    quintic_class = _route_case(decomposition, pair, quat)

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


def _route_case(
    decomposition: WronskianDecomposition, pair: HopfPair, quat: QuaternionPolynomial
) -> QuinticClass:
    if not decomposition.exists:
        return QuinticClass(QuinticKind.NOT_HELIX)
    g = decomposition.hopf_gcd
    shared = monotone_test(pair) if g is None else _nonconstant(g)
    if decomposition.case == DecompositionCase.OMEGA_CONSTANT:
        if shared is None:
            raise InternalInconsistencyError(
                "constant-omega decomposition without a shared Hopf factor"
            )
        return QuinticClass(QuinticKind.MONOTONE_HELIX, shared_factor=shared)
    if shared is not None:
        # sub-quintic inputs can land here with a constant Wronskian
        return QuinticClass(QuinticKind.MONOTONE_HELIX, shared_factor=shared)
    a0, a1, a2 = _quadratic_coefficients(quat)
    dependence = quaternion_dependence(a0, a1, a2)
    # dependence can legitimately be absent when the Wronskian's linear
    # coefficient vanishes (m1 = 0); the curve is still a helix
    return QuinticClass(QuinticKind.GENERAL_HELIX, dependence=dependence)


# ---------------------------------------------------------------------------
# generators for the two helix families
# ---------------------------------------------------------------------------

DEFAULT_HEIGHT = 50
_MAX_ATTEMPTS = 1000


def _as_rng(rng: Union[random.Random, int, None]) -> random.Random:
    if isinstance(rng, random.Random):
        return rng
    return random.Random(rng)


def random_fraction(rng: random.Random, height: int = DEFAULT_HEIGHT) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def random_gaussian(rng: random.Random, height: int = DEFAULT_HEIGHT) -> GaussianRational:
    return GaussianRational(random_fraction(rng, height), random_fraction(rng, height))


def _nonzero_gaussian(rng: random.Random, height: int) -> GaussianRational:
    while True:
        g = random_gaussian(rng, height)
        if g:
            return g


def random_quaternion(rng: random.Random, height: int = DEFAULT_HEIGHT) -> Quaternion:
    return Quaternion(*(random_fraction(rng, height) for _ in range(4)))


def _linear_factor(root: GaussianRational) -> GaussPoly:
    return GaussPoly([-root, GaussianRational(1)])


def generate_monotone_quintic(
    rng: Union[random.Random, int, None] = None,
    *,
    shared_root: Optional[GaussianRational] = None,
    other_roots: Optional[Tuple[GaussianRational, GaussianRational]] = None,
    leads: Optional[Tuple[GaussianRational, GaussianRational]] = None,
    height: int = DEFAULT_HEIGHT,
) -> HopfPair:
    """A Hopf pair z1 = a(t-r)(t-r2), z2 = b(t-r)(t-r4) with a shared root.

    Sampled parameters are height-bounded rationals; samples that degenerate
    (proportional pair, or a planar/line slope verdict) are rejected and
    redrawn.  Explicit parameters are validated once and never redrawn.
    """
    rng = _as_rng(rng)
    explicit = shared_root is not None and other_roots is not None and leads is not None
    for _ in range(_MAX_ATTEMPTS):
        r = shared_root if shared_root is not None else random_gaussian(rng, height)
        r2, r4 = other_roots if other_roots is not None else (
            random_gaussian(rng, height),
            random_gaussian(rng, height),
        )
        a, b = leads if leads is not None else (
            _nonzero_gaussian(rng, height),
            _nonzero_gaussian(rng, height),
        )
        if a.is_zero or b.is_zero or r2 == r4:
            if explicit:
                raise DegenerateInputError(
                    "parameters produce a proportional Hopf pair"
                )
            continue
        shared = _linear_factor(r)
        pair = HopfPair(
            GaussPoly([a]) * shared * _linear_factor(r2),
            GaussPoly([b]) * shared * _linear_factor(r4),
        )
        if is_helix(hodograph_from_hopf(pair)).kind == HelixKind.HELIX:
            return pair
        if explicit:
            raise DegenerateInputError("parameters produce a degenerate curve")
    raise DegenerateInputError("could not sample a monotone helix")


def generate_general_quintic(
    rng: Union[random.Random, int, None] = None,
    *,
    a0: Optional[Quaternion] = None,
    a2: Optional[Quaternion] = None,
    c0: Optional[Fraction] = None,
    c2: Optional[Fraction] = None,
    height: int = DEFAULT_HEIGHT,
) -> QuaternionPolynomial:
    """A quadratic quaternion polynomial with A1 = c0*A0 + c2*A2.

    Samples that degenerate (zero polynomial or vanishing Wronskian) are
    redrawn unless every parameter was given explicitly.
    """
    rng = _as_rng(rng)
    explicit = all(v is not None for v in (a0, a2, c0, c2))
    for _ in range(_MAX_ATTEMPTS):
        q0 = a0 if a0 is not None else random_quaternion(rng, height)
        q2 = a2 if a2 is not None else random_quaternion(rng, height)
        k0 = c0 if c0 is not None else random_fraction(rng, height)
        k2 = c2 if c2 is not None else random_fraction(rng, height)
        q1 = k0 * q0 + k2 * q2
        quat = QuaternionPolynomial([q0, q1, q2])
        if quat.is_zero:
            if explicit:
                raise DegenerateInputError("zero quaternion polynomial")
            continue
        pair = hopf_from_quaternion(quat)
        if wronskian(pair.z1, pair.z2).is_zero:
            if explicit:
                raise DegenerateInputError("parameters give a vanishing Wronskian")
            continue
        if is_helix(hodograph_from_hopf(pair)).kind == HelixKind.HELIX:
            return quat
        if explicit:
            raise DegenerateInputError("parameters produce a degenerate curve")
    raise DegenerateInputError("could not sample a general helix")
