"""Acceptance criteria, one test per criterion, every comparison exact.

Each test prints a PASS line on success (run with ``pytest -s`` to see them;
the test names carry the criterion numbers either way).  All random sweeps
use fixed seeds and exact arithmetic throughout; tolerance is zero
everywhere.
"""

from fractions import Fraction

from conftest import rand_fraction, rand_quaternion, rand_rat_poly, seeded
from oracles import quotient_cross, quotient_dot, sigma_poly
from phelix import (
    GaussPoly,
    GaussianRational,
    HelixKind,
    Quaternion,
    QuaternionPolynomial,
    RatPoly,
    RationalFunction,
    ScaledSqrt,
    analyze,
    classify_quintic,
    cross_norm,
    frenet_frame,
    generate_general_quintic,
    generate_monotone_quintic,
    hodograph_from_hopf,
    hodograph_from_quaternion,
    hopf_from_quaternion,
    is_2ph,
    is_helix,
    lancret_ratio_squared,
    perfect_square_root,
    wronskian,
)
from phelix.quintic import DecompositionCase, QuinticKind, decompose_wronskian_quintic
from phelix.references import reference_curve


def G(re, im=0):
    return GaussianRational(re, im)


def _report(number, text):
    print(f"ACCEPTANCE {number:02d}: PASS — {text}")


EXAMPLE1 = QuaternionPolynomial(
    [Quaternion(0, 10, 5, 10), Quaternion(-3, -5, 3, -9), Quaternion(1, 1, -2, 1)]
)
EXAMPLE2 = QuaternionPolynomial(
    [Quaternion(5, 1, -1, 3), Quaternion(12, 18, -12, 24), Quaternion(-19, -22, 15, -31)]
)
W1 = GaussPoly([G(25, 25), G(-30, 10), G(1, -7)])


def test_criterion_01_example1_wronskian_and_decomposition():
    pair = hopf_from_quaternion(EXAMPLE1)
    w = wronskian(pair.z1, pair.z2)
    assert w == W1
    # z^2 = (1 - 7i) (t - (1 + 2i))^2, expanded with scalar arithmetic only
    lead, root = G(1, -7), G(1, 2)
    assert w == GaussPoly([lead * root * root, G(-2) * lead * root, lead])
    dec = decompose_wronskian_quintic(pair)
    assert dec.case == DecompositionCase.OMEGA_CONSTANT
    assert dec.omega == RatPoly([1])
    assert dec.z_squared == W1
    assert dec.omega * dec.z_squared == w
    _report(1, "example1 Wronskian and omega-constant decomposition, coefficient-exact")


def test_criterion_02_example1_classification():
    report = classify_quintic(EXAMPLE1)
    assert report.quintic_class.kind == QuinticKind.MONOTONE_HELIX
    shared = report.quintic_class.shared_factor
    assert shared == GaussPoly([G(-1, -2), G(1)])  # t - (1 + 2i), monic
    assert report.analysis.verdict.kind == HelixKind.HELIX
    ratio = lancret_ratio_squared(hodograph_from_quaternion(EXAMPLE1))
    assert ratio.is_constant and ratio == RationalFunction.constant(Fraction(9, 50))
    _report(2, "example1 classifies monotone-helix with constant (tau/kappa)^2")


def test_criterion_03_example2_reproduction():
    pair = hopf_from_quaternion(EXAMPLE2)
    w = wronskian(pair.z1, pair.z2)
    scale = G(-26, 26)  # 26 * (-1 + i)
    assert w == GaussPoly([scale * 3, scale * -7, scale * 3])
    dec = decompose_wronskian_quintic(pair)
    assert dec.case == DecompositionCase.Z_CONSTANT
    assert dec.omega == RatPoly([3, -7, 3])
    assert dec.z_squared == GaussPoly([scale])
    report = classify_quintic(EXAMPLE2)
    assert report.quintic_class.kind == QuinticKind.GENERAL_HELIX
    dep = report.quintic_class.dependence
    assert dep is not None and not dep.degenerate
    assert (dep.c0, dep.c2) == (Fraction(-6, 7), Fraction(-6, 7))
    a0, a1, a2 = (EXAMPLE2.coefficient(k) for k in range(3))
    assert dep.c0 * a0 + dep.c2 * a2 == a1  # zero residual
    assert report.analysis.verdict.kind == HelixKind.HELIX
    _report(3, "example2 Wronskian, z-constant case, dependence (-6/7, -6/7)")


def test_criterion_04_degree7_counterexample():
    h = reference_curve("counterexample").spec.hodograph()
    norms = is_2ph(h)
    assert norms is not None
    sigma, rho = norms
    assert sigma == ScaledSqrt(Fraction(1, 9), RatPoly([9, 0, 9, 0, 3, 0, 1]))
    assert sigma.as_rat_poly() == Fraction(1, 3) * RatPoly([9, 0, 9, 0, 3, 0, 1])
    assert rho == ScaledSqrt(4, RatPoly([1, 0, 1]) * RatPoly([9, 0, 9, 0, 3, 0, 1]))
    ratio = lancret_ratio_squared(h)
    expected = RationalFunction(
        RatPoly([-9, 0, 0, 0, 9, 0, 2]) ** 2, 81 * RatPoly([1, 0, 1]) ** 4
    )
    assert ratio == expected
    assert is_helix(h).kind == HelixKind.NOT_HELIX
    _report(4, "degree-7 curve: 2-PH with the stated norms, yet not a helix")


def test_criterion_05_equivalence_property_sweep():
    rng = seeded(20250)
    checked = 0
    for _ in range(500):
        pair = generate_monotone_quintic(rng, height=12)
        report = classify_quintic(pair)  # raises on any equivalence violation
        assert report.analysis.is_2ph
        assert report.analysis.verdict.kind == HelixKind.HELIX
        assert report.quintic_class.kind == QuinticKind.MONOTONE_HELIX
        checked += 1
    for _ in range(500):
        quat = generate_general_quintic(rng, height=12)
        report = classify_quintic(quat)
        assert report.analysis.is_2ph
        assert report.analysis.verdict.kind == HelixKind.HELIX
        assert report.quintic_class.kind in (
            QuinticKind.GENERAL_HELIX,
            QuinticKind.MONOTONE_HELIX,  # an accidentally shared factor is fine
        )
        checked += 1
    accidental = 0
    independents = 0
    while independents < 500:
        quat = QuaternionPolynomial([rand_quaternion(rng) for _ in range(3)])
        if quat.is_zero:
            continue
        pair = hopf_from_quaternion(quat)
        if wronskian(pair.z1, pair.z2).is_zero:
            continue
        independents += 1
        report = classify_quintic(quat)  # the internal cross-check must hold
        if report.quintic_class.kind == QuinticKind.NOT_HELIX:
            assert not report.analysis.is_2ph
            assert report.analysis.verdict.kind == HelixKind.NOT_HELIX
        else:
            accidental += 1
            assert report.analysis.is_2ph
            assert report.analysis.verdict.kind in (HelixKind.HELIX, HelixKind.PLANAR)
        checked += 1
    _report(
        5,
        f"{checked} quintics, zero equivalence violations "
        f"({accidental} accidental helices among the random family)",
    )


def test_criterion_06_all_ph_cubics_are_helices():
    rng = seeded(20251)
    outcomes = {HelixKind.HELIX: 0, HelixKind.PLANAR: 0, HelixKind.LINE: 0}
    for _ in range(200):
        a = QuaternionPolynomial([rand_quaternion(rng), rand_quaternion(rng)])
        if a.is_zero or (a.degree or 0) < 1:
            continue
        report = classify_quintic(a)
        kind = report.analysis.verdict.kind
        assert kind != HelixKind.NOT_HELIX
        outcomes[kind] += 1
    assert sum(outcomes.values()) >= 195
    assert outcomes[HelixKind.HELIX] > 150
    _report(6, f"degree-1 quaternion inputs: {outcomes} and zero not-helix outcomes")


def test_criterion_07_cross_norm_identity():
    rng = seeded(20252)
    for _ in range(1000):
        a = QuaternionPolynomial([rand_quaternion(rng, 6) for _ in range(3)])
        if a.is_zero:
            continue
        u, v, p, q = a.component_polys()
        du, dv, dp, dq = (x.derivative() for x in (u, v, p, q))
        re = du * q - u * dq - dv * p + v * dp
        im = du * p - u * dp + dv * q - v * dq
        sigma = sigma_poly(a)
        h = hodograph_from_quaternion(a)
        assert cross_norm(h).rho_squared == 4 * sigma * sigma * (re * re + im * im)
    _report(7, "1000 quintics: |a' ^ a''|^2 = 4 sigma^2 (re^2 + im^2), exact")


def test_criterion_08_frenet_exactness():
    fixtures = [
        reference_curve(name).spec.hodograph()
        for name in ("example1", "example2", "counterexample")
    ]
    rng = seeded(20253)
    for _ in range(10):
        fixtures.append(hodograph_from_hopf(generate_monotone_quintic(rng, height=8)))
        fixtures.append(hodograph_from_quaternion(generate_general_quintic(rng, height=8)))
    one = RationalFunction(RatPoly([1]), RatPoly([1]))
    dot = quotient_dot
    for h in fixtures:
        assert is_2ph(h) is not None
        frame = frenet_frame(analyze(h))
        t, b, n = frame.tangent, frame.binormal, frame.normal
        assert dot(t, t) == one
        assert dot(t, b).is_zero
        assert dot(b, b) == RationalFunction.constant(frame.frame_scale)
        assert n == quotient_cross(b, t)
    _report(8, f"{len(fixtures)} 2-PH curves: frame identities hold exactly")


def test_criterion_09_perfect_square_oracle():
    rng = seeded(20254)
    squares = non_squares = 0
    for k in range(1000):
        q = rand_rat_poly(rng, rng.randint(0, 5))
        c = rand_fraction(rng)
        while c == 0:
            c = rand_fraction(rng)
        p = c * q * q
        root = perfect_square_root(p)
        if c > 0:
            assert root is not None and root.scale * (root.body * root.body) == p
            squares += 1
        else:
            assert root is None
            non_squares += 1
    for _ in range(1000):
        q = rand_rat_poly(rng, rng.randint(0, 4))
        r = rand_fraction(rng)
        odd_power = 2 * rng.randint(0, 2) + 1
        p = q * q * RatPoly([-r, 1]) ** odd_power
        assert perfect_square_root(p) is None
    _report(
        9,
        f"2000 constructed polynomials match ground truth "
        f"({squares} squares, {1000 - squares + 1000} non-squares)",
    )


def test_criterion_10_helix_axis_identities():
    rng = seeded(20255)
    hodographs = [
        hodograph_from_quaternion(EXAMPLE1),
        hodograph_from_quaternion(EXAMPLE2),
    ]
    for _ in range(100):
        hodographs.append(hodograph_from_hopf(generate_monotone_quintic(rng, height=10)))
        hodographs.append(hodograph_from_quaternion(generate_general_quintic(rng, height=10)))
    for h in hodographs:
        verdict = is_helix(h)
        assert verdict.kind == HelixKind.HELIX
        axis, slope = verdict.axis, verdict.slope_squared
        v = h.vector()
        d2 = tuple(p.derivative() for p in v)
        c = (
            v[1] * d2[2] - v[2] * d2[1],
            v[2] * d2[0] - v[0] * d2[2],
            v[0] * d2[1] - v[1] * d2[0],
        )
        norm2 = sum(a * a for a in axis)
        s2 = v[0] ** 2 + v[1] ** 2 + v[2] ** 2
        r2 = c[0] ** 2 + c[1] ** 2 + c[2] ** 2
        proj_t = axis[0] * v[0] + axis[1] * v[1] + axis[2] * v[2]
        proj_b = axis[0] * c[0] + axis[1] * c[1] + axis[2] * c[2]
        assert (proj_t * proj_t - slope * norm2 * s2).is_zero
        assert (proj_b * proj_b - (1 - slope) * norm2 * r2).is_zero
        assert 0 < slope < 1
    _report(10, f"{len(hodographs)} helices: tangent and binormal axis identities exact")
