"""Norm tests, Frenet frame, torsion/curvature ratio and the slope verdict."""

from fractions import Fraction

import pytest
from hypothesis import assume, given

import phelix.analysis as analysis_module
from conftest import (
    compose_affine,
    quaternion_quadratics,
    quaternions,
    rand_quaternion,
    rand_rat_poly,
    rationals,
    seeded,
)
from phelix import (
    DegenerateInputError,
    HelixKind,
    Hodograph,
    InternalInconsistencyError,
    Invariants,
    LineDegeneracyError,
    NotRationalFrameError,
    Quaternion,
    QuaternionPolynomial,
    RatPoly,
    RationalFunction,
    ScaledSqrt,
    analyze,
    cross_norm,
    frenet_frame,
    helix_verdict,
    hodograph_from_quaternion,
    hopf_from_quaternion,
    invariants,
    is_2ph,
    is_helix,
    is_ph,
    lancret_ratio_squared,
    sigma_poly,
    wronskian,
)
from phelix.quintic import generate_general_quintic, generate_monotone_quintic
from phelix.curves import hodograph_from_hopf
from phelix.references import reference_curve


def degree7_hodograph() -> Hodograph:
    return reference_curve("counterexample").spec.hodograph()


def planar_cubic() -> Hodograph:
    return Hodograph(RatPoly([0, 2]), RatPoly([1, 0, -1]), RatPoly())


class TestCrossNorm:
    def test_line_has_zero_cross_norm(self):
        cn = cross_norm(Hodograph(RatPoly([1]), RatPoly(), RatPoly()))
        assert cn.rho_squared.is_zero
        assert cn.rho is not None and cn.rho.is_zero

    def test_degree7_curve(self):
        cn = cross_norm(degree7_hodograph())
        body = RatPoly([1, 0, 1]) * RatPoly([9, 0, 9, 0, 3, 0, 1])
        assert cn.rho == ScaledSqrt(4, body)
        assert cn.rho_squared == 4 * body * body

    @given(quaternion_quadratics)
    def test_equals_speed_factored_formula(self, a):
        # second route: 4 sigma^2 ((u'q - uq' - v'p + vp')^2 + (u'p - up' + v'q - vq')^2)
        u, v, p, q = a.component_polys()
        du, dv, dp, dq = (x.derivative() for x in (u, v, p, q))
        re = du * q - u * dq - dv * p + v * dp
        im = du * p - u * dp + dv * q - v * dq
        sigma = sigma_poly(a)
        h = hodograph_from_quaternion(a)
        assert cross_norm(h).rho_squared == 4 * sigma * sigma * (re * re + im * im)


class TestPhTests:
    def test_unit_line(self):
        assert is_ph(Hodograph(RatPoly([1]), RatPoly(), RatPoly())) == ScaledSqrt(
            1, RatPoly([1])
        )

    def test_planar_pythagorean_triple(self):
        assert is_ph(planar_cubic()) == ScaledSqrt(1, RatPoly([1, 0, 1]))

    def test_three_four_five(self):
        h = Hodograph(RatPoly([0, 0, 3]), RatPoly([0, 0, 4]), RatPoly())
        assert is_ph(h) == ScaledSqrt(1, RatPoly([0, 0, 5]))

    def test_degree7_curve_norms(self):
        sigma, rho = is_2ph(degree7_hodograph())
        assert sigma == ScaledSqrt(Fraction(1, 9), RatPoly([9, 0, 9, 0, 3, 0, 1]))
        assert rho.scale == 4

    def test_random_hodograph_is_generically_not_2ph(self):
        rng = seeded(11)
        hits = 0
        for _ in range(25):
            h = Hodograph(
                rand_rat_poly(rng, 4), rand_rat_poly(rng, 4), rand_rat_poly(rng, 4)
            )
            if is_2ph(h) is not None:
                hits += 1
        assert hits == 0


class TestFrenetFrame:
    def test_planar_cubic_frame(self):
        frame = frenet_frame(analyze(planar_cubic()))
        one_plus_t2 = RatPoly([1, 0, 1])
        assert frame.tangent[0] == RationalFunction(RatPoly([0, 2]), one_plus_t2)
        assert frame.tangent[1] == RationalFunction(RatPoly([1, 0, -1]), one_plus_t2)
        assert frame.tangent[2].is_zero
        assert frame.frame_scale == 4
        # stored binormal is the unit binormal times sqrt(frame_scale)
        assert frame.binormal[2] in [RationalFunction.constant(c) for c in (2, -2)]

    def test_degree7_frame_at_zero(self):
        frame = frenet_frame(analyze(degree7_hodograph()))
        tangent0 = tuple(f.evaluate(0) for f in frame.tangent)
        assert tangent0 == (-1, 0, 0)
        scale_root = 2  # frame_scale is 4
        assert frame.frame_scale == 4
        binormal0 = tuple(f.evaluate(0) / scale_root for f in frame.binormal)
        assert binormal0 == (0, 0, -1)

    def _assert_exact_identities(self, h):
        frame = frenet_frame(analyze(h))
        t, b, n = frame.tangent, frame.binormal, frame.normal
        dot = lambda u, v: u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
        one = RationalFunction(RatPoly([1]), RatPoly([1]))
        assert dot(t, t) == one
        assert dot(t, b).is_zero
        assert dot(b, b) == RationalFunction.constant(frame.frame_scale)
        assert dot(n, n) == RationalFunction.constant(frame.frame_scale)
        expected_normal = (
            b[1] * t[2] - b[2] * t[1],
            b[2] * t[0] - b[0] * t[2],
            b[0] * t[1] - b[1] * t[0],
        )
        assert n == expected_normal

    def test_identities_on_reference_curves(self):
        for name in ("example1", "example2", "counterexample"):
            self._assert_exact_identities(reference_curve(name).spec.hodograph())

    def test_identities_on_generated_quintics(self):
        rng = seeded(77)
        for _ in range(5):
            pair = generate_monotone_quintic(rng, height=6)
            self._assert_exact_identities(hodograph_from_hopf(pair))

    def test_non_2ph_input_rejected(self):
        with pytest.raises(NotRationalFrameError):
            frenet_frame(analyze(Hodograph(RatPoly([1]), RatPoly([0, 1]), RatPoly())))

    def test_line_rejected(self):
        with pytest.raises(LineDegeneracyError):
            frenet_frame(analyze(Hodograph(RatPoly([1]), RatPoly(), RatPoly())))

    def test_irrational_speed_scale_rejected(self):
        # (1 - 4t - t^2)^2 + (2 + 2t - 2t^2)^2 = 5 (1 + t^2)^2: a planar 2-PH
        # hodograph whose speed is sqrt(5) (1 + t^2); the tangent has no
        # rational-coefficient representation
        h = Hodograph(RatPoly([1, -4, -1]), RatPoly([2, 2, -2]), RatPoly())
        assert invariants(h).sigma_squared == 5 * RatPoly([1, 0, 1]) ** 2
        assert is_2ph(h) is not None
        with pytest.raises(NotRationalFrameError):
            frenet_frame(analyze(h))


class TestCurvatureTorsion:
    def test_degree7_ratio(self):
        data = analyze(degree7_hodograph())
        expected = RationalFunction(
            RatPoly([-9, 0, 0, 0, 9, 0, 2]) ** 2, 81 * RatPoly([1, 0, 1]) ** 4
        )
        assert data.lancret_ratio_squared == expected
        assert data.sigma is not None

    def test_planar_parabola(self):
        data = analyze(Hodograph(RatPoly([1]), RatPoly([0, 2]), RatPoly()))
        assert data.invariants.det.is_zero
        assert data.lancret_ratio_squared.is_zero
        assert data.sigma is None  # 1 + 4t^2 is not a perfect square

    def test_line_raises(self):
        with pytest.raises(LineDegeneracyError):
            lancret_ratio_squared(Hodograph(RatPoly([2]), RatPoly([1]), RatPoly()))


def _ratio_read_off_the_verdict(h: Hodograph):
    """(verdict kind, the analysis's (tau/kappa)^2 read while the reduction
    raises, the reduction of det^2 (sigma^2)^3 / (rho^2)^3 itself)."""
    a = analyze(h)
    reduced = analysis_module._lancret_ratio(invariants(h))

    def no_reduction(inv):
        raise AssertionError("a helix or planar ratio must not be reduced")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis_module, "_lancret_ratio", no_reduction)
        read = a.lancret_ratio_squared
    return a.verdict.kind, read, reduced


def _planar_quintic(rng) -> Hodograph:
    # quaternions in span{1, k} map i into the plane z = 0
    def coefficient():
        w, _, _, z = rand_quaternion(rng, 6).components()
        return Quaternion(w, 0, 0, z)

    return hodograph_from_quaternion(QuaternionPolynomial([coefficient() for _ in range(3)]))


def _constant_wronskian_cubic(rng) -> Hodograph:
    # linear Hopf polynomials have a constant Wronskian
    while True:
        quat = QuaternionPolynomial([rand_quaternion(rng, 6) for _ in range(2)])
        pair = hopf_from_quaternion(quat)
        w = wronskian(pair.z1, pair.z2)
        if not w.is_zero:
            assert w.degree == 0
            return hodograph_from_quaternion(quat)


class TestLancretRatioFromVerdict:
    """A helix's (tau/kappa)^2 is read off its verdict and a planar curve's is
    0; both must equal the reduced ratio."""

    @pytest.mark.parametrize(
        "family, kind",
        [
            ("monotone", HelixKind.HELIX),
            ("general", HelixKind.HELIX),
            ("planar", HelixKind.PLANAR),
            ("constant-wronskian", HelixKind.HELIX),
        ],
    )
    def test_equals_the_reduced_ratio(self, family, kind):
        rng = seeded(71)
        for _ in range(6):
            if family == "monotone":
                h = hodograph_from_hopf(generate_monotone_quintic(rng, height=6))
            elif family == "general":
                h = hodograph_from_quaternion(generate_general_quintic(rng, height=6))
            elif family == "planar":
                h = _planar_quintic(rng)
            else:
                h = _constant_wronskian_cubic(rng)
            got_kind, read, reduced = _ratio_read_off_the_verdict(h)
            assert got_kind == kind
            assert read == reduced and read.is_constant

    @given(quaternions, quaternions, rationals, rationals)
    def test_general_family_parameters(self, a0, a2, c0, c2):
        try:
            quat = generate_general_quintic(None, a0=a0, a2=a2, c0=c0, c2=c2)
        except DegenerateInputError:
            assume(False)
        _, read, reduced = _ratio_read_off_the_verdict(hodograph_from_quaternion(quat))
        assert read == reduced


class TestIsHelix:
    def test_line(self):
        v = is_helix(Hodograph(RatPoly([1]), RatPoly(), RatPoly()))
        assert v.kind == HelixKind.LINE
        assert v.axis is None and v.slope_squared is None

    def test_planar_parabola(self):
        v = is_helix(Hodograph(RatPoly([1]), RatPoly([0, 2]), RatPoly()))
        assert v.kind == HelixKind.PLANAR
        assert v.axis == (0, 0, 1)
        assert v.slope_squared == 0

    def test_degree7_curve_is_not_a_helix(self):
        v = is_helix(degree7_hodograph())
        assert v.kind == HelixKind.NOT_HELIX

    def test_generated_helices(self):
        rng = seeded(5)
        for _ in range(5):
            quat = generate_general_quintic(rng, height=6)
            v = is_helix(hodograph_from_quaternion(quat))
            assert v.kind == HelixKind.HELIX
            assert v.axis is not None and 0 < v.slope_squared < 1

    def test_reparameterization_invariance(self):
        rng = seeded(13)
        samples = [
            hodograph_from_hopf(generate_monotone_quintic(rng, height=6)),
            hodograph_from_quaternion(generate_general_quintic(rng, height=6)),
            degree7_hodograph(),
            planar_cubic(),
        ]
        for h in samples:
            kind = is_helix(h).kind
            for a, b in ((Fraction(2), Fraction(-1)), (Fraction(-1, 3), Fraction(5, 7))):
                # curve t -> alpha(a t + b) has hodograph a * alpha'(a t + b)
                reparam = Hodograph(
                    *(a * compose_affine(p, a, b) for p in h.vector())
                )
                assert is_helix(reparam).kind == kind
            scaled = Hodograph(*(Fraction(3, 7) * p for p in h.vector()))
            assert is_helix(scaled).kind == kind


class TestHelixAxis:
    def test_planar_axis(self):
        verdict = is_helix(Hodograph(RatPoly([1]), RatPoly([0, 2]), RatPoly()))
        assert verdict.axis == (0, 0, 1)
        assert verdict.slope_squared == 0

    def test_axis_identities_on_example1(self):
        h = reference_curve("example1").spec.hodograph()
        verdict = is_helix(h)
        assert analyze(h).verdict == verdict
        axis, slope = verdict.axis, verdict.slope_squared
        v = h.vector()
        d2 = tuple(p.derivative() for p in v)
        c = (
            v[1] * d2[2] - v[2] * d2[1],
            v[2] * d2[0] - v[0] * d2[2],
            v[0] * d2[1] - v[1] * d2[0],
        )
        norm2 = sum(a * a for a in axis)
        proj_t = axis[0] * v[0] + axis[1] * v[1] + axis[2] * v[2]
        proj_b = axis[0] * c[0] + axis[1] * c[1] + axis[2] * c[2]
        s2 = v[0] ** 2 + v[1] ** 2 + v[2] ** 2
        r2 = c[0] ** 2 + c[1] ** 2 + c[2] ** 2
        assert (proj_t * proj_t - slope * norm2 * s2).is_zero
        assert (proj_b * proj_b - (1 - slope) * norm2 * r2).is_zero

    @pytest.mark.parametrize("family", ["monotone", "general", "planar"])
    def test_axis_scan_passes_the_roots_of_a_common_factor(self, family):
        rng = seeded(29)
        if family == "monotone":
            h = hodograph_from_hopf(generate_monotone_quintic(rng, height=6))
        elif family == "general":
            h = hodograph_from_quaternion(generate_general_quintic(rng, height=6))
        else:
            # in the plane z = x + y, so all three cross-product entries are nonzero
            x, y = RatPoly([0, 2]), RatPoly([1, 0, -1])
            h = Hodograph(x, y, x + y)
        expected = helix_verdict(invariants(h))
        assert expected.kind == (HelixKind.PLANAR if family == "planar" else HelixKind.HELIX)
        # f vanishes at the first 8 scan points 0, 1, -1, 2, -2, 3, -3, 4; the
        # hodograph f * h scales the axis candidate by f^6 and keeps kind,
        # slope and axis, so its axis comes from a later point
        f = RatPoly([1])
        for root in (0, 1, -1, 2, -2, 3, -3, 4):
            f = f * RatPoly([-root, 1])
        scaled = Hodograph(*(f * p for p in h.vector()))
        assert helix_verdict(invariants(scaled)) == expected

    def test_vanishing_candidate_raises(self):
        # inconsistent on purpose: rho^2 is nonzero, the cross vector is zero
        zero = RatPoly()
        inv = Invariants(
            (RatPoly([1]), zero, zero), RatPoly([1]), (zero, zero, zero), RatPoly([1]), zero
        )
        with pytest.raises(InternalInconsistencyError, match="vanished identically"):
            helix_verdict(inv)

    def test_verdict_mismatch(self):
        # a non-helix verdict carries neither an axis nor a slope
        verdict = is_helix(degree7_hodograph())
        assert verdict.axis is None and verdict.slope_squared is None


class TestAnalyze:
    def test_bundles_everything(self):
        a = analyze(degree7_hodograph())
        assert a.is_ph and a.is_2ph
        assert a.verdict.kind == HelixKind.NOT_HELIX
        assert a.lancret_ratio_squared is not None

    def test_line_bundle(self):
        a = analyze(Hodograph(RatPoly([1]), RatPoly(), RatPoly()))
        assert a.verdict.kind == HelixKind.LINE
        assert a.lancret_ratio_squared is None
