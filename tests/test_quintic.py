"""Wronskian decomposition, the two helix families, and the classifier."""

import random
from fractions import Fraction

import pytest

from conftest import rand_fraction, rand_gaussian, rand_quaternion_quadratic, seeded
from oracles import abs_squared, predicted_dependence
from phelix import (
    DegenerateInputError,
    GaussPoly,
    GaussianRational,
    HelixKind,
    HopfPair,
    Quaternion,
    QuaternionPolynomial,
    RatPoly,
    UnsupportedDegreeError,
    classify_quintic,
    decompose_wronskian_quintic,
    generate_general_quintic,
    generate_monotone_quintic,
    hopf_from_quaternion,
    constant_z_parameters,
    monotone_test,
    perfect_square_root,
    quaternion_dependence,
    wronskian,
)
from phelix.quintic import DecompositionCase, QuinticKind


def G(re, im=0):
    return GaussianRational(re, im)


class _Scripted(random.Random):
    """A seeded random.Random whose first randint calls return a script."""

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)

    def randint(self, a, b):
        return self.script.pop(0) if self.script else super().randint(a, b)


def random_gauss_upto(rng, degree):
    """A Gaussian polynomial of degree at most degree; each coefficient is
    zero one time in three, so zero and degree-deficient members occur."""
    return GaussPoly(
        [rand_gaussian(rng) if rng.randrange(3) else G(0) for _ in range(degree + 1)]
    )


EXAMPLE1 = QuaternionPolynomial(
    [Quaternion(0, 10, 5, 10), Quaternion(-3, -5, 3, -9), Quaternion(1, 1, -2, 1)]
)
EXAMPLE2 = QuaternionPolynomial(
    [Quaternion(5, 1, -1, 3), Quaternion(12, 18, -12, 24), Quaternion(-19, -22, 15, -31)]
)


class TestDecompose:
    def test_example1_omega_constant(self):
        pair = hopf_from_quaternion(EXAMPLE1)
        dec = decompose_wronskian_quintic(pair)
        assert dec.case == DecompositionCase.OMEGA_CONSTANT
        assert dec.omega == RatPoly([1])
        assert dec.z_squared == GaussPoly([G(25, 25), G(-30, 10), G(1, -7)])

    def test_example2_z_constant(self):
        pair = hopf_from_quaternion(EXAMPLE2)
        dec = decompose_wronskian_quintic(pair)
        assert dec.case == DecompositionCase.Z_CONSTANT
        assert dec.omega == RatPoly([3, -7, 3])
        assert dec.z_squared == GaussPoly([G(-26, 26)])

    def test_product_reconstructs_wronskian(self):
        for quat in (EXAMPLE1, EXAMPLE2):
            pair = hopf_from_quaternion(quat)
            dec = decompose_wronskian_quintic(pair)
            assert dec.omega * dec.z_squared == wronskian(pair.z1, pair.z2)

    def test_degenerate_iff_cross_norm_not_square(self):
        # oracle: the decomposition exists exactly when |W|^2 = Re^2 + Im^2
        # is the square of a real polynomial
        rng = seeded(101)
        degenerate = decomposable = 0
        for _ in range(60):
            pair = hopf_from_quaternion(rand_quaternion_quadratic(rng))
            w = wronskian(pair.z1, pair.z2)
            if w.is_zero:
                continue
            dec = decompose_wronskian_quintic(pair)
            square = perfect_square_root(abs_squared(w)) is not None
            assert dec.exists == square
            degenerate += not dec.exists
            decomposable += dec.exists
        assert degenerate > 0  # random pairs are generically not 2-PH

    def test_proportional_pair_raises(self):
        z1 = GaussPoly([G(1), G(2, 1), G(0, 3)])
        pair = HopfPair(z1, GaussPoly([G(0, 2)]) * z1)
        with pytest.raises(DegenerateInputError):
            decompose_wronskian_quintic(pair)

    def test_constant_wronskian(self):
        pair = HopfPair(GaussPoly([G(0), G(1)]), GaussPoly([1]))  # z1 = t, z2 = 1
        dec = decompose_wronskian_quintic(pair)
        assert dec.case == DecompositionCase.BOTH_CONSTANT
        assert dec.omega == RatPoly([1])
        assert dec.z_squared == GaussPoly([1])

    def test_linear_wronskian_with_real_ratios(self):
        # z1 = t^2, z2 = 1 gives W = 2t
        pair = HopfPair(GaussPoly([G(0), G(0), G(1)]), GaussPoly([1]))
        dec = decompose_wronskian_quintic(pair)
        assert dec.case == DecompositionCase.Z_CONSTANT
        assert dec.omega == RatPoly([0, 1])
        assert dec.z_squared == GaussPoly([G(2)])

    def test_shared_real_factor_prefers_omega_constant(self):
        # z1 = (t-1)(t-2), z2 = (t-1)(t-3): W is a real multiple of (t-1)^2,
        # so both decompositions exist; the shared factor wins
        z1 = GaussPoly([G(2), G(-3), G(1)])
        z2 = GaussPoly([G(3), G(-4), G(1)])
        dec = decompose_wronskian_quintic(HopfPair(z1, z2))
        assert dec.case == DecompositionCase.OMEGA_CONSTANT
        assert monotone_test(HopfPair(z1, z2)) == GaussPoly([G(-1), G(1)])

    def test_degree_accounting(self):
        rng = seeded(33)
        for _ in range(40):
            pair = hopf_from_quaternion(generate_general_quintic(rng, height=6))
            dec = decompose_wronskian_quintic(pair)
            w = wronskian(pair.z1, pair.z2)
            assert dec.exists
            assert (dec.omega.degree or 0) + (dec.z_squared.degree or 0) == w.degree

    def test_degree_limit(self):
        cubic = GaussPoly([G(1), G(0), G(0), G(1)])
        with pytest.raises(UnsupportedDegreeError):
            decompose_wronskian_quintic(HopfPair(cubic, GaussPoly([1])))


class TestMonotoneTest:
    def test_example1(self):
        assert monotone_test(hopf_from_quaternion(EXAMPLE1)) == GaussPoly(
            [G(-1, -2), G(1)]
        )

    def test_example2(self):
        assert monotone_test(hopf_from_quaternion(EXAMPLE2)) is None

    def test_real_shared_factor(self):
        z1 = GaussPoly([G(2), G(-3), G(1)])
        z2 = GaussPoly([G(3), G(-4), G(1)])
        assert monotone_test(HopfPair(z1, z2)) == GaussPoly([G(-1), G(1)])

    def test_proportional_pair(self):
        # W vanishes, so the gcd is either member made monic
        z1 = GaussPoly([G(0, 2), G(2, 2), G(2)])  # 2 (t + 1)(t + i)
        pair = HopfPair(z1, GaussPoly([G(1, -3)]) * z1)
        assert monotone_test(pair) == GaussPoly([G(0, 1), G(1, 1), G(1)])
        constants = HopfPair(GaussPoly([G(3)]), GaussPoly([G(0, 6)]))
        assert monotone_test(constants) is None

    def test_pair_with_a_zero_polynomial(self):
        z = GaussPoly([G(1), G(0, 2), G(4)])
        monic = GaussPoly([G("1/4"), G(0, "1/2"), G(1)])
        assert monotone_test(HopfPair(z, GaussPoly())) == monic
        assert monotone_test(HopfPair(GaussPoly(), z)) == monic
        assert monotone_test(HopfPair(GaussPoly(), GaussPoly([G(0, 5)]))) is None

    def test_omega_constant_iff_shared_root_iff_double_root(self):
        # with W nonzero, omega is constant exactly when z1 and z2 share a
        # root exactly when W = c (t - r)^2 with c nonzero; half the pairs
        # get a planted shared root, real one time in four
        rng = seeded(61)
        shared = 0
        for k in range(200):
            if k % 2:
                z1, z2 = (random_gauss_upto(rng, 2) for _ in range(2))
            else:
                r = rand_gaussian(rng) if k % 8 else G(rand_fraction(rng))
                factor = GaussPoly([-r, G(1)])
                z1, z2 = (factor * random_gauss_upto(rng, 1) for _ in range(2))
            if z1.is_zero and z2.is_zero:
                continue
            pair = HopfPair(z1, z2)
            w = wronskian(z1, z2)
            if w.is_zero:
                continue
            c0, c1, c2 = (w.coefficient(i) for i in range(3))
            double_root = bool(c2) and c1 * c1 == 4 * c0 * c2
            omega_constant = (
                decompose_wronskian_quintic(pair).case == DecompositionCase.OMEGA_CONSTANT
            )
            assert omega_constant == (monotone_test(pair) is not None) == double_root
            shared += double_root
        assert 50 < shared < 150


class TestQuaternionDependence:
    def test_example2_coefficients(self):
        a0, a1, a2 = (EXAMPLE2.coefficient(k) for k in range(3))
        sol = quaternion_dependence(a0, a1, a2)
        assert sol is not None and not sol.degenerate
        assert (sol.c0, sol.c2) == (Fraction(-6, 7), Fraction(-6, 7))
        # residual check component-wise
        assert sol.c0 * a0 + sol.c2 * a2 == a1

    def test_zero_middle(self):
        sol = quaternion_dependence(Quaternion(1, 2, 3, 4), Quaternion(), Quaternion(1))
        assert sol is not None and (sol.c0, sol.c2) == (0, 0)

    def test_unmatched_component(self):
        sol = quaternion_dependence(
            Quaternion(1, 0, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 1, 0, 0)
        )
        assert sol is None

    def test_degenerate_parallel_pair(self):
        a0 = Quaternion(1, 2, 0, 0)
        sol = quaternion_dependence(a0, 3 * a0, 2 * a0)
        assert sol is not None and sol.degenerate
        assert sol.c0 * a0 + sol.c2 * (2 * a0) == 3 * a0

    def test_both_outer_zero(self):
        assert quaternion_dependence(Quaternion(), Quaternion(1), Quaternion()) is None
        sol = quaternion_dependence(Quaternion(), Quaternion(), Quaternion())
        assert sol is not None and sol.degenerate


class TestConstantZParameters:
    def test_example2(self):
        params = constant_z_parameters(EXAMPLE2)
        assert params.tan_two_theta == -1
        assert params.m1_squared == 66248
        assert params.m0_over_m1 == Fraction(-3, 7)
        assert params.m2_over_m1 == Fraction(-3, 7)
        assert predicted_dependence(params) == (Fraction(-6, 7), Fraction(-6, 7))

    def test_rational_parts(self):
        # the parameters read the parts as integers over one denominator;
        # they must equal the formulas on the rational parts themselves
        rng = seeded(98)
        for _ in range(10):
            quat = generate_general_quintic(rng, height=6)
            (w0, x0, y0, z0), (w2, x2, y2, z2) = (quat.coefficient(k).components() for k in (0, 2))
            n = y0 * w2 + z0 * x2 - w0 * y2 - x0 * z2
            d = z0 * w2 - y0 * x2 + x0 * y2 - w0 * z2
            params = constant_z_parameters(quat)
            assert params.m1_squared == 4 * (n * n + d * d)
            assert params.tan_two_theta == (n / d if d else None)

    def test_degenerate_when_top_coefficient_zero(self):
        a = QuaternionPolynomial([Quaternion(1, 2, 3, 4), Quaternion(0, 1, 0, 0)])
        params = constant_z_parameters(a)
        assert params.tan_two_theta is None
        assert params.m1_squared == 0

    def test_zero_constant_coefficient(self):
        a = QuaternionPolynomial([Quaternion(), Quaternion(1), Quaternion(0, 1, 0, 0)])
        params = constant_z_parameters(a)
        assert params.tan_two_theta is None
        assert params.m1_squared == 0

    def test_omega_constant_has_no_weight_ratios(self):
        params = constant_z_parameters(EXAMPLE1)
        assert params.m0_over_m1 is None and params.m2_over_m1 is None

    def test_proportional_pair_has_no_weight_ratios(self):
        # A(t) = (1 + t) A0 makes z1, z2 proportional: W vanishes identically
        a0 = Quaternion(1, 2, -1, 3)
        a = QuaternionPolynomial([a0, a0])
        pair = hopf_from_quaternion(a)
        assert wronskian(pair.z1, pair.z2).is_zero
        params = constant_z_parameters(a)
        assert params.m0_over_m1 is None and params.m2_over_m1 is None

    def test_cubic_is_unsupported(self):
        cubic = QuaternionPolynomial([Quaternion(1), Quaternion(), Quaternion(), Quaternion(0, 1)])
        with pytest.raises(UnsupportedDegreeError):
            constant_z_parameters(cubic)

    def test_prediction_matches_linear_solve(self):
        rng = seeded(99)
        for _ in range(30):
            quat = generate_general_quintic(rng, height=6)
            params = constant_z_parameters(quat)
            predicted = predicted_dependence(params)
            if predicted is None:
                continue
            sol = quaternion_dependence(*(quat.coefficient(k) for k in range(3)))
            assert sol is not None
            if not sol.degenerate:
                assert predicted == (sol.c0, sol.c2)


class TestClassify:
    def test_example1(self):
        report = classify_quintic(EXAMPLE1)
        assert report.quintic_class.kind == QuinticKind.MONOTONE_HELIX
        assert report.quintic_class.shared_factor == GaussPoly([G(-1, -2), G(1)])
        assert report.analysis.verdict.kind == HelixKind.HELIX
        assert report.analysis.is_2ph

    def test_example2(self):
        report = classify_quintic(EXAMPLE2)
        assert report.quintic_class.kind == QuinticKind.GENERAL_HELIX
        dep = report.quintic_class.dependence
        assert (dep.c0, dep.c2) == (Fraction(-6, 7), Fraction(-6, 7))
        assert report.analysis.verdict.kind == HelixKind.HELIX

    def test_hopf_input_equivalent(self):
        via_quat = classify_quintic(EXAMPLE1)
        via_hopf = classify_quintic(hopf_from_quaternion(EXAMPLE1))
        assert via_hopf.quintic_class == via_quat.quintic_class
        assert via_hopf.wronskian == via_quat.wronskian

    def test_random_independent_coefficients_not_helix(self):
        rng = seeded(424242)
        saw_not_helix = 0
        for _ in range(30):
            quat = rand_quaternion_quadratic(rng)
            pair = hopf_from_quaternion(quat)
            if wronskian(pair.z1, pair.z2).is_zero:
                continue
            report = classify_quintic(quat)
            if report.quintic_class.kind == QuinticKind.NOT_HELIX:
                saw_not_helix += 1
                assert not report.analysis.is_2ph
                assert report.analysis.verdict.kind == HelixKind.NOT_HELIX
        assert saw_not_helix > 25

    def test_proportional_pair_reports_degenerate(self):
        z1 = GaussPoly([G(1, 1), G(2), G(1)])
        pair = HopfPair(z1, GaussPoly([G(3)]) * z1)
        report = classify_quintic(pair)
        assert report.quintic_class.kind == QuinticKind.DEGENERATE
        assert report.analysis.verdict.kind == HelixKind.LINE
        assert report.decomposition is None

    def test_constant_z_without_dependence_is_still_a_helix(self):
        # A0 = A2 = 1, A1 = i + j: the Wronskian is i(t^2 - 1), a constant-z
        # decomposition whose omega has no linear term (m1 = 0).  The linear
        # system A1 = c0 A0 + c2 A2 is then unsolvable, yet the curve is a
        # perfectly good helix with (tau/kappa)^2 = 1.
        quat = QuaternionPolynomial(
            [Quaternion(1), Quaternion(0, 1, 1, 0), Quaternion(1)]
        )
        pair = hopf_from_quaternion(quat)
        dec = decompose_wronskian_quintic(pair)
        assert dec.case == DecompositionCase.Z_CONSTANT
        assert dec.omega == RatPoly([-1, 0, 1])
        report = classify_quintic(quat)
        assert report.quintic_class.kind == QuinticKind.GENERAL_HELIX
        assert report.quintic_class.dependence is None
        assert report.analysis.verdict.kind == HelixKind.HELIX
        ratio = None
        from phelix import RationalFunction, lancret_ratio_squared
        from phelix.curves import hodograph_from_hopf

        ratio = lancret_ratio_squared(hodograph_from_hopf(pair))
        assert ratio.is_constant and ratio == RationalFunction.constant(1)

    def test_degree_limit(self):
        cubic = QuaternionPolynomial([Quaternion(1), Quaternion(), Quaternion(), Quaternion(1)])
        with pytest.raises(UnsupportedDegreeError):
            classify_quintic(cubic)


class TestGenerators:
    def test_monotone_deterministic(self):
        a = generate_monotone_quintic(seeded(7), height=6)
        b = generate_monotone_quintic(seeded(7), height=6)
        assert a == b

    def test_general_deterministic(self):
        a = generate_general_quintic(seeded(7), height=6)
        b = generate_general_quintic(seeded(7), height=6)
        assert a == b

    @pytest.mark.parametrize(
        "generate, script",
        [
            # r, then r2 = r4: a proportional pair, whose curve is a line
            (generate_monotone_quintic, [1, 1, 0, 1] + [2, 1, 0, 1] * 2 + [1, 1, 0, 1] * 2),
            # A0 = A2 = 0: the zero polynomial
            (generate_general_quintic, [0, 1] * 8 + [1, 1] * 2),
            # A(t) = 1: a constant hodograph, whose Wronskian vanishes
            (generate_general_quintic, [1, 1] + [0, 1] * 9),
        ],
        ids=["monotone-proportional", "general-zero", "general-constant"],
    )
    def test_degenerate_draw_is_redrawn(self, generate, script):
        # the first attempt reads the script, every later one the seeded
        # stream, so a rejected first attempt leaves the seed's curve
        assert generate(_Scripted(8, script), height=6) == generate(seeded(8), height=6)

    def test_monotone_with_explicit_shared_root(self):
        def linear(root):
            return GaussPoly([-root, G(1)])

        shared = linear(G(1, 2))
        pair = HopfPair(
            GaussPoly([G(1)]) * shared * linear(G(3)),
            GaussPoly([G(2, 1)]) * shared * linear(G(0, -1)),
        )
        assert monotone_test(pair) == GaussPoly([G(-1, -2), G(1)])
        dec = decompose_wronskian_quintic(pair)
        assert dec.case == DecompositionCase.OMEGA_CONSTANT

    def test_general_reproduces_example2(self):
        a0, a2 = EXAMPLE2.coefficient(0), EXAMPLE2.coefficient(2)
        c0 = c2 = Fraction(-6, 7)
        assert QuaternionPolynomial([a0, c0 * a0 + c2 * a2, a2]) == EXAMPLE2

    def test_general_with_zero_coefficients(self):
        # c0 = c2 = 0: the degree-one quaternion vanishes
        quat = QuaternionPolynomial([Quaternion(1, 2, 0, 1), Quaternion(), Quaternion(0, 1, 1, 0)])
        assert classify_quintic(quat).is_helix

    def test_shared_factor_iff_omega_constant(self):
        rng = seeded(55)
        for _ in range(20):
            pair = generate_monotone_quintic(rng, height=6)
            dec = decompose_wronskian_quintic(pair)
            assert dec.case == DecompositionCase.OMEGA_CONSTANT
            assert monotone_test(pair) is not None
        for _ in range(20):
            quat = generate_general_quintic(rng, height=6)
            pair = hopf_from_quaternion(quat)
            dec = decompose_wronskian_quintic(pair)
            if dec.case == DecompositionCase.Z_CONSTANT:
                assert monotone_test(pair) is None

    def test_z_constant_implies_dependence_when_omega_has_linear_term(self):
        rng = seeded(56)
        for _ in range(20):
            quat = generate_general_quintic(rng, height=6)
            pair = hopf_from_quaternion(quat)
            dec = decompose_wronskian_quintic(pair)
            if dec.case != DecompositionCase.Z_CONSTANT:
                continue
            if not dec.omega.coefficient(1):
                continue  # m1 = 0: dependence need not exist
            sol = quaternion_dependence(*(quat.coefficient(k) for k in range(3)))
            assert sol is not None
            a0, a1, a2 = (quat.coefficient(k) for k in range(3))
            assert sol.c0 * a0 + sol.c2 * a2 == a1
