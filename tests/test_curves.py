"""Representation conversions: quaternion, Hopf, hodograph, Bezier, integration."""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import quaternion_quadratics, quaternions, rationals
from oracles import (
    bezier_evaluate,
    horner,
    quaternion_conjugate,
    quaternion_hodograph_product,
    quaternion_norm_squared,
    sigma_poly,
)
from phelix import (
    DegenerateInputError,
    GaussPoly,
    GaussianRational,
    Hodograph,
    HopfPair,
    PolynomialCurve,
    Quaternion,
    QuaternionPolynomial,
    RatPoly,
    UnsupportedDegreeError,
    bezier_to_power,
    hodograph_from_hopf,
    hodograph_from_quaternion,
    hopf_from_quaternion,
    integrate,
    quaternion_from_hopf,
)


def G(re, im=0):
    return GaussianRational(re, im)


EXAMPLE1 = QuaternionPolynomial(
    [Quaternion(0, 10, 5, 10), Quaternion(-3, -5, 3, -9), Quaternion(1, 1, -2, 1)]
)
EXAMPLE2 = QuaternionPolynomial(
    [Quaternion(5, 1, -1, 3), Quaternion(12, 18, -12, 24), Quaternion(-19, -22, 15, -31)]
)


class TestQuaternion:
    def test_hamilton_table(self):
        i = Quaternion(0, 1, 0, 0)
        j = Quaternion(0, 0, 1, 0)
        k = Quaternion(0, 0, 0, 1)
        assert i * j == k
        assert j * k == i
        assert k * i == j
        assert i * i == Quaternion(-1)
        assert j * i == Quaternion(0, 0, 0, -1)

    def test_conjugate_norm(self):
        q = Quaternion(1, -2, 3, Fraction(1, 2))
        assert q * quaternion_conjugate(q) == Quaternion(quaternion_norm_squared(q))

    def test_polynomial_operand_is_a_plain_type_error(self):
        # no quaternion polynomial arithmetic exists, so both orders must end
        # in Python's own TypeError, not a failed coercion
        a = Quaternion(1, 2, 3, 4)
        poly = QuaternionPolynomial([a, Quaternion(0, 1)])
        for op in (lambda: a * poly, lambda: poly * a, lambda: a + poly, lambda: a - poly):
            with pytest.raises(TypeError, match="unsupported operand"):
                op()
        assert 2 * a == a * 2 == a + a

    @pytest.mark.parametrize("value", [0, 2, -5, Fraction(3, 4)])
    def test_scalar_hashes_as_its_scalar_part(self, value):
        # equal objects hash equal, so sets and dicts see one member
        assert Quaternion(value) == value
        assert hash(Quaternion(value)) == hash(value)
        assert len({Quaternion(value), value}) == 1
        assert {value: "scalar"}[Quaternion(value)] == "scalar"
        assert Quaternion(value) in {value}

    def test_vector_part_keeps_values_apart(self):
        assert Quaternion(2, 0, 0, 1) not in {2, Quaternion(2)}
        assert len({Quaternion(2, 1), Quaternion(2, 0, 1), Quaternion(2)}) == 3

    @given(quaternions, quaternions)
    def test_norm_multiplicative(self, a, b):
        norm = quaternion_norm_squared
        assert norm(a * b) == norm(a) * norm(b)


class TestHodographFromQuaternion:
    def test_constant_one(self):
        h = hodograph_from_quaternion(QuaternionPolynomial([Quaternion(1)]))
        assert h.vector() == (RatPoly([1]), RatPoly(), RatPoly())

    def test_constant_i(self):
        h = hodograph_from_quaternion(QuaternionPolynomial([Quaternion(0, 1, 0, 0)]))
        assert h.vector() == (RatPoly([1]), RatPoly(), RatPoly())

    def test_zero_raises(self):
        with pytest.raises(DegenerateInputError):
            hodograph_from_quaternion(QuaternionPolynomial())

    def test_component_formula_matches_quaternion_product(self):
        # independent oracle: the literal product A(t) * i * conj(A(t))
        for a in (EXAMPLE1, EXAMPLE2):
            product = quaternion_hodograph_product(a)
            u, v, p, q = product.component_polys()
            assert u.is_zero  # pure vector
            assert hodograph_from_quaternion(a).vector() == (v, p, q)

    @given(quaternion_quadratics)
    def test_product_route_agrees(self, a):
        product = quaternion_hodograph_product(a)
        scalar, x, y, z = product.component_polys()
        assert scalar.is_zero
        assert hodograph_from_quaternion(a).vector() == (x, y, z)

    @given(quaternion_quadratics)
    def test_pythagorean_identity(self, a):
        dx, dy, dz = hodograph_from_quaternion(a).vector()
        sigma = sigma_poly(a)
        assert dx * dx + dy * dy + dz * dz == sigma * sigma


class TestHopf:
    def test_unit_pair(self):
        h = hodograph_from_hopf(HopfPair(GaussPoly([1]), GaussPoly()))
        assert h.vector() == (RatPoly([1]), RatPoly(), RatPoly())

    def test_swapped_unit_pair_flips_x(self):
        h = hodograph_from_hopf(HopfPair(GaussPoly(), GaussPoly([1])))
        assert h.vector() == (RatPoly([-1]), RatPoly(), RatPoly())

    def test_both_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            HopfPair(GaussPoly(), GaussPoly())

    def test_constant_one_splits(self):
        pair = hopf_from_quaternion(QuaternionPolynomial([Quaternion(1)]))
        assert pair.z1 == GaussPoly([1])
        assert pair.z2.is_zero

    def test_example1_reassembly(self):
        pair = hopf_from_quaternion(EXAMPLE1)
        assert pair.z1 == GaussPoly([G(0, 10), G(-3, -5), G(1, 1)])
        assert pair.z2 == GaussPoly([G(10, 5), G(-9, 3), G(1, -2)])

    def test_example2_reassembly(self):
        pair = hopf_from_quaternion(EXAMPLE2)
        assert pair.z1 == GaussPoly([G(5, 1), G(12, 18), G(-19, -22)])
        assert pair.z2 == GaussPoly([G(3, -1), G(24, -12), G(-31, 15)])

    @given(quaternion_quadratics)
    def test_roundtrip(self, a):
        assert quaternion_from_hopf(hopf_from_quaternion(a)) == a

    @given(quaternion_quadratics)
    def test_routes_commute(self, a):
        via_hopf = hodograph_from_hopf(hopf_from_quaternion(a))
        assert via_hopf == hodograph_from_quaternion(a)

    def test_sigma_of_pair(self):
        pair = HopfPair(GaussPoly([G(0), G(1)]), GaussPoly([1]))
        assert sigma_poly(pair) == RatPoly([1, 0, 1])

    def test_sigma_of_constant(self):
        assert sigma_poly(QuaternionPolynomial([Quaternion(1)])) == RatPoly([1])

    def test_example1_sigma_at_zero(self):
        assert sigma_poly(EXAMPLE1).evaluate(0) == 225


class TestBezier:
    def test_partition_of_unity(self):
        q = Quaternion(2, -1, 3, 5)
        assert bezier_to_power([q, q, q]) == QuaternionPolynomial([q])

    def test_middle_term(self):
        c1 = Quaternion(1, 2, 3, 4)
        zero = Quaternion()
        expected = QuaternionPolynomial([zero, 2 * c1, -2 * c1])
        assert bezier_to_power([zero, c1, zero]) == expected

    def test_general_combination(self):
        c0, c1, c2 = Quaternion(1), Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 1)
        a = bezier_to_power([c0, c1, c2])
        assert a.coefficient(0) == c0
        assert a.coefficient(1) == 2 * (c1 - c0)
        assert a.coefficient(2) == c0 - 2 * c1 + c2

    def test_too_many_controls(self):
        with pytest.raises(UnsupportedDegreeError):
            bezier_to_power([Quaternion(1)] * 4)

    @given(
        st.lists(quaternions, min_size=1, max_size=3),
        st.lists(rationals, min_size=10, max_size=10),
    )
    def test_roundtrip_at_random_parameters(self, controls, params):
        a = bezier_to_power(controls)
        for t in params:
            assert horner(a, t) == bezier_evaluate(controls, t)


class TestIntegrate:
    def test_unit_speed_line(self):
        curve = integrate(Hodograph(RatPoly([1]), RatPoly(), RatPoly()))
        assert curve == PolynomialCurve(RatPoly([0, 1]), RatPoly(), RatPoly())

    def test_with_origin(self):
        curve = integrate(Hodograph(RatPoly([0, 2]), RatPoly(), RatPoly()), (1, 1, 1))
        assert curve.x == RatPoly([1, 0, 1])
        assert curve.y == RatPoly([1])
        assert curve.z == RatPoly([1])

    def test_degree7_reference_curve_roundtrip(self):
        # differentiate the built-in degree-7 curve, re-integrate from the
        # origin, and get the curve back exactly
        alpha = PolynomialCurve(
            RatPoly([0, -3, 0, 1, 0, Fraction(1, 5), 0, Fraction(1, 21)]),
            RatPoly([0, 0, 3, 0, Fraction(-1, 2)]),
            RatPoly([0, 0, 0, -2]),
        )
        assert integrate(alpha.hodograph(), (0, 0, 0)) == alpha
        assert alpha.evaluate(1) == (Fraction(-184, 105), Fraction(5, 2), Fraction(-2))

    @given(quaternion_quadratics)
    def test_integrate_then_differentiate(self, a):
        h = hodograph_from_quaternion(a)
        assert integrate(h, (3, -2, Fraction(1, 7))).hodograph() == h
