"""Exact algebra kernel: arithmetic, gcd, square-free, perfect squares, Wronskian."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import (
    compose_affine,
    gauss_polys,
    gauss_rationals,
    nonzero_rat_polys,
    rand_rat_poly,
    rat_polys,
    rationals,
    seeded,
    sylvester_resultant,
)
from phelix import (
    DegenerateInputError,
    GaussPoly,
    GaussianRational,
    HopfPair,
    RatPoly,
    RationalFunction,
    ScaledSqrt,
    monotone_test,
    perfect_square_root,
    poly_gcd,
    squarefree_decompose,
    wronskian,
)
from oracles import horner
from phelix.analysis import _integer_cleared
from phelix.polynomials import primitive_split


def G(re, im=0):
    return GaussianRational(re, im)


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


class TestGaussianRational:
    def test_basic_arithmetic(self):
        a = G(1, -7)
        b = G(Fraction(1, 2), 3)
        assert a + b == G(Fraction(3, 2), -4)
        assert a * b == G(Fraction(1, 2) + 21, Fraction(3) - Fraction(7, 2))
        assert a - a == G(0)
        assert a.conjugate() == G(1, 7)
        assert a.norm_squared() == 50

    @given(gauss_rationals, gauss_polys)
    def test_polynomial_operands_defer_to_the_polynomial(self, c, z):
        # the scalar's operators return NotImplemented for a GaussPoly, so
        # Python reaches GaussPoly's reflected operator and both orders agree
        assert c * z == z * c
        assert c + z == z + c
        for op in (lambda: c - z, lambda: c / z):
            with pytest.raises(TypeError, match="unsupported operand"):
                op()

    def test_division_roundtrip(self):
        a = G(3, -2)
        b = G(Fraction(1, 5), 4)
        assert (a / b) * b == a
        with pytest.raises(ZeroDivisionError):
            a / G(0)

    @given(gauss_rationals, gauss_rationals, gauss_rationals)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(gauss_rationals)
    def test_norm_is_self_times_conjugate(self, a):
        assert a * a.conjugate() == G(a.norm_squared())

    @pytest.mark.parametrize("value", [0, 1, -3, Fraction(2, 7)])
    def test_real_value_hashes_as_its_real_part(self, value):
        # equal objects hash equal, so sets and dicts see one member
        assert G(value) == value
        assert hash(G(value)) == hash(value)
        assert len({G(value), value}) == 1
        assert {value: "real"}[G(value)] == "real"
        assert G(value) in {value}

    def test_nonreal_value_is_not_its_real_part(self):
        assert G(1, 1) not in {1, G(1)}
        assert len({G(1, 1), G(1, -1), G(1)}) == 3


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------


class TestPolyArithmetic:
    def test_derivative_power_rule(self):
        assert RatPoly([0, -3, 1]).derivative() == RatPoly([-3, 2])

    def test_product(self):
        assert RatPoly([-1, 1]) * RatPoly([1, 1]) == RatPoly([-1, 0, 1])

    def test_evaluate_even_sextic_at_one(self):
        # 9 + 9t^2 + 3t^4 + t^6 at t=1 is the coefficient sum 9+9+3+1
        p = RatPoly([9, 0, 9, 0, 3, 0, 1])
        assert p.evaluate(1) == 22

    def test_zero_polynomial_degree_is_sentinel(self):
        z = RatPoly([0, 0])
        assert z.is_zero
        assert z.degree is None
        assert RatPoly([0, 1]).degree == 1

    def test_normal_form_strips_leading_zeros(self):
        assert RatPoly([1, 2, 0, 0]) == RatPoly([1, 2])

    def test_gauss_operand_is_declined_without_formatting(self, monkeypatch):
        # RatPoly declines a GaussPoly by its type, so GaussPoly.__rmul__
        # runs and no error message (with the operand's repr) is built
        def no_repr(z):
            raise AssertionError("GaussPoly.__repr__ was called")

        monkeypatch.setattr(GaussPoly, "__repr__", no_repr)
        p, z = RatPoly([Fraction(1, 2), -3]), GaussPoly([G(1, 2), G(0, -1)])
        assert p * z == GaussPoly.from_parts(p * z.re, p * z.im)
        assert p * 2 == p + p
        with pytest.raises(TypeError):
            p * 1.5

    @given(rat_polys, rat_polys)
    def test_derivative_of_product(self, p, q):
        lhs = (p * q).derivative()
        assert lhs == p.derivative() * q + p * q.derivative()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_power_products(self, monkeypatch, n):
        # binary powering from the base: one product per bit after the top
        # one, plus one per further set bit
        p = RatPoly([Fraction(1, 2), -3, Fraction(2, 5), 0, 1])
        expected = p
        for _ in range(n - 1):
            expected = expected * p
        products = []
        original = RatPoly.__mul__

        def counted(a, b):
            products.append(1)
            return original(a, b)

        monkeypatch.setattr(RatPoly, "__mul__", counted)
        assert p**n == expected
        assert len(products) == n.bit_length() - 1 + bin(n).count("1") - 1

    @given(rat_polys, st.integers(0, 6))
    def test_power_is_repeated_product(self, p, n):
        expected = RatPoly.one()
        for _ in range(n):
            expected = expected * p
        assert p**n == expected

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            RatPoly([1, 1]) ** -1

    @given(rat_polys, nonzero_rat_polys)
    def test_divmod_identity(self, a, b):
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.is_zero or r.degree < b.degree

    @given(rat_polys, rationals, rationals, rationals)
    def test_compose_affine_agrees_with_evaluation(self, p, a, b, t):
        assert compose_affine(p, a, b).evaluate(t) == p.evaluate(a * t + b)

    def test_antiderivative_inverts_derivative(self):
        p = RatPoly([Fraction(1, 3), 0, 5, -2])
        assert p.antiderivative().derivative() == p

    def test_gauss_poly_parts_roundtrip(self):
        z = GaussPoly([G(1, 2), G(0, -3), G(5)])
        assert z.re == RatPoly([1, 0, 5]) and z.im == RatPoly([2, -3])
        assert GaussPoly.from_parts(z.re, z.im) == z

    def test_mixed_real_complex_products(self):
        real = RatPoly([1, 1])
        z = GaussPoly([G(0, 1)])
        assert real * z == GaussPoly([G(0, 1), G(0, 1)])
        assert z * real == GaussPoly([G(0, 1), G(0, 1)])


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


class TestGcd:
    def test_simple(self):
        g = poly_gcd(RatPoly([-1, 0, 1]), RatPoly([-1, 1]))
        assert g == RatPoly([-1, 1])

    def test_both_zero_raises(self):
        with pytest.raises(DegenerateInputError):
            poly_gcd(RatPoly(), RatPoly())

    def test_shared_gaussian_root(self):
        # z1, z2 from the first reference curve share the root 1 + 2i
        z1 = GaussPoly([G(0, 10), G(-3, -5), G(1, 1)])
        z2 = GaussPoly([G(10, 5), G(-9, 3), G(1, -2)])
        root = G(1, 2)
        assert horner(z1, root) == G(0)
        assert horner(z2, root) == G(0)
        assert monotone_test(HopfPair(z1, z2)) == GaussPoly([G(-1, -2), G(1)])

    def test_coprime_pair_has_nonzero_resultant(self):
        # the second reference curve's pair shares no root
        z1 = GaussPoly([G(5, 1), G(12, 18), G(-19, -22)])
        z2 = GaussPoly([G(3, -1), G(24, -12), G(-31, 15)])
        assert sylvester_resultant(z1, z2) != G(0)
        assert monotone_test(HopfPair(z1, z2)) is None

    @given(nonzero_rat_polys, nonzero_rat_polys)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        assert (a % g).is_zero and (b % g).is_zero
        assert g.leading_coefficient == 1

    def test_common_roots_are_gcd_roots_numerically(self):
        rng = seeded(20240)
        for _ in range(25):
            common = rand_rat_poly(rng, 2)
            a = common * rand_rat_poly(rng, 2)
            b = common * rand_rat_poly(rng, 1)
            g = poly_gcd(a, b)
            assert (g % common.monic()).is_zero
            roots = np.roots([float(c) for c in reversed(common.coeffs)])
            scale = max(abs(float(c)) for c in g.coeffs)
            for r in roots:
                value = sum(complex(float(c)) * r**k for k, c in enumerate(g.coeffs))
                assert abs(value) <= 1e-8 * scale * max(1.0, abs(r)) ** (g.degree or 0)


# ---------------------------------------------------------------------------
# square-free decomposition and perfect squares
# ---------------------------------------------------------------------------


class TestSquarefree:
    def test_cube_plus_square(self):
        content, factors = squarefree_decompose(RatPoly([0, 0, 1, 1]))
        assert content == 1
        # factors come out in ascending multiplicity order
        assert factors == [(RatPoly([1, 1]), 1), (RatPoly([0, 1]), 2)]

    def test_square_of_irreducible(self):
        content, factors = squarefree_decompose(RatPoly([1, 0, 1]) ** 2)
        assert content == 1
        assert factors == [(RatPoly([1, 0, 1]), 2)]

    def test_cross_norm_square_shape(self):
        # 4 * (1+t^2)^2 * (9+9t^2+3t^4+t^6)^2, the squared cross-product norm
        # of the built-in degree-7 curve
        a = RatPoly([1, 0, 1])
        b = RatPoly([9, 0, 9, 0, 3, 0, 1])
        p = 4 * (a * b) ** 2
        content, factors = squarefree_decompose(p)
        assert content == 4
        assert factors == [(a * b, 2)]
        rebuilt = RatPoly([content])
        for f, m in factors:
            rebuilt = rebuilt * f**m
        assert rebuilt == p

    def test_zero_raises(self):
        with pytest.raises(DegenerateInputError):
            squarefree_decompose(RatPoly())

    @given(nonzero_rat_polys)
    def test_reconstruction(self, p):
        content, factors = squarefree_decompose(p)
        rebuilt = RatPoly([content])
        for f, m in factors:
            assert f.leading_coefficient == 1
            rebuilt = rebuilt * f**m
        assert rebuilt == p


class TestPerfectSquare:
    def test_monic_square(self):
        assert perfect_square_root(RatPoly([1, 2, 1])) == ScaledSqrt(1, RatPoly([1, 1]))

    def test_non_square_scale(self):
        assert perfect_square_root(RatPoly([0, 0, 5])) == ScaledSqrt(5, RatPoly([0, 1]))

    def test_odd_multiplicity(self):
        assert perfect_square_root(RatPoly([0, 0, 0, 1])) is None

    def test_negative_content(self):
        assert perfect_square_root(RatPoly([0, 0, -1])) is None

    def test_zero(self):
        root = perfect_square_root(RatPoly())
        assert root is not None and root.is_zero

    def test_ninth_of_square(self):
        body = RatPoly([9, 0, 9, 0, 3, 0, 1])
        p = Fraction(1, 9) * body**2
        root = perfect_square_root(p)
        assert root == ScaledSqrt(Fraction(1, 9), body)
        assert root.as_rat_poly() == Fraction(1, 3) * body

    @given(nonzero_rat_polys, rationals.filter(lambda c: c > 0))
    def test_scaled_square_roundtrip(self, q, c):
        p = c * q * q
        root = perfect_square_root(p)
        assert root is not None
        assert root.scale * (root.body * root.body) == p

    @given(
        nonzero_rat_polys,
        rationals.filter(lambda c: c != 0),
        rationals.filter(lambda c: c > 0),
    )
    def test_root_is_already_normal(self, q, k, c):
        # k * q has any content, negative included, and c keeps the square
        # rational and non-primitive; the root the kernel builds without
        # ScaledSqrt's normalization must be the one that normalization gives
        q = k * q
        root = perfect_square_root(c * q * q)
        assert root == ScaledSqrt(root.scale, root.body)
        assert root == ScaledSqrt(c, q)
        den, ints = root.body._form
        assert tuple(Fraction(v, den) for v in ints) == root.body.coeffs

    @given(nonzero_rat_polys, rationals)
    def test_adjoined_odd_root_kills_squareness(self, q, r):
        p = q * q * RatPoly([-r, 1])
        assert perfect_square_root(p) is None


class TestPrimitiveSplit:
    @given(st.lists(rationals, max_size=6))
    def test_content_times_ints(self, values):
        content, ints = primitive_split(values)
        assert all(isinstance(v, int) for v in ints)
        assert [content * v for v in ints] == values
        if not any(values):
            assert content == 0 and ints == [0] * len(values)
        else:
            assert math.gcd(*ints) == 1
            assert next(v for v in reversed(ints) if v) > 0

    def test_examples(self):
        assert primitive_split([Fraction(1, 2), Fraction(-3, 4)]) == (Fraction(-1, 4), [-2, 3])
        assert primitive_split([Fraction(0), Fraction(0)]) == (0, [0, 0])
        assert primitive_split([]) == (0, [])

    @given(st.lists(rationals, min_size=1, max_size=4).filter(any), st.integers(0, 3))
    def test_integer_cleared_first_nonzero_positive(self, values, zeros):
        values = (Fraction(0),) * zeros + tuple(values)
        cleared = _integer_cleared(values)
        assert all(v.denominator == 1 for v in cleared)
        assert math.gcd(*(v.numerator for v in cleared)) == 1
        assert next(v for v in cleared if v) > 0
        # a rational multiple of the input
        ratio = next(c / v for c, v in zip(cleared, values) if v)
        assert tuple(ratio * v for v in values) == cleared

    def test_integer_cleared_leading_zeros(self):
        assert _integer_cleared((Fraction(0), Fraction(-2), Fraction(4))) == (0, 1, -2)


class TestScaledSqrt:
    def test_canonicalization(self):
        assert ScaledSqrt(1, RatPoly([2, 2])) == ScaledSqrt(4, RatPoly([1, 1]))
        assert ScaledSqrt(1, RatPoly([0, 0, 5])) == ScaledSqrt(25, RatPoly([0, 0, 1]))

    def test_negative_scale_rejected(self):
        with pytest.raises(DegenerateInputError):
            ScaledSqrt(-1, RatPoly([1]))

    def test_as_rat_poly(self):
        assert ScaledSqrt(4, RatPoly([0, 1])).as_rat_poly() == RatPoly([0, 2])
        assert ScaledSqrt(2, RatPoly([0, 1])).as_rat_poly() is None

    def test_rendering(self):
        assert str(ScaledSqrt(4, RatPoly([0, 1]))) == "2t"
        assert str(ScaledSqrt(2, RatPoly([0, 1]))) == "sqrt(2)*(t)"


# ---------------------------------------------------------------------------
# Wronskian
# ---------------------------------------------------------------------------


class TestWronskian:
    def test_first_reference_pair(self):
        # independent oracle: expand lead * (t - root)^2 with scalar arithmetic
        z1 = GaussPoly([G(0, 10), G(-3, -5), G(1, 1)])
        z2 = GaussPoly([G(10, 5), G(-9, 3), G(1, -2)])
        lead, root = G(1, -7), G(1, 2)
        expected = GaussPoly([lead * root * root, G(-2) * lead * root, lead])
        assert wronskian(z1, z2) == expected

    def test_second_reference_pair(self):
        z1 = GaussPoly([G(5, 1), G(12, 18), G(-19, -22)])
        z2 = GaussPoly([G(3, -1), G(24, -12), G(-31, 15)])
        scale = G(-26, 26)
        expected = GaussPoly([scale * 3, scale * -7, scale * 3])
        assert wronskian(z1, z2) == expected

    @given(gauss_polys)
    def test_antisymmetry(self, z):
        assert wronskian(z, z).is_zero

    @given(gauss_polys, gauss_polys, gauss_polys, gauss_rationals, gauss_rationals)
    def test_bilinearity(self, z1, z2, z3, a, b):
        left = wronskian(GaussPoly([a]) * z1 + GaussPoly([b]) * z3, z2)
        right = GaussPoly([a]) * wronskian(z1, z2) + GaussPoly([b]) * wronskian(z3, z2)
        assert left == right

    def test_degree_bound(self):
        z1 = GaussPoly([G(0), G(1), G(2)])
        z2 = GaussPoly([G(3), G(0), G(1, 1)])
        w = wronskian(z1, z2)
        assert w.is_zero or w.degree <= 3


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class TestRationalFunction:
    def test_reduction(self):
        num = RatPoly([-1, 0, 1])
        den = RatPoly([1, 1]) * RatPoly([0, 2])
        r = RationalFunction(num, den)
        assert r.num == RatPoly([Fraction(-1, 2), Fraction(1, 2)])
        assert r.den == RatPoly([0, 1])

    def test_denominator_positive_leading(self):
        r = RationalFunction(RatPoly([1]), RatPoly([0, -2]))
        assert r.den.leading_coefficient > 0

    def test_constancy(self):
        r = RationalFunction(RatPoly([2, 2]), RatPoly([1, 1]))
        assert r.is_constant and r == RationalFunction.constant(2)
        assert not RationalFunction(RatPoly([0, 1]), RatPoly([1, 1])).is_constant

    def test_zero_denominator_rejected(self):
        with pytest.raises(DegenerateInputError):
            RationalFunction(RatPoly([1]), RatPoly())

    @given(rationals)
    def test_constant_is_the_reduced_quotient(self, value):
        expected = RationalFunction(RatPoly([value]), RatPoly.one())
        assert RationalFunction.constant(value) == expected

    def test_evaluate(self):
        r = RationalFunction(RatPoly([0, 1]), RatPoly([1, 0, 1]))
        assert r.evaluate(2) == Fraction(2, 5)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


class TestRendering:
    def test_rat_poly_descending_with_signs(self):
        assert str(RatPoly([0, -3, 1])) == "t^2 - 3t"
        assert str(RatPoly([3, -7, 3])) == "3t^2 - 7t + 3"
        assert str(RatPoly([3, 0, 3, 0, 1, 0, Fraction(1, 3)])) == "(1/3)t^6 + t^4 + 3t^2 + 3"
        assert str(RatPoly()) == "0"

    def test_gauss_poly_rendering(self):
        p = GaussPoly([G(25, 25), G(-30, 10), G(1, -7)])
        assert str(p) == "(1 - 7i)t^2 + (-30 + 10i)t + (25 + 25i)"
        assert str(GaussPoly([G(0, 1), G(-2)])) == "-2t + i"
