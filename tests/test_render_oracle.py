"""The renderer and the encoders against their Fraction-tuple reference.

``str()`` of a RatPoly or GaussPoly, ``coefficient_strings`` and
``encode_gauss_poly`` write each coefficient from the parts' integer forms
(den, ints) with one gcd, and one renderer serves both classes, a RatPoly
being the Gaussian case with a zero imaginary part.  ``tests/oracles.py``
keeps the writer they replaced, which reads the tuple of reduced Fraction
or Gaussian-rational coefficients; the two must agree byte for byte.

Values are drawn two ways: built from coefficients (the form is cleared
from the least common denominator) and made by the arithmetic, from
products and sums, whose denominators need not be the least.  The
coefficients favour 0, 1 and -1, so the draws reach ±1 and ±i,
coefficients with a zero real or imaginary part, and the zero polynomial;
the others have denominators up to 12.
"""

from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import rationals
from oracles import encode_gauss_poly, encode_rat_poly, render_gauss_poly, render_rat_poly
from phelix import GaussPoly, GaussianRational, RatPoly
from phelix.curvespec import encode_gauss_poly as encode_gauss
from phelix.polynomials import coefficient_strings as encode_rat

units = st.sampled_from((0, 1, -1)).map(Fraction)
coefficients = st.one_of(units, units, rationals)
coefficient_lists = st.lists(coefficients, max_size=5)
scales = st.integers(1, 12)


def form_only(p: RatPoly, q: RatPoly, k: int, op: str) -> RatPoly:
    """A value made by the arithmetic, whose denominator need not be the least."""
    if op == "one":
        return p * RatPoly.one()
    if op == "scaled":
        # over a denominator k^2 times too large: ints k p over den d k
        return p * k * Fraction(1, k)
    if op == "sum":
        return p + q * Fraction(1, k) - q * Fraction(1, k)
    if op == "product":
        return p * q
    return p - p


ops = st.sampled_from(("one", "scaled", "sum", "product", "zero"))
built_rat = coefficient_lists.map(RatPoly)
formed_rat = st.builds(form_only, built_rat, built_rat, scales, ops)
built_gauss = st.lists(st.builds(GaussianRational, coefficients, coefficients), max_size=5).map(
    GaussPoly
)
formed_gauss = st.one_of(
    st.builds(GaussPoly.from_parts, formed_rat, formed_rat),
    st.builds(lambda z, w: z * w, built_gauss, built_gauss),
)


@settings(max_examples=200)
@given(built_rat)
def test_built_rat_poly(p):
    assert str(p) == render_rat_poly(p)
    assert encode_rat(p) == encode_rat_poly(p)


@settings(max_examples=200)
@given(formed_rat)
def test_form_only_rat_poly(p):
    text, encoded = str(p), encode_rat(p)
    assert text == render_rat_poly(p)
    assert encoded == encode_rat_poly(p)


@settings(max_examples=200)
@given(built_gauss)
def test_built_gauss_poly(p):
    assert str(p) == render_gauss_poly(p)
    assert encode_gauss(p) == encode_gauss_poly(p)


@settings(max_examples=200)
@given(formed_gauss)
def test_form_only_gauss_poly(p):
    text, encoded = str(p), encode_gauss(p)
    assert text == render_gauss_poly(p)
    assert encoded == encode_gauss_poly(p)


def test_units_and_zero():
    i = GaussianRational(0, 1)
    cases = [
        (GaussPoly([1, -1, i, -i]), "-it^3 + it^2 - t + 1"),
        (GaussPoly([GaussianRational(Fraction(1, 2), Fraction(-2, 3)), Fraction(-3, 4) * i]),
         "-(3/4)it + (1/2 - (2/3)i)"),
        (GaussPoly([GaussianRational(-1, -1), GaussianRational(0, 7)]), "7it + (-1 - i)"),
        (GaussPoly(), "0"),
    ]
    for p, text in cases:
        assert str(p) == render_gauss_poly(p) == text
        assert str(p.re) == render_rat_poly(p.re)
    assert str(RatPoly([Fraction(-1, 2), 0, -1])) == "-t^2 - 1/2"
    assert encode_rat(RatPoly()) == [] and encode_gauss(GaussPoly()) == []
    assert encode_gauss(GaussPoly.from_parts(RatPoly([1, 2]), RatPoly([3]))) == [
        ["1", "3"], ["2", "0"]
    ]
