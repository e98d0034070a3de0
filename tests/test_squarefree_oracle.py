"""Differential test of Yun's square-free decomposition against sympy.

squarefree_decompose returns p = content * prod(f_i ** m_i) with monic,
square-free, pairwise coprime factors.  sympy's sqf_list reaches the same
decomposition by its own algorithm; after making its factors monic the two
must agree exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from conftest import rationals
from phelix import RatPoly, squarefree_decompose

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")

# p = c * a * b^2 * d^3 has degree at most 9
factors = st.lists(rationals, min_size=1, max_size=3).map(RatPoly)
cubed = st.lists(rationals, min_size=1, max_size=2).map(RatPoly)
nonzero = rationals.filter(lambda c: c != 0)


def _fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def sympy_decompose(p: RatPoly):
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
        T,
        domain="QQ",
    )
    content, pairs = sympy.sqf_list(poly)
    content = _fraction(content)
    monic = []
    for factor, mult in pairs:
        f = RatPoly([_fraction(c) for c in reversed(factor.all_coeffs())])
        content *= f.leading_coefficient**mult
        monic.append((f.monic(), mult))
    return content, monic


@given(nonzero, factors, factors, cubed)
def test_matches_sqf_list(c, a, b, d):
    p = c * a * b * b * d * d * d
    assume(not p.is_zero)
    content, ours = squarefree_decompose(p)
    theirs_content, theirs = sympy_decompose(p)
    assert content == theirs_content
    assert sorted(ours, key=lambda fm: fm[1]) == sorted(theirs, key=lambda fm: fm[1])
    product = RatPoly([content])
    for f, mult in ours:
        product = product * f**mult
    assert product == p
