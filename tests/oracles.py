"""Independent oracles that only the tests use.

Each one recomputes a value the library derives another way: the hodograph
as the literal quaternion product A(t) * i * conj(A(t)), the speed as
|A|^2 = |z1|^2 + |z2|^2, the Bernstein form evaluated directly, Horner's
rule over any coefficient type, sums of products of reduced quotients
over one common denominator, and polynomial products and Euclidean
division one coefficient object at a time (the library splits Gaussian
polynomials into rational parts and convolves integers instead).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Optional, Tuple

from phelix import (
    HopfPair,
    Quaternion,
    QuaternionPolynomial,
    RatPoly,
    RationalFunction,
    UnsupportedDegreeError,
)
from phelix.polynomials import as_fraction
from phelix.quintic import ConstantZParameters

def horner(p, t):
    """p(t) by Horner's rule on p's own coefficients, term by term."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = c + acc * t
    return acc


def quaternion_conjugate(q: Quaternion) -> Quaternion:
    return Quaternion(q.w, -q.x, -q.y, -q.z)


def quaternion_norm_squared(q: Quaternion) -> Fraction:
    return q.w**2 + q.x**2 + q.y**2 + q.z**2


def convolve(a, b, zero, mul=operator.mul, add=operator.add) -> list:
    """Product of two coefficient lists, one mul and one add per term pair.

    The coefficients may be any ring elements (noncommutative ones keep the
    order a * b); an empty list is the zero polynomial.
    """
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return out


def long_divmod(a, b, one) -> Tuple[list, list]:
    """(quotient, remainder) lists of a / b over a field, b without trailing zeros.

    Euclidean long division on the coefficient objects: each step divides
    the remainder's top coefficient by b's leading one.
    """
    zero = one - one
    rem = list(a)
    dn = len(b)
    if len(rem) < dn:
        return [], rem
    quot = [zero] * (len(rem) - dn + 1)
    inv_lead = one / b[-1]
    for k in range(len(rem) - dn, -1, -1):
        c = rem[k + dn - 1] * inv_lead
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] = rem[k + j] - c * y
    return quot, rem[: dn - 1]


def _hamilton(a, b):
    """Hamilton product of two (w, x, y, z) component tuples."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def _tuple_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def quaternion_hodograph_product(a: QuaternionPolynomial) -> QuaternionPolynomial:
    """The literal quaternion product A(t) * i * conj(A(t)).

    Always a pure vector (zero scalar part); its i, j, k components equal the
    hodograph components.  The product is convolved here on component
    tuples, so it shares no arithmetic with the library.
    """
    coeffs = [c.components() for c in a.coeffs]
    conj = [(w, -x, -y, -z) for w, x, y, z in coeffs]
    zero = (0, 0, 0, 0)
    times_i = convolve(coeffs, [(0, 1, 0, 0)], zero, _hamilton, _tuple_add)
    product = convolve(times_i, conj, zero, _hamilton, _tuple_add)
    return QuaternionPolynomial([Quaternion(*c) for c in product])


def sigma_poly(source) -> RatPoly:
    """The exact speed polynomial u^2 + v^2 + p^2 + q^2 = |z1|^2 + |z2|^2."""
    if isinstance(source, QuaternionPolynomial):
        u, v, p, q = source.component_polys()
        return u * u + v * v + p * p + q * q
    if isinstance(source, HopfPair):
        return source.z1.norm_squared() + source.z2.norm_squared()
    raise TypeError(f"expected a quaternion polynomial or Hopf pair, got {source!r}")


def bezier_evaluate(controls, t) -> Quaternion:
    """Evaluate the Bernstein form directly (de Casteljau-free, exact)."""
    controls = [Quaternion.coerce(c) for c in controls]
    t = as_fraction(t)
    s = 1 - t
    n = len(controls) - 1
    if n == 0:
        return controls[0]
    if n == 1:
        return s * controls[0] + t * controls[1]
    if n == 2:
        return (s * s) * controls[0] + (2 * s * t) * controls[1] + (t * t) * controls[2]
    raise UnsupportedDegreeError(f"expected 1 to 3 control quaternions, got {n + 1}")


def predicted_dependence(params: ConstantZParameters) -> Optional[Tuple[Fraction, Fraction]]:
    """(c0, c2) = (2*m2/m1, 2*m0/m1) with omega = m0 + m1*t + m2*t^2."""
    if params.m0_over_m1 is None or params.m2_over_m1 is None:
        return None
    return (2 * params.m2_over_m1, 2 * params.m0_over_m1)


def quotient_sum(terms) -> RationalFunction:
    """The reduced quotient of sum(sign * x * y) over (sign, x, y) in terms.

    x and y are RationalFunctions; the sum is taken over one common
    denominator, the product of every term's denominators.
    """
    num, den = RatPoly(), RatPoly([1])
    for sign, x, y in terms:
        d = x.den * y.den
        num = num * d + sign * (x.num * y.num * den)
        den = den * d
    return RationalFunction(num, den)


def quotient_dot(u, v) -> RationalFunction:
    return quotient_sum((1, x, y) for x, y in zip(u, v))


def quotient_cross(u, v) -> Tuple[RationalFunction, RationalFunction, RationalFunction]:
    return tuple(
        quotient_sum(((1, u[i], v[j]), (-1, u[j], v[i])))
        for i, j in ((1, 2), (2, 0), (0, 1))
    )
