"""Exact univariate polynomial algebra over the rationals and Gaussian rationals.

Everything in this module is exact: coefficients are `fractions.Fraction`
(or :class:`GaussianRational` pairs of them), and every operation returns
values in a canonical normal form.  Floating point never appears here; the
perfect-square and gcd decisions downstream rely on that.

:class:`RatPoly` is the one dense polynomial class, and every polynomial
product runs through its integer convolution.  A :class:`GaussPoly` is a
pair of RatPolys (real and imaginary parts), and a quaternion polynomial
(``curves.QuaternionPolynomial``) is four of them.

A RatPoly stores one field, its integer form (den, ints): coefficients
ints / den, den any positive common denominator, not necessarily the least.
The arithmetic hands on forms: ``__mul__`` makes (d1 * d2, convolution),
the sum kernel behind ``__add__`` and ``__sub__`` the ints added over
lcm(d1, d2), ``derivative`` (den, k * ints[k]) and ``perfect_square_root``
its integer root over 1.  The structure queries, ``==`` (cross-multiplied),
``evaluate``, ``primitive_positive`` and the one renderer behind ``str()``
and ``coefficient_strings`` read the form, so a chain of ring operations
builds no Fraction; ``coeffs`` builds the reduced tuple on each read.  All
Fraction arithmetic on coefficients runs in one Euclid kernel over Fraction
lists, which ``divmod``, ``monic`` and ``poly_gcd`` call.

The normal forms are:

* a RatPoly stores ascending coefficients with no trailing zeros, and the
  zero polynomial has ``degree is None`` (a real sentinel, not ``-1``);
* a GaussPoly's degree is the larger of its parts' degrees, so one part may
  be shorter than the other (or zero);
* gcds are monic;
* square-free factors are monic, pairwise coprime and square-free;
* :class:`ScaledSqrt` bodies are primitive with positive leading
  coefficient;
* :class:`RationalFunction` values are reduced with a primitive,
  positive-leading denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, List, Optional, Tuple, Union

from .errors import DegenerateInputError

RatLike = Union[Fraction, int, str]


def as_fraction(value: RatLike) -> Fraction:
    """Coerce to an exact rational.  Floats are rejected on purpose."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rational_sqrt(value: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or None if irrational."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (Fraction, int, str)):
            return cls(value)
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return cls(value[0], value[1])
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __add__(self, other) -> "GaussianRational":
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        n = other.norm_squared()
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * other.conjugate() * GaussianRational(Fraction(1, 1) / n)

    def __eq__(self, other) -> bool:
        if isinstance(other, (GaussianRational, Fraction, int)):
            other = GaussianRational.coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        # a real value equals its real part, so it hashes as that (as complex does)
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


class RatPoly:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("_form",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._form = _cleared(cs)

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """Ascending reduced coefficients, built from the form on each read."""
        den, ints = self._form
        return tuple([Fraction(v, den) for v in ints])

    @staticmethod
    def _from_form(den: int, ints: List[int]) -> "RatPoly":
        """The RatPoly ints / den; ints has no trailing zeros."""
        p = RatPoly.__new__(RatPoly)
        p._form = (den, ints)
        return p

    # -- construction helpers ------------------------------------------------

    @classmethod
    def one(cls) -> "RatPoly":
        return cls([1])

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._form[1]

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        n = len(self._form[1])
        return n - 1 if n else None

    @property
    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            raise DegenerateInputError("zero polynomial has no leading coefficient")
        return self.coefficient(self.degree)

    def is_constant(self) -> bool:
        return len(self._form[1]) <= 1

    def coefficient(self, k: int) -> Fraction:
        den, ints = self._form
        return Fraction(ints[k], den) if 0 <= k < len(ints) else Fraction(0)

    # -- ring arithmetic -----------------------------------------------------

    def _as_same(self, other) -> Optional["RatPoly"]:
        if isinstance(other, RatPoly):
            return other
        if isinstance(other, (Fraction, int, str)):
            return RatPoly([other])
        return None

    def __add__(self, other):
        other = self._as_same(other)
        if other is None:
            return NotImplemented
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_same(other)
        if other is None:
            return NotImplemented
        return self._sum(other, -1)

    def _sum(self, other: "RatPoly", sign: int) -> "RatPoly":
        # self + sign * other on the integer forms: equal denominators add
        # the ints, others scale both to lcm(d1, d2).  Cancellation may leave
        # trailing zeros, which the normal form strips.
        d1, a = self._form
        d2, b = other._form
        den = d1
        if d1 != d2:
            g = math.gcd(d1, d2)
            den = d1 // g * d2
            a = [v * (d2 // g) for v in a]
            b = [v * (d1 // g) for v in b]
        if sign > 0:
            ints = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
        else:
            ints = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
        while ints and not ints[-1]:
            ints.pop()
        return RatPoly._from_form(den, ints)

    def __mul__(self, other):
        # integer convolution with one normalization per output coefficient;
        # much faster than Fraction products term by term.  The product keeps
        # (d1 * d2, convolution) as its integer form, so a later product or
        # evaluation does not clear its denominators again.
        other = self._as_same(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RatPoly._from_form(1, [])
        d1, a = self._form
        d2, b = other._form
        # the leading entry is a product of two nonzero ones: no trailing zeros
        return RatPoly._from_form(d1 * d2, _convolve(a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        # binary powering from the base itself: n = 2^k needs k products
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        if not n:
            return self.one()
        base, result = self, None
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatPoly):
            return NotImplemented
        # a / d1 == b / d2 entry by entry, cross-multiplied
        d1, a = self._form
        d2, b = other._form
        return len(a) == len(b) and all(x * d2 == y * d1 for x, y in zip(a, b))

    def __hash__(self) -> int:
        # the reduced tuple, so equal values hash equal whatever their denominators
        return hash(("RatPoly", self.coeffs))

    # -- calculus --------------------------------------------------------------

    def derivative(self) -> "RatPoly":
        # k * c_k over the same denominator; the leading k * c_n is nonzero
        den, ints = self._form
        return RatPoly._from_form(den, [k * ints[k] for k in range(1, len(ints))])

    def antiderivative(self) -> "RatPoly":
        """Term-wise antiderivative with zero constant term."""
        den, ints = self._form
        return RatPoly([0] + [Fraction(v, den * (k + 1)) for k, v in enumerate(ints)])

    # -- field-coefficient division --------------------------------------------

    def __divmod__(self, other):
        other = self._as_same(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _fraction_divmod(self.coeffs, other.coeffs)
        return RatPoly(quot), RatPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise DegenerateInputError(f"{other!s} does not divide {self!s} exactly")
        return q

    def monic(self):
        if self.is_zero:
            return self
        return RatPoly(_fraction_monic(self.coeffs))

    def evaluate(self, point):
        # p(a/b) = sum c_k a^k b^(n-k) / b^n on the integer form: integer
        # Horner and one Fraction, instead of two Fraction operations per term
        point = as_fraction(point)
        if self.is_zero:
            return Fraction(0)
        den, ints = self._form
        a, b = point.numerator, point.denominator
        acc, power = ints[-1], 1
        for c in reversed(ints[:-1]):
            power *= b
            acc = acc * a + c * power
        return Fraction(acc, den * power)

    def primitive_positive(self) -> Tuple[Fraction, "RatPoly"]:
        """Split into (content, primitive part with positive leading coefficient)."""
        content, ints = _primitive(*self._form)
        return content, RatPoly(ints)

    def __repr__(self) -> str:
        return f"RatPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_rat_poly(self)


# perfbench/tracer.py counts divisions through _Polynomial.__divmod__; the
# alias goes with ROADMAP item 1, once the benchmark hooks RatPoly by name.
_Polynomial = RatPoly


def _convolve(a: List[int], b: List[int]) -> List[int]:
    """Coefficients of the product of two non-empty integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _cleared(values) -> Tuple[int, List[int]]:
    """(den, ints) with values = ints / den and den the lcm of the denominators."""
    den = 1
    for v in values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    return den, [v.numerator * (den // v.denominator) for v in values]


def primitive_split(values) -> Tuple[Fraction, List[int]]:
    """(content, ints) with values = content * ints.

    The ints are coprime and the last nonzero one is positive, so the
    content carries that entry's sign.  All-zero input gives (0, zeros).
    """
    return _primitive(*_cleared(values))


def _primitive(den: int, ints: List[int]) -> Tuple[Fraction, List[int]]:
    """primitive_split of ints / den; den may be any positive common denominator."""
    g = math.gcd(*ints)
    if not g:
        return Fraction(0), list(ints)
    if next(v for v in reversed(ints) if v) < 0:
        g = -g
    return Fraction(g, den), [v // g for v in ints]


class GaussPoly:
    """Univariate polynomial re + i*im with Gaussian-rational coefficients.

    The parts are two RatPolys, and every operation works on them;
    GaussianRational coefficients exist only where ``coeffs`` or
    ``coefficient`` hands them out.
    """

    __slots__ = ("re", "im")

    def __init__(self, coeffs: Iterable = ()):
        cs = [GaussianRational.coerce(c) for c in coeffs]
        self.re = RatPoly([c.re for c in cs])
        self.im = RatPoly([c.im for c in cs])

    @classmethod
    def from_parts(cls, real: RatPoly, imag: RatPoly) -> "GaussPoly":
        p = cls.__new__(cls)
        p.re, p.im = real, imag
        return p

    @classmethod
    def from_real(cls, real: RatPoly) -> "GaussPoly":
        return cls.from_parts(real, RatPoly())

    def _length(self) -> int:
        return max(len(self.re._form[1]), len(self.im._form[1]))

    @property
    def is_zero(self) -> bool:
        return not self._length()

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return self._length() - 1 if self._length() else None

    @property
    def coeffs(self) -> Tuple[GaussianRational, ...]:
        return tuple(map(self.coefficient, range(self._length())))

    @property
    def leading_coefficient(self) -> GaussianRational:
        if self.is_zero:
            raise DegenerateInputError("zero polynomial has no leading coefficient")
        return self.coefficient(self.degree)

    def coefficient(self, k: int) -> GaussianRational:
        return GaussianRational(self.re.coefficient(k), self.im.coefficient(k))

    def _gaussian_integers(self, n: int) -> List[Tuple[int, int]]:
        """The first n coefficients times one positive common denominator,
        as Gaussian integers (x, y) = x + i*y; n is at least the length."""
        dx, xs = self.re._form
        dy, ys = self.im._form
        g = math.gcd(dx, dy)
        xs = [v * (dy // g) for v in xs] + [0] * (n - len(xs))
        ys = [v * (dx // g) for v in ys] + [0] * (n - len(ys))
        return list(zip(xs, ys))

    def __add__(self, other) -> "GaussPoly":
        other = _as_gauss(other)
        return GaussPoly.from_parts(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussPoly":
        other = _as_gauss(other)
        return GaussPoly.from_parts(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "GaussPoly":
        other = _as_gauss(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussPoly.from_parts(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussPoly):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("GaussPoly", self.re, self.im))

    def derivative(self) -> "GaussPoly":
        return GaussPoly.from_parts(self.re.derivative(), self.im.derivative())

    def monic(self) -> "GaussPoly":
        if self.is_zero:
            return self
        return self * (GaussianRational(1) / self.leading_coefficient)

    def __repr__(self) -> str:
        return f"GaussPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_gauss_poly(self)


def _as_gauss(value) -> GaussPoly:
    """A GaussPoly, RatPoly or Gaussian-rational scalar as a GaussPoly."""
    if isinstance(value, GaussPoly):
        return value
    if isinstance(value, RatPoly):
        return GaussPoly.from_real(value)
    return GaussPoly([value])


# ---------------------------------------------------------------------------
# gcd, square-free decomposition, perfect squares, Wronskian
# ---------------------------------------------------------------------------


def poly_gcd(a, b):
    """Monic gcd of two RatPolys over the rationals (Euclid with monic remainders)."""
    if a.is_zero and b.is_zero:
        raise DegenerateInputError("gcd of two zero polynomials is undefined")
    return RatPoly(_fraction_gcd(a.coeffs, b.coeffs))


def _fraction_divmod(a, b) -> Tuple[List[Fraction], List[Fraction]]:
    """Kernel division of ascending Fraction sequences (no trailing zeros, b
    nonzero): the quotient and the remainder, stripped."""
    rem = list(a)
    dn = len(b)
    quot = [Fraction(0)] * (len(rem) - dn + 1)
    inv_lead = 1 / b[-1]
    for k in range(len(rem) - dn, -1, -1):
        c = rem[k + dn - 1] * inv_lead
        quot[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] = rem[k + j] - c * y
    del rem[dn - 1 :]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _fraction_monic(a) -> List[Fraction]:
    inv = 1 / a[-1]
    return [c * inv for c in a]


def _fraction_gcd(a, b) -> List[Fraction]:
    """Monic gcd of a and b, not both zero, by Euclid with monic remainders."""
    while b:
        r = _fraction_divmod(a, b)[1]
        a, b = b, (_fraction_monic(r) if r else r)
    return _fraction_monic(a)


def squarefree_decompose(p: RatPoly) -> Tuple[Fraction, List[Tuple[RatPoly, int]]]:
    """Yun decomposition p = content * prod(f_i ** m_i).

    The factors are monic, square-free and pairwise coprime, so the content
    equals the leading coefficient of p.
    """
    if p.is_zero:
        raise DegenerateInputError("cannot decompose the zero polynomial")
    content = p.leading_coefficient
    f = p.monic()
    if f.degree == 0:
        return content, []
    g = poly_gcd(f, f.derivative())
    if g.degree == 0:
        return content, [(f, 1)]
    factors: List[Tuple[RatPoly, int]] = []
    w = f.exact_div(g)
    y = f.derivative().exact_div(g)
    z = y - w.derivative()
    mult = 1
    while w.degree is not None and w.degree > 0:
        a = poly_gcd(w, z)
        if a.degree is not None and a.degree > 0:
            factors.append((a, mult))
        w = w.exact_div(a)
        y = z.exact_div(a)
        z = y - w.derivative()
        mult += 1
    return content, factors


class ScaledSqrt:
    """An exact real polynomial of the form sqrt(scale) * body.

    ``scale`` is a positive rational and ``body`` is primitive with positive
    leading coefficient, which makes the representation unique; the body is
    the zero polynomial (with scale 1) only for the zero value.  This is how
    square roots of even-multiplicity rational polynomials — curve speeds and
    cross-product norms — stay inside exact arithmetic even when the scale is
    not a perfect rational square.
    """

    __slots__ = ("scale", "body")

    def __init__(self, scale: RatLike, body: RatPoly):
        scale = as_fraction(scale)
        if body.is_zero:
            self.scale = Fraction(1)
            self.body = body
            return
        content, primitive = body.primitive_positive()
        scale = scale * content * content
        if scale <= 0:
            raise DegenerateInputError("ScaledSqrt scale must be positive")
        self.scale = scale
        self.body = primitive

    @classmethod
    def zero(cls) -> "ScaledSqrt":
        return cls(1, RatPoly())

    @property
    def is_zero(self) -> bool:
        return self.body.is_zero

    def as_rat_poly(self) -> Optional[RatPoly]:
        """The exact rational polynomial sqrt(scale)*body, when the root is rational."""
        root = rational_sqrt(self.scale)
        if root is None:
            return None
        return root * self.body

    def __eq__(self, other) -> bool:
        if isinstance(other, ScaledSqrt):
            return self.scale == other.scale and self.body == other.body
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.scale, self.body))

    def __repr__(self) -> str:
        return f"ScaledSqrt({self.scale!r}, {self.body!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        exact = self.as_rat_poly()
        if exact is not None:
            return format_rat_poly(exact)
        return f"sqrt({self.scale})*({format_rat_poly(self.body)})"


def perfect_square_root(p: RatPoly) -> Optional[ScaledSqrt]:
    """Square root of p as a real polynomial, or None if there is none.

    Write p = content * P with P primitive in Z[t] and positive leading
    coefficient.  By Gauss's lemma, if P = q^2 over the rationals then q can
    be taken primitive in Z[t] with positive leading coefficient, so p is
    the square of a real polynomial exactly when the content is positive and
    P is the square of an integer polynomial q; the root is then
    sqrt(content) * q.  The top half of q follows from the top half of P,
    one exact integer division per coefficient, and squaring q back decides
    the rest.
    """
    if p.is_zero:
        return ScaledSqrt.zero()
    if p.degree % 2:
        return None
    content, target = _primitive(*p._form)
    if content <= 0:
        return None
    n = p.degree // 2
    lead = math.isqrt(target[-1])
    if lead * lead != target[-1]:
        return None
    q = [0] * n + [lead]
    for k in range(n - 1, -1, -1):
        # the t^(n+k) coefficient of q^2 is 2*q_n*q_k plus the cross terms
        # of q_(k+1) .. q_(n-1), all of which are already known
        partial = sum(q[i] * q[n + k - i] for i in range(k + 1, n))
        q[k], remainder = divmod(target[n + k] - partial, 2 * lead)
        if remainder:
            return None
    if _convolve(q, q) != target:
        return None
    # target is primitive, so q is too, and lead > 0: q is already the
    # normal body, which ScaledSqrt.__init__ would only normalize again
    root = ScaledSqrt.__new__(ScaledSqrt)
    root.scale = content
    root.body = RatPoly._from_form(1, q)
    return root


def wronskian(z1, z2):
    """z1' * z2 - z1 * z2' (degree at most deg z1 + deg z2 - 1)."""
    return z1.derivative() * z2 - z1 * z2.derivative()


class RationalFunction:
    """Reduced quotient of two rational polynomials, as a value.

    It carries no arithmetic: each quotient is built from its own numerator
    and denominator and then compared, evaluated or printed.  The denominator
    is primitive with positive leading coefficient and coprime to the
    numerator, so equal values compare equal structurally and constancy is a
    denominator-degree check rather than a sampling heuristic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: RatPoly, den: RatPoly):
        if den.is_zero:
            raise DegenerateInputError("rational function with zero denominator")
        if num.is_zero:
            self.num = RatPoly()
            self.den = RatPoly.one()
            return
        g = poly_gcd(num, den)
        if g.degree:
            num = num.exact_div(g)
            den = den.exact_div(g)
        content, primitive = den.primitive_positive()
        self.num = num * (1 / content)
        self.den = primitive

    @classmethod
    def constant(cls, value: RatLike) -> "RationalFunction":
        # value / 1 is already reduced, with a primitive positive denominator
        f = cls.__new__(cls)
        f.num, f.den = RatPoly([value]), RatPoly.one()
        return f

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def evaluate(self, point: RatLike) -> Fraction:
        point = as_fraction(point)
        d = self.den.evaluate(point)
        if not d:
            raise ZeroDivisionError(f"pole at t = {point}")
        return self.num.evaluate(point) / d

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.den == RatPoly.one():
            return format_rat_poly(self.num)
        return f"({format_rat_poly(self.num)}) / ({format_rat_poly(self.den)})"


# ---------------------------------------------------------------------------
# canonical rendering (descending powers, explicit signs, rationals as p/q)
# ---------------------------------------------------------------------------


def _power_str(k: int) -> str:
    if k == 0:
        return ""
    if k == 1:
        return "t"
    return f"t^{k}"


def _fraction_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, with one gcd and no Fraction."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _times(s: str, unit: str) -> str:
    """The rational written s times unit ("" for none, a power of t, or "i")."""
    if not unit:
        return s
    if s == "1":
        return unit
    if s == "-1":
        return f"-{unit}"
    return f"({s}){unit}" if "/" in s else f"{s}{unit}"


def _render(re_form, im_form) -> str:
    """The nonzero terms of re + i*im, highest power first, with explicit
    signs; each part is given as its integer form (den, ints)."""
    (dx, xs), (dy, ys) = re_form, im_form
    parts: List[str] = []
    for k in range(max(len(xs), len(ys)) - 1, -1, -1):
        x = xs[k] if k < len(xs) else 0
        y = ys[k] if k < len(ys) else 0
        power = _power_str(k)
        if not y:
            if not x:
                continue
            negative, body = x < 0, _times(_fraction_str(abs(x), dx), power)
        elif not x:
            negative, body = y < 0, _times(_fraction_str(abs(y), dy), "i") + power
        else:
            imag = _times(_fraction_str(abs(y), dy), "i")
            sign = "-" if y < 0 else "+"
            negative, body = False, f"({_fraction_str(x, dx)} {sign} {imag}){power}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts) or "0"


def coefficient_strings(p: RatPoly) -> List[str]:
    """str() of each ascending coefficient, written from the integer form."""
    den, ints = p._form
    return [_fraction_str(v, den) for v in ints]


def format_rat_poly(p: RatPoly) -> str:
    return _render(p._form, (1, []))


def format_gauss_poly(p: GaussPoly) -> str:
    return _render(p.re._form, p.im._form)
