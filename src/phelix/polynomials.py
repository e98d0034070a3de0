"""Exact univariate polynomial algebra over the rationals and Gaussian rationals.

Everything in this module is exact: coefficients are `fractions.Fraction`
(or :class:`GaussianRational` pairs of them), and every operation returns
values in a canonical normal form.  Floating point never appears here; the
perfect-square and gcd decisions downstream rely on that.

:class:`RatPoly` is the one dense polynomial class, and every polynomial
product runs through its integer convolution.  A :class:`GaussPoly` is a
pair of RatPolys (real and imaginary parts), and a quaternion polynomial
(``curves.QuaternionPolynomial``) is four of them.

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

    @property
    def is_zero(self) -> bool:
        return not self

    @property
    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __add__(self, other) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = GaussianRational.coerce(other)
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
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return _format_imaginary(self.im)
        sign = "-" if self.im < 0 else "+"
        return f"{self.re} {sign} {_format_imaginary(abs(self.im))}"


def _format_imaginary(value: Fraction) -> str:
    if value == 1:
        return "i"
    if value == -1:
        return "-i"
    if value.denominator == 1:
        return f"{value}i"
    return f"({value})i"


class RatPoly:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def one(cls) -> "RatPoly":
        return cls([1])

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise DegenerateInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    # -- ring arithmetic -----------------------------------------------------

    def _as_same(self, other) -> Optional["RatPoly"]:
        if isinstance(other, RatPoly):
            return other
        try:
            return RatPoly([other])
        except TypeError:
            return None

    def __add__(self, other):
        other = self._as_same(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly([self.coefficient(k) + other.coefficient(k) for k in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_same(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly([self.coefficient(k) - other.coefficient(k) for k in range(n)])

    def __mul__(self, other):
        # integer convolution with one normalization per output coefficient;
        # much faster than Fraction products term by term
        other = self._as_same(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RatPoly()
        d1, a = _cleared(self.coeffs)
        d2, b = _cleared(other.coeffs)
        den = d1 * d2
        return RatPoly([Fraction(v, den) for v in _convolve(a, b)])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RatPoly", self.coeffs))

    # -- calculus --------------------------------------------------------------

    def derivative(self) -> "RatPoly":
        return RatPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "RatPoly":
        """Term-wise antiderivative with zero constant term."""
        return RatPoly([0] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    # -- field-coefficient division --------------------------------------------

    def __divmod__(self, other):
        other = self._as_same(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = len(other.coeffs)
        quot = [Fraction(0)] * (len(rem) - dn + 1)
        inv_lead = 1 / other.coeffs[-1]
        for k in range(len(rem) - dn, -1, -1):
            c = rem[k + dn - 1] * inv_lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return RatPoly(quot), RatPoly(rem[: dn - 1])

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
        inv = 1 / self.coeffs[-1]
        return RatPoly([c * inv for c in self.coeffs])

    def evaluate(self, point):
        # p(a/b) = sum c_k a^k b^(n-k) / b^n on the integer form: integer
        # Horner and one Fraction, instead of two Fraction operations per term
        point = as_fraction(point)
        if self.is_zero:
            return Fraction(0)
        den, ints = _cleared(self.coeffs)
        a, b = point.numerator, point.denominator
        acc, power = ints[-1], 1
        for c in reversed(ints[:-1]):
            power *= b
            acc = acc * a + c * power
        return Fraction(acc, den * power)

    def primitive_positive(self) -> Tuple[Fraction, "RatPoly"]:
        """Split into (content, primitive part with positive leading coefficient)."""
        content, ints = primitive_split(self.coeffs)
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
    den, ints = _cleared(values)
    g = math.gcd(*ints)
    if not g:
        return Fraction(0), ints
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

    @classmethod
    def one(cls) -> "GaussPoly":
        return cls.from_real(RatPoly.one())

    def _length(self) -> int:
        return max(len(self.re.coeffs), len(self.im.coeffs))

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

    def real_part(self) -> RatPoly:
        return self.re

    def imag_part(self) -> RatPoly:
        return self.im

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

    def conjugate(self) -> "GaussPoly":
        return GaussPoly.from_parts(self.re, -1 * self.im)

    def norm_squared(self) -> RatPoly:
        """The rational polynomial self * conj(self) = Re(self)^2 + Im(self)^2."""
        return self.re * self.re + self.im * self.im

    def __divmod__(self, other):
        # long division on integer numerators.  With b = B / db and L = B's
        # leading entry, each quotient term is the remainder's top entry T
        # times db * conj(L) / |L|^2, the inverse of b's leading coefficient;
        # |L|^2 joins the remainder's integer denominator at each step
        other = _as_gauss(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        n, dn = self._length(), other._length()
        den, ar, ai = _cleared_parts(self, n)
        db, br, bi = _cleared_parts(other, dn)
        lr, li = br[-1], bi[-1]
        norm = lr * lr + li * li
        qr, qi = [], []
        for k in range(n - dn, -1, -1):
            tr, ti = ar[k + dn - 1], ai[k + dn - 1]
            cr, ci = tr * lr + ti * li, ti * lr - tr * li
            qr.append(Fraction(cr * db, den * norm))
            qi.append(Fraction(ci * db, den * norm))
            ar, ai = [v * norm for v in ar], [v * norm for v in ai]
            for j in range(dn):
                ar[k + j] -= cr * br[j] - ci * bi[j]
                ai[k + j] -= cr * bi[j] + ci * br[j]
            den *= norm
        quotient = GaussPoly.from_parts(RatPoly(qr[::-1]), RatPoly(qi[::-1]))
        rem = [RatPoly([Fraction(v, den) for v in part[: dn - 1]]) for part in (ar, ai)]
        return quotient, GaussPoly.from_parts(*rem)

    __mod__ = RatPoly.__mod__
    exact_div = RatPoly.exact_div

    def monic(self) -> "GaussPoly":
        return self if self.is_zero else divmod(self, self.leading_coefficient)[0]

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


def _cleared_parts(p: GaussPoly, n: int) -> Tuple[int, List[int], List[int]]:
    """(den, re, im): p's n lowest coefficients as integers over one denominator."""
    den, ints = _cleared([part.coefficient(k) for part in (p.re, p.im) for k in range(n)])
    return den, ints[:n], ints[n:]


# ---------------------------------------------------------------------------
# gcd, square-free decomposition, perfect squares, Wronskian
# ---------------------------------------------------------------------------


def poly_gcd(a, b):
    """Monic gcd over the coefficient field (Euclid with monic remainders)."""
    if a.is_zero and b.is_zero:
        raise DegenerateInputError("gcd of two zero polynomials is undefined")
    while not b.is_zero:
        r = a % b
        a, b = b, (r.monic() if not r.is_zero else r)
    return a.monic()


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

    def squared(self) -> RatPoly:
        return self.scale * (self.body * self.body)

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
    content, target = primitive_split(p.coeffs)
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
    return ScaledSqrt(content, RatPoly(q))


def wronskian(z1, z2):
    """z1' * z2 - z1 * z2' (degree at most deg z1 + deg z2 - 1)."""
    return z1.derivative() * z2 - z1 * z2.derivative()


class RationalFunction:
    """Reduced quotient of two rational polynomials, as a value.

    It carries no arithmetic: each quotient is built from its own numerator
    and denominator and then compared, evaluated or printed.  The denominator is primitive with positive leading coefficient and
    coprime to the numerator, so equal values compare equal structurally and
    constancy is a denominator-degree check rather than a sampling heuristic.
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
        self.num = RatPoly([c / content for c in num.coeffs])
        self.den = primitive

    @classmethod
    def constant(cls, value: RatLike) -> "RationalFunction":
        return cls(RatPoly([value]), RatPoly.one())

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


def _power_str(k: int, var: str) -> str:
    if k == 0:
        return ""
    if k == 1:
        return var
    return f"{var}^{k}"


def _real_term(c: Fraction, power: str) -> Tuple[bool, str]:
    """(negative, body) of the term c * power for a nonzero rational c."""
    mag = abs(c)
    if not power:
        body = str(mag)
    elif mag == 1:
        body = power
    elif mag.denominator == 1:
        body = f"{mag}{power}"
    else:
        body = f"({mag}){power}"
    return c < 0, body


def _gauss_term(c: GaussianRational, power: str) -> Tuple[bool, str]:
    """(negative, body) of the term c * power for a nonzero Gaussian rational c."""
    if c.is_real:
        return _real_term(c.re, power)
    if not c.re:
        return c.im < 0, f"{_format_imaginary(abs(c.im))}{power}"
    return False, f"({c!s}){power}"


def _join_terms(p, term, var: str) -> str:
    """The nonzero terms of p, highest power first, with explicit signs."""
    parts: List[str] = []
    for k, c in reversed(list(enumerate(p.coeffs))):
        if not c:
            continue
        negative, body = term(c, _power_str(k, var))
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts) or "0"


def format_rat_poly(p: RatPoly, var: str = "t") -> str:
    return _join_terms(p, _real_term, var)


def format_gauss_poly(p: GaussPoly, var: str = "t") -> str:
    return _join_terms(p, _gauss_term, var)
