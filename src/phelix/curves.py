"""Curve representations and exact conversions between them.

Three equivalent encodings of a spatial hodograph are supported:

* a quaternion polynomial A(t) = u + i v + j p + k q, which produces the
  hodograph through the product A(t) * i * conj(A(t));
* a Hopf pair (z1, z2) = (u + i v, q + i p) of complex polynomials, which
  produces the same hodograph through (|z1|^2 - |z2|^2, 2 * z1 * conj(z2));
* the raw component polynomials (x', y', z'), which carry no structure and
  are what non-quaternionic inputs (e.g. a curve given directly) reduce to.

The first two guarantee the Pythagorean property by construction; the raw
form is accepted even when that property fails, and analysis detects it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .errors import DegenerateInputError, UnsupportedDegreeError
from .polynomials import GaussPoly, RatLike, RatPoly, as_fraction

Point = Tuple[Fraction, Fraction, Fraction]


class Quaternion:
    """Quaternion with exact rational components (scalar part first)."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: RatLike = 0, x: RatLike = 0, y: RatLike = 0, z: RatLike = 0):
        self.w = as_fraction(w)
        self.x = as_fraction(x)
        self.y = as_fraction(y)
        self.z = as_fraction(z)

    @classmethod
    def coerce(cls, value) -> "Quaternion":
        if isinstance(value, Quaternion):
            return value
        if isinstance(value, (Fraction, int, str)):
            return cls(value)
        if isinstance(value, (tuple, list)) and len(value) == 4:
            return cls(*value)
        raise TypeError(f"cannot interpret {value!r} as a quaternion")

    def components(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.w, self.x, self.y, self.z)

    def __bool__(self) -> bool:
        return bool(self.w) or bool(self.x) or bool(self.y) or bool(self.z)

    @property
    def is_zero(self) -> bool:
        return not self

    def __add__(self, other) -> "Quaternion":
        other = Quaternion.coerce(other)
        return Quaternion(
            self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Quaternion":
        other = Quaternion.coerce(other)
        return Quaternion(
            self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z
        )

    def __mul__(self, other) -> "Quaternion":
        other = Quaternion.coerce(other)
        a, b, c, d = self.components()
        e, f, g, h = other.components()
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def __rmul__(self, other) -> "Quaternion":
        return Quaternion.coerce(other) * self

    def __eq__(self, other) -> bool:
        if isinstance(other, (Quaternion, Fraction, int)):
            other = Quaternion.coerce(other)
            return self.components() == other.components()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.components())

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def __str__(self) -> str:
        parts = []
        for value, unit in zip(self.components(), ("", "i", "j", "k")):
            if not value:
                continue
            mag = abs(value)
            body = unit if (mag == 1 and unit) else f"{mag}{unit}"
            if not parts:
                parts.append(f"-{body}" if value < 0 else body)
            else:
                parts.append(f" - {body}" if value < 0 else f" + {body}")
        return "".join(parts) if parts else "0"


class QuaternionPolynomial:
    """Polynomial A(t) = u + i v + j p + k q with quaternion coefficients.

    It holds the four component RatPolys; Quaternion coefficients exist
    only where ``coeffs`` or ``coefficient`` hands them out.  It carries no
    arithmetic: the hodograph is read off the components.
    """

    __slots__ = ("u", "v", "p", "q")

    def __init__(self, coeffs: Iterable = ()):
        cs = [Quaternion.coerce(c).components() for c in coeffs]
        self.u, self.v, self.p, self.q = (RatPoly([c[i] for c in cs]) for i in range(4))

    @classmethod
    def from_component_polys(
        cls, u: RatPoly, v: RatPoly, p: RatPoly, q: RatPoly
    ) -> "QuaternionPolynomial":
        a = cls.__new__(cls)
        a.u, a.v, a.p, a.q = u, v, p, q
        return a

    def component_polys(self) -> Tuple[RatPoly, RatPoly, RatPoly, RatPoly]:
        """The four rational polynomials (u, v, p, q) = (w, i, j, k) parts."""
        return (self.u, self.v, self.p, self.q)

    @property
    def is_zero(self) -> bool:
        return self.degree is None

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return max((c.degree for c in self.component_polys() if c.coeffs), default=None)

    @property
    def coeffs(self) -> Tuple[Quaternion, ...]:
        n = max(len(c.coeffs) for c in self.component_polys())
        return tuple(self.coefficient(k) for k in range(n))

    def coefficient(self, k: int) -> Quaternion:
        return Quaternion(*(c.coefficient(k) for c in self.component_polys()))

    def __eq__(self, other) -> bool:
        if isinstance(other, QuaternionPolynomial):
            return self.component_polys() == other.component_polys()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.component_polys())

    def __repr__(self) -> str:
        return f"QuaternionPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in reversed(list(enumerate(self.coeffs))):
            if not c:
                continue
            power = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
            parts.append(f"({c!s}){power}" if power else f"({c!s})")
        return " + ".join(parts)


class HopfPair:
    """Pair of complex polynomials (z1, z2) encoding a hodograph."""

    __slots__ = ("z1", "z2")

    def __init__(self, z1: GaussPoly, z2: GaussPoly):
        if z1.is_zero and z2.is_zero:
            raise DegenerateInputError("Hopf pair must not be identically zero")
        self.z1 = z1
        self.z2 = z2

    @property
    def degree(self) -> int:
        return max(self.z1.degree or 0, self.z2.degree or 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, HopfPair):
            return self.z1 == other.z1 and self.z2 == other.z2
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.z1, self.z2))

    def __repr__(self) -> str:
        return f"HopfPair({self.z1!r}, {self.z2!r})"


class Hodograph:
    """Derivative curve (x', y', z') as three rational polynomials."""

    __slots__ = ("dx", "dy", "dz")

    def __init__(self, dx: RatPoly, dy: RatPoly, dz: RatPoly):
        if dx.is_zero and dy.is_zero and dz.is_zero:
            raise DegenerateInputError("hodograph must not be identically zero")
        self.dx = dx
        self.dy = dy
        self.dz = dz

    def vector(self) -> Tuple[RatPoly, RatPoly, RatPoly]:
        return (self.dx, self.dy, self.dz)

    @property
    def degree(self) -> int:
        return max(self.dx.degree or 0, self.dy.degree or 0, self.dz.degree or 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Hodograph):
            return self.vector() == other.vector()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.vector())

    def __repr__(self) -> str:
        return f"Hodograph({self.dx!r}, {self.dy!r}, {self.dz!r})"


class PolynomialCurve:
    """A parametric curve (x(t), y(t), z(t)); constants are the start point."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: RatPoly, y: RatPoly, z: RatPoly):
        self.x = x
        self.y = y
        self.z = z

    def hodograph(self) -> Hodograph:
        return Hodograph(self.x.derivative(), self.y.derivative(), self.z.derivative())

    def evaluate(self, t: RatLike) -> Point:
        t = as_fraction(t)
        return (self.x.evaluate(t), self.y.evaluate(t), self.z.evaluate(t))

    def __eq__(self, other) -> bool:
        if isinstance(other, PolynomialCurve):
            return (self.x, self.y, self.z) == (other.x, other.y, other.z)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.z))

    def __repr__(self) -> str:
        return f"PolynomialCurve({self.x!r}, {self.y!r}, {self.z!r})"


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------


def hodograph_from_quaternion(a: QuaternionPolynomial) -> Hodograph:
    """Component form of A(t) * i * conj(A(t)).

    x' = u^2 + v^2 - p^2 - q^2, y' = 2(uq + vp), z' = 2(vq - up); the speed
    identity x'^2 + y'^2 + z'^2 = (u^2 + v^2 + p^2 + q^2)^2 holds exactly.
    """
    if a.is_zero:
        raise DegenerateInputError("zero quaternion polynomial defines no curve")
    u, v, p, q = a.component_polys()
    return Hodograph(
        u * u + v * v - p * p - q * q,
        2 * (u * q + v * p),
        2 * (v * q - u * p),
    )


def hopf_from_quaternion(a: QuaternionPolynomial) -> HopfPair:
    """Reassemble (z1, z2) = (u + i v, q + i p).  Lossless."""
    return HopfPair(GaussPoly.from_parts(a.u, a.v), GaussPoly.from_parts(a.q, a.p))


def quaternion_from_hopf(pair: HopfPair) -> QuaternionPolynomial:
    """Inverse of hopf_from_quaternion."""
    return QuaternionPolynomial.from_component_polys(
        pair.z1.re, pair.z1.im, pair.z2.im, pair.z2.re
    )


def hodograph_from_hopf(pair: HopfPair) -> Hodograph:
    """Hopf map (|z1|^2 - |z2|^2, 2 z1 conj(z2)) with (y', z') = (Re, Im).

    With z1 = a + i b and z2 = c + i d, z1 conj(z2) = (ac + bd) + i (bc - ad).
    """
    a, b, c, d = pair.z1.re, pair.z1.im, pair.z2.re, pair.z2.im
    return Hodograph(
        a * a + b * b - c * c - d * d,
        2 * (a * c + b * d),
        2 * (b * c - a * d),
    )


def bezier_to_power(controls: Sequence[Quaternion]) -> QuaternionPolynomial:
    """Convert quadratic (or lower) Bernstein control quaternions to power basis."""
    controls = [Quaternion.coerce(c) for c in controls]
    if not 1 <= len(controls) <= 3:
        raise UnsupportedDegreeError(
            f"expected 1 to 3 control quaternions, got {len(controls)}"
        )
    if len(controls) == 1:
        return QuaternionPolynomial(controls)
    if len(controls) == 2:
        c0, c1 = controls
        return QuaternionPolynomial([c0, c1 - c0])
    c0, c1, c2 = controls
    return QuaternionPolynomial([c0, 2 * (c1 - c0), c0 - 2 * c1 + c2])


def integrate(h: Hodograph, origin: Sequence[RatLike] = (0, 0, 0)) -> PolynomialCurve:
    """Exact antiderivative of a hodograph, anchored at the given start point."""
    ox, oy, oz = (as_fraction(c) for c in origin)
    return PolynomialCurve(
        h.dx.antiderivative() + RatPoly([ox]),
        h.dy.antiderivative() + RatPoly([oy]),
        h.dz.antiderivative() + RatPoly([oz]),
    )
