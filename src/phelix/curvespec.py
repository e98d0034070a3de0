"""Parsing and serialization of curve-specification documents.

A curve spec is a JSON object with a ``form`` tag, exact coefficients and an
optional start point, ``origin``, that anchors the integration of the
hodograph.  The ``curve`` form is not integrated: its constant terms are its
start point, so an ``origin`` on it is a parse error.  Rationals travel as
strings ("p/q" or "p") or JSON integers — floats are rejected so nothing can
silently leave exact arithmetic.  Complex values are [re, im] pairs,
quaternions are [w, x, y, z] quadruples.

Forms and their coefficient layouts (all polynomial arrays ascending):

* ``quaternion``        — list of up to three quaternion quadruples, power basis
* ``bezier-quaternion`` — list of up to three quaternion control points
* ``hopf``              — {"z1": [[re, im], ...], "z2": [...]}
* ``hodograph``         — {"dx": [...], "dy": [...], "dz": [...]}
* ``curve``             — {"x": [...], "y": [...], "z": [...]}

A spec has no other keys: any key besides ``form``, ``coefficients`` and
``origin``, or besides its form's coefficient names, is a parse error, so a
misspelt key cannot silently leave a polynomial at zero.  ``load_spec`` also
rejects a key repeated in one JSON object, at any depth, where ``json``
would keep the last value.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple, Union

from .curves import (
    Hodograph,
    HopfPair,
    PolynomialCurve,
    Quaternion,
    QuaternionPolynomial,
    bezier_to_power,
    hodograph_from_hopf,
    hodograph_from_quaternion,
    hopf_from_quaternion,
    integrate,
)
from .errors import DegenerateInputError, SpecParseError
from .polynomials import GaussPoly, GaussianRational, RatPoly

FORMS = ("quaternion", "bezier-quaternion", "hopf", "hodograph", "curve")
SPEC_KEYS = ("form", "coefficients", "origin")

# Largest |e| accepted in a decimal string such as "1.5e-3".  Fraction(str)
# expands the exponent into an exact integer, so "1e2000000" alone would
# build a 6.6-Mbit integer and larger exponents would not finish.  The bound
# matches the interpreter's default limit on the digits of an integer string
# (sys.get_int_max_str_digits()), which already bounds JSON integers.
MAX_EXPONENT = 4300

# Largest bit length of the numerator or of the denominator of any rational
# in a spec, checked after an exponent is expanded ("1e4300" has 14,285
# bits).  The exact reductions slow down with coefficient size, and a
# value past the interpreter's digit limit could not even be printed in a
# report.  The bound admits what the generators write: a monotone helix of
# height 12 converted to a quaternion spec has terms of up to ~20 bits.  At
# the bound, ``phelix classify`` on random degree-2 specs with 32-bit
# numerators and denominators took 11.2-11.4 s (quaternion, 4 specs),
# 14.6 s (hopf) and 16.0 s (bezier-quaternion) (Python 3.11.7, one core of
# a shared 2-core x86-64 host).  A ``hodograph`` spec at MAX_DEGREE is
# slow at any bound that admits those specs: random 4-bit rationals took
# 179 s, 8-bit ones did not finish in 15 min and 32-bit ones not in 60 min;
# nearly all of it is the (tau/kappa)^2 reduction (see MAX_DEGREE).
MAX_COEFF_BITS = 32

# Largest degree of the hodograph a spec may imply: the hodograph's own
# degree, one less than a curve's, twice a Hopf pair's (quaternion forms stop
# at 4).  The exact norm, gcd and constancy tests grow steeply with degree:
# ``phelix classify`` on a hodograph spec with single-digit coefficients took
# 2.8 s at degree 8, 21 s at degree 12 and 30 s at degree 13 (Python 3.11.7,
# one core of a shared 2-core x86-64 host).  Under cProfile at degree 12,
# 99.6% of the run is the Fraction Euclid gcd that reduces (tau/kappa)^2 in
# ``analyze`` (81% in its divisions, 18% in making remainders monic, 54% in
# the ``math.gcd`` calls of Fraction normalization); building the invariants
# takes 0.1%, and a degree-12 hodograph never reaches the quintic casework.
MAX_DEGREE = 12

# The rational syntax of a spec string: an optional sign, then digits/digits
# or a decimal with an optional exponent, in ASCII digits only.  Fraction(str)
# alone also takes non-ASCII digits, and "1_0" on Python 3.11 and later only.
_RATIONAL = re.compile(
    r"[-+]?(?:[0-9]+/[0-9]+|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE](?P<exp>[-+]?[0-9]+))?)"
)

Payload = Union[
    QuaternionPolynomial, Tuple[Quaternion, ...], HopfPair, Hodograph, PolynomialCurve
]


class CurveSpec(NamedTuple):
    form: str
    payload: Payload
    origin: Tuple[Fraction, Fraction, Fraction] = (Fraction(0), Fraction(0), Fraction(0))

    def quaternion_form(self) -> Optional[QuaternionPolynomial]:
        """The quaternion polynomial when the form carries one."""
        if self.form == "quaternion":
            return self.payload
        if self.form == "bezier-quaternion":
            return bezier_to_power(self.payload)
        return None

    def hopf_form(self) -> Optional[HopfPair]:
        if self.form == "hopf":
            return self.payload
        quat = self.quaternion_form()
        if quat is not None:
            return hopf_from_quaternion(quat)
        return None

    def hodograph(self) -> Hodograph:
        if self.form == "hodograph":
            return self.payload
        if self.form == "curve":
            return self.payload.hodograph()
        if self.form == "hopf":
            return hodograph_from_hopf(self.payload)
        return hodograph_from_quaternion(self.quaternion_form())

    def curve(self) -> PolynomialCurve:
        """The integrated curve (the curve form keeps its own constants)."""
        if self.form == "curve":
            return self.payload
        return integrate(self.hodograph(), self.origin)


def _bounded(q: Fraction) -> Fraction:
    bits = max(q.numerator.bit_length(), q.denominator.bit_length())
    if bits > MAX_COEFF_BITS:
        raise SpecParseError(
            f"rational with a {bits}-bit numerator or denominator exceeds the "
            f"limit of {MAX_COEFF_BITS} bits"
        )
    return q


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise SpecParseError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return _bounded(Fraction(value))
    if isinstance(value, float):
        raise SpecParseError(
            f"float {value!r} is not exact; write rationals as strings like \"3/7\""
        )
    if isinstance(value, str):
        text = value.strip()
        match = _RATIONAL.fullmatch(text)
        try:
            if match is None:
                raise ValueError("expected a form such as -3/7 or 2.5e-3")
            exponent = match.group("exp")
            if exponent and abs(int(exponent)) > MAX_EXPONENT:
                raise SpecParseError(
                    f"exponent in {value!r} exceeds the limit of {MAX_EXPONENT}"
                )
            q = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecParseError(f"malformed rational {value!r}: {exc}") from exc
        return _bounded(q)
    raise SpecParseError(f"expected a rational, got {type(value).__name__} {value!r}")


def _parse_complex(value) -> GaussianRational:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SpecParseError(f"complex values are [re, im] pairs, got {value!r}")
    return GaussianRational(parse_rational(value[0]), parse_rational(value[1]))


def _parse_quaternion(value) -> Quaternion:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise SpecParseError(f"quaternions are [w, x, y, z] quadruples, got {value!r}")
    return Quaternion(*(parse_rational(v) for v in value))


def _parse_rat_poly(values, label: str) -> RatPoly:
    if not isinstance(values, (list, tuple)):
        raise SpecParseError(f"{label}: expected an array of coefficients")
    return RatPoly([parse_rational(v) for v in values])


def _parse_gauss_poly(values, label: str) -> GaussPoly:
    if not isinstance(values, (list, tuple)):
        raise SpecParseError(f"{label}: expected an array of [re, im] pairs")
    return GaussPoly([_parse_complex(v) for v in values])


def _require_keys(obj, keys, label: str) -> None:
    if not isinstance(obj, dict):
        raise SpecParseError(f"{label}: expected an object with keys {keys}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SpecParseError(f"{label}: missing keys {missing}")
    _reject_unknown_keys(obj, keys, label)


def _reject_unknown_keys(obj: dict, keys, label: str) -> None:
    unknown = [k for k in obj if k not in keys]
    if unknown:
        raise SpecParseError(f"{label}: unknown key {unknown[0]!r}; expected only {keys}")


def parse_spec(doc) -> CurveSpec:
    """Validate and parse one curve-spec document."""
    if not isinstance(doc, dict):
        raise SpecParseError("curve spec must be a JSON object")
    _reject_unknown_keys(doc, SPEC_KEYS, "curve spec")
    form = doc.get("form")
    if form not in FORMS:
        raise SpecParseError(f"unknown form {form!r}; expected one of {FORMS}")
    if "coefficients" not in doc:
        raise SpecParseError("curve spec has no coefficients")
    coeffs = doc["coefficients"]

    origin = (Fraction(0), Fraction(0), Fraction(0))
    if "origin" in doc:
        if form == "curve":
            raise SpecParseError(
                "curve: origin is not accepted; the curve's constant terms are its start point"
            )
        raw = doc["origin"]
        if not isinstance(raw, (list, tuple)) or len(raw) != 3:
            raise SpecParseError("origin must be a [x, y, z] triple")
        origin = tuple(parse_rational(v) for v in raw)

    if form in ("quaternion", "bezier-quaternion"):
        if not isinstance(coeffs, (list, tuple)) or not coeffs:
            raise SpecParseError(f"{form}: coefficients must be a non-empty array")
        if len(coeffs) > 3:
            raise SpecParseError(
                f"{form}: at most 3 quaternion coefficients (degree 2) supported, "
                f"got {len(coeffs)}"
            )
        quats = [_parse_quaternion(v) for v in coeffs]
        if form == "quaternion":
            payload: Payload = QuaternionPolynomial(quats)
            if payload.is_zero:
                raise SpecParseError("quaternion polynomial is identically zero")
        else:
            payload = tuple(quats)
            if bezier_to_power(payload).is_zero:
                raise SpecParseError("control quaternions are all zero")
        return CurveSpec(form, payload, origin)

    if form == "hopf":
        _require_keys(coeffs, ("z1", "z2"), "hopf coefficients")
        z1 = _parse_gauss_poly(coeffs["z1"], "z1")
        z2 = _parse_gauss_poly(coeffs["z2"], "z2")
        try:
            payload = HopfPair(z1, z2)
        except DegenerateInputError as exc:
            raise SpecParseError(str(exc)) from exc
        degree = 2 * payload.degree
    elif form == "hodograph":
        _require_keys(coeffs, ("dx", "dy", "dz"), "hodograph coefficients")
        try:
            payload = Hodograph(
                _parse_rat_poly(coeffs["dx"], "dx"),
                _parse_rat_poly(coeffs["dy"], "dy"),
                _parse_rat_poly(coeffs["dz"], "dz"),
            )
        except DegenerateInputError as exc:
            raise SpecParseError(str(exc)) from exc
        degree = payload.degree
    else:
        _require_keys(coeffs, ("x", "y", "z"), "curve coefficients")
        payload = PolynomialCurve(
            _parse_rat_poly(coeffs["x"], "x"),
            _parse_rat_poly(coeffs["y"], "y"),
            _parse_rat_poly(coeffs["z"], "z"),
        )
        try:
            degree = payload.hodograph().degree
        except DegenerateInputError as exc:
            raise SpecParseError("curve is a single point") from exc
    if degree > MAX_DEGREE:
        raise SpecParseError(
            f"{form}: hodograph degree {degree} exceeds the limit of {MAX_DEGREE}"
        )
    return CurveSpec(form, payload, origin)


# The exact-value encoders, shared with the report documents: rationals
# travel as the strings parse_rational reads back, polynomials as ascending
# coefficient arrays.


def encode_rationals(values) -> list:
    return [str(v) for v in values]


def encode_rat_poly(p: RatPoly) -> list:
    return encode_rationals(p.coeffs)


def encode_gauss_poly(p: GaussPoly) -> list:
    return [encode_rationals((c.re, c.im)) for c in p.coeffs]


def spec_to_doc(spec: CurveSpec) -> dict:
    """Canonical JSON-ready document; parse_spec inverts it exactly."""
    doc: dict = {"form": spec.form}
    if spec.form in ("quaternion", "bezier-quaternion"):
        quats = spec.payload.coeffs if spec.form == "quaternion" else spec.payload
        doc["coefficients"] = [encode_rationals(q.components()) for q in quats]
    elif spec.form == "hopf":
        doc["coefficients"] = {
            "z1": encode_gauss_poly(spec.payload.z1),
            "z2": encode_gauss_poly(spec.payload.z2),
        }
    elif spec.form == "hodograph":
        doc["coefficients"] = {
            "dx": encode_rat_poly(spec.payload.dx),
            "dy": encode_rat_poly(spec.payload.dy),
            "dz": encode_rat_poly(spec.payload.dz),
        }
    else:
        doc["coefficients"] = {
            "x": encode_rat_poly(spec.payload.x),
            "y": encode_rat_poly(spec.payload.y),
            "z": encode_rat_poly(spec.payload.z),
        }
    if any(spec.origin):
        doc["origin"] = encode_rationals(spec.origin)
    return doc


def _unique_keys(pairs) -> dict:
    """json's object hook: a repeated key is a parse error, not last-wins."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SpecParseError(f"repeated key {key!r} in a JSON object")
            seen.add(key)
    return doc


def load_spec(text: str) -> CurveSpec:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        # JSONDecodeError is a ValueError, and so is the refusal to convert
        # an integer longer than sys.get_int_max_str_digits() digits
        raise SpecParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        # the decoder recurses once per nested array or object
        raise SpecParseError("invalid JSON: nested too deeply") from exc
    return parse_spec(doc)


def dump_spec(spec: CurveSpec, indent: Optional[int] = None) -> str:
    return json.dumps(spec_to_doc(spec), indent=indent)
