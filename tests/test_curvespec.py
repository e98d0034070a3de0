"""Curve-spec document parsing, validation and lossless serialization."""

import json
from fractions import Fraction

import pytest

from phelix import SpecParseError, dump_spec, load_spec, parse_spec, spec_to_doc
from phelix.curvespec import MAX_COEFF_BITS, MAX_DEGREE, MAX_EXPONENT, parse_rational


QUAT_DOC = {
    "form": "quaternion",
    "coefficients": [
        ["0", "10", "5", "10"],
        ["-3", "-5", "3", "-9"],
        ["1", "1", "-2", "1"],
    ],
}

HOPF_DOC = {
    "form": "hopf",
    "coefficients": {
        "z1": [["0", "10"], ["-3", "-5"], ["1", "1"]],
        "z2": [["10", "5"], ["-9", "3"], ["1", "-2"]],
    },
}

CURVE_DOC = {
    "form": "curve",
    "coefficients": {
        "x": ["0", "-3", "0", "1", "0", "1/5", "0", "1/21"],
        "y": ["0", "0", "3", "0", "-1/2"],
        "z": ["0", "0", "0", "-2"],
    },
}


class TestParseRational:
    def test_strings_and_ints(self):
        assert parse_rational("3/7") == Fraction(3, 7)
        assert parse_rational("-2") == Fraction(-2)
        assert parse_rational(5) == Fraction(5)

    def test_floats_rejected(self):
        with pytest.raises(SpecParseError):
            parse_rational(0.5)

    def test_malformed(self):
        with pytest.raises(SpecParseError):
            parse_rational("3/7/2")
        with pytest.raises(SpecParseError):
            parse_rational("1/0")

    def test_exponent_limit(self):
        assert parse_rational("1e9") == 10**9
        assert parse_rational("2.5E-3") == Fraction(1, 400)
        # an exponent at its limit is expanded, and then meets the bit bound
        for text in (f"1e{MAX_EXPONENT}", f"1e-{MAX_EXPONENT}"):
            with pytest.raises(SpecParseError, match="14285-bit"):
                parse_rational(text)
        for text in (f"1e{MAX_EXPONENT + 1}", f"2.5E-{MAX_EXPONENT + 1}"):
            with pytest.raises(SpecParseError, match="exponent"):
                parse_rational(text)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficient_bit_limit(self, sign):
        top = sign * (2**MAX_COEFF_BITS - 1)
        for value in (top, str(top), f"1/{abs(top)}", f"{top}/{2**MAX_COEFF_BITS - 3}"):
            assert parse_rational(value) == Fraction(value)
        over = sign * 2**MAX_COEFF_BITS
        for value in (over, str(over), f"1/{abs(over)}", f"{over}e0"):
            with pytest.raises(SpecParseError, match=f"limit of {MAX_COEFF_BITS} bits"):
                parse_rational(value)


class TestParseSpec:
    def test_quaternion(self):
        spec = parse_spec(QUAT_DOC)
        assert spec.form == "quaternion"
        assert spec.payload.degree == 2

    def test_unknown_form(self):
        with pytest.raises(SpecParseError):
            parse_spec({"form": "spline", "coefficients": []})

    def test_missing_coefficients(self):
        with pytest.raises(SpecParseError):
            parse_spec({"form": "quaternion"})

    def test_empty_coefficients(self):
        with pytest.raises(SpecParseError):
            parse_spec({"form": "quaternion", "coefficients": []})

    def test_degree_cap(self):
        doc = {"form": "quaternion", "coefficients": [["1", "0", "0", "0"]] * 4}
        with pytest.raises(SpecParseError):
            parse_spec(doc)

    @pytest.mark.parametrize(
        "form, keys, width",
        [
            ("hodograph", ("dx", "dy", "dz"), lambda d: d + 1),
            ("curve", ("x", "y", "z"), lambda d: d + 2),
            ("hopf", ("z1", "z2"), lambda d: d // 2 + 1),
        ],
    )
    def test_hodograph_degree_limit(self, form, keys, width):
        # only parsed, never analysed: the bound is checked before any algebra
        def doc(degree):
            one = ["1", "0"] if form == "hopf" else "1"
            return {"form": form, "coefficients": {k: [one] * width(degree) for k in keys}}

        assert parse_spec(doc(MAX_DEGREE)).hodograph().degree <= MAX_DEGREE
        over = MAX_DEGREE + 2 if form == "hopf" else MAX_DEGREE + 1
        with pytest.raises(SpecParseError, match=f"degree {over} exceeds the limit"):
            parse_spec(doc(over))

    @pytest.mark.parametrize("form", ["quaternion", "hodograph"])
    def test_coefficient_bit_limit_through_load_spec(self, form):
        def doc(value):
            if form == "quaternion":
                coefficients = [["1", "0", "0", value], ["0", "1", "0", "0"]]
            else:
                coefficients = {"dx": ["1", value], "dy": ["0", "1"], "dz": []}
            return {"form": form, "coefficients": coefficients}

        assert load_spec(json.dumps(doc(f"1/{2**MAX_COEFF_BITS - 1}")))
        with pytest.raises(SpecParseError, match=f"{MAX_COEFF_BITS + 1}-bit"):
            load_spec(json.dumps(doc(f"1/{2**MAX_COEFF_BITS}")))

    def test_zero_polynomial_rejected(self):
        doc = {"form": "quaternion", "coefficients": [["0", "0", "0", "0"]]}
        with pytest.raises(SpecParseError):
            parse_spec(doc)

    @pytest.mark.parametrize(
        "doc, key",
        [
            (dict(QUAT_DOC, orign=["1", "2", "3"]), "orign"),
            (dict(HOPF_DOC, coefficients=dict(HOPF_DOC["coefficients"], z3=[])), "z3"),
            (
                {
                    "form": "hodograph",
                    "coefficients": {"dx": ["1"], "dy": ["0", "1"], "dz": [], "dw": ["5"]},
                },
                "dw",
            ),
            (dict(CURVE_DOC, coefficients=dict(CURVE_DOC["coefficients"], dx=["1"])), "dx"),
        ],
    )
    def test_unknown_key_through_load_spec(self, doc, key):
        # a misspelt key would otherwise leave its polynomial or origin at zero
        with pytest.raises(SpecParseError, match=f"unknown key '{key}'"):
            load_spec(json.dumps(doc))

    @pytest.mark.parametrize(
        "text, key",
        [
            # the same key twice in coefficients: json alone keeps dx = 7
            (
                '{"form": "hodograph", "coefficients": '
                '{"dx": ["1"], "dy": ["0", "1"], "dz": [], "dx": ["7"]}}',
                "dx",
            ),
            ('{"form": "hopf", "form": "quaternion", "coefficients": [["1", "0", "0", "0"]]}',
             "form"),
            # an object inside an array, deeper than any spec key
            ('{"form": "quaternion", "coefficients": [{"w": "1", "w": "2"}]}', "w"),
        ],
    )
    def test_repeated_key_through_load_spec(self, text, key):
        with pytest.raises(SpecParseError, match=f"repeated key '{key}'"):
            load_spec(text)

    def test_hopf_missing_key(self):
        with pytest.raises(SpecParseError):
            parse_spec({"form": "hopf", "coefficients": {"z1": [["1", "0"]]}})

    def test_hopf_both_zero(self):
        doc = {"form": "hopf", "coefficients": {"z1": [], "z2": []}}
        with pytest.raises(SpecParseError):
            parse_spec(doc)

    def test_zero_hodograph_rejected(self):
        doc = {"form": "hodograph", "coefficients": {"dx": [], "dy": [], "dz": ["0"]}}
        with pytest.raises(SpecParseError):
            parse_spec(doc)

    def test_point_curve_rejected(self):
        doc = {"form": "curve", "coefficients": {"x": ["1"], "y": ["2"], "z": ["3"]}}
        with pytest.raises(SpecParseError):
            parse_spec(doc)

    def test_origin(self):
        doc = dict(QUAT_DOC, origin=["1", "-1/2", "0"])
        spec = parse_spec(doc)
        assert spec.origin == (Fraction(1), Fraction(-1, 2), Fraction(0))
        assert spec.curve().evaluate(0) == spec.origin

    def test_bad_origin(self):
        with pytest.raises(SpecParseError):
            parse_spec(dict(QUAT_DOC, origin=["1", "2"]))

    @pytest.mark.parametrize("origin", [["1", "2", "3"], ["0", "0", "0"]])
    def test_origin_on_curve_rejected(self, origin):
        # the curve form is not integrated: its constant terms are its start
        # point, and an origin beside them would be echoed but never applied
        with pytest.raises(SpecParseError, match="origin"):
            parse_spec(dict(CURVE_DOC, origin=origin))


class TestRoundTrip:
    @pytest.mark.parametrize("doc", [QUAT_DOC, HOPF_DOC, CURVE_DOC])
    def test_doc_roundtrip(self, doc):
        spec = parse_spec(doc)
        again = parse_spec(spec_to_doc(spec))
        assert again == spec
        assert spec_to_doc(again) == spec_to_doc(spec)

    def test_bezier_roundtrip(self):
        doc = {
            "form": "bezier-quaternion",
            "coefficients": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
        }
        spec = parse_spec(doc)
        assert parse_spec(spec_to_doc(spec)) == spec

    def test_hodograph_roundtrip_with_origin(self):
        doc = {
            "form": "hodograph",
            "coefficients": {"dx": ["1"], "dy": ["0", "2"], "dz": ["0"]},
            "origin": ["0", "1/3", "0"],
        }
        spec = parse_spec(doc)
        assert parse_spec(spec_to_doc(spec)) == spec
        assert "origin" in spec_to_doc(spec)

    def test_json_text_roundtrip(self):
        spec = parse_spec(CURVE_DOC)
        assert load_spec(dump_spec(spec)) == spec

    def test_invalid_json(self):
        with pytest.raises(SpecParseError):
            load_spec("{not json")

    def test_integer_over_the_digit_limit(self):
        text = '{"form": "hodograph", "coefficients": {"dx": [%s, 1], "dy": [0, 1], "dz": [1]}}'
        with pytest.raises(SpecParseError, match="invalid JSON"):
            load_spec(text % ("9" * 5000))

    @pytest.mark.parametrize("text", ["[" * 100000, "[" * 100000 + "]" * 100000])
    def test_nesting_deeper_than_the_recursion_limit(self, text):
        with pytest.raises(SpecParseError, match="nested too deeply"):
            load_spec(text)


class TestFormBridges:
    def test_quaternion_and_hopf_forms_agree(self):
        h1 = parse_spec(QUAT_DOC).hodograph()
        h2 = parse_spec(HOPF_DOC).hodograph()
        assert h1 == h2

    def test_bezier_converts_through_power_basis(self):
        doc = {
            "form": "bezier-quaternion",
            "coefficients": [["1", "0", "0", "0"]] * 3,
        }
        spec = parse_spec(doc)
        assert spec.quaternion_form().degree == 0

    def test_curve_form_keeps_constants(self):
        spec = parse_spec(CURVE_DOC)
        assert spec.curve().evaluate(0) == (0, 0, 0)
        assert spec.curve().evaluate(1) == (Fraction(-184, 105), Fraction(5, 2), -2)
