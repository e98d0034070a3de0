"""End-to-end CLI behaviour: commands, formats, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import phelix.analysis as analysis
import phelix.cli
import phelix.curvespec as curvespec
import phelix.quintic as quintic
import phelix.references as references
from conftest import rand_quaternion_quadratic, seeded
from phelix import (
    InternalInconsistencyError,
    Quaternion,
    QuaternionPolynomial,
    RatPoly,
    ScaledSqrt,
    classify_quintic,
    generate_general_quintic,
    generate_monotone_quintic,
    hopf_from_quaternion,
    perfect_square_root,
    quaternion_from_hopf,
)
from phelix.analysis import HelixKind, HelixVerdict
from phelix.cli import MAX_COUNT, MAX_HEIGHT, MAX_PRECISION, MAX_SAMPLES, main
from phelix.references import reference_curve
from phelix.curvespec import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_EXPONENT,
    CurveSpec,
    dump_spec,
    load_spec,
    parse_spec,
    spec_to_doc,
)

EXAMPLE1_DOC = {
    "form": "quaternion",
    "coefficients": [
        ["0", "10", "5", "10"],
        ["-3", "-5", "3", "-9"],
        ["1", "1", "-2", "1"],
    ],
}

# example1's control quaternions: b0 = a0, b1 = a0 + a1/2, b2 = a0 + a1 + a2
EXAMPLE1_BEZIER = [
    ["0", "10", "5", "10"],
    ["-3/2", "15/2", "13/2", "11/2"],
    ["-2", "6", "6", "2"],
]

DEGREE7_DOC = {
    "form": "curve",
    "coefficients": {
        "x": ["0", "-3", "0", "1", "0", "1/5", "0", "1/21"],
        "y": ["0", "0", "3", "0", "-1/2"],
        "z": ["0", "0", "0", "-2"],
    },
}

# quaternions in span{1, k}: a general-family quintic in the plane z = 0
PLANAR_DOC = {
    "form": "quaternion",
    "coefficients": [["1", "0", "0", "2"], ["0", "0", "0", "1"], ["3", "0", "0", "-1"]],
}

NOT_HELIX_DOC = {
    "form": "quaternion",
    "coefficients": [["1", "2", "0", "1"], ["0", "1", "3", "0"], ["2", "-1", "1", "1"]],
}

LINE_DOC = {"form": "hodograph", "coefficients": {"dx": ["1"], "dy": [], "dz": []}}

# (t + 1) times the monotone quintic pair ((t - i)(t - 2), (t - i)(t - 1 - i)):
# a Hopf pair of degree 3, above the quintic casework, that is a helix
HOPF_CUBIC_DOC = {
    "form": "hopf",
    "coefficients": {
        "z1": [["0", "2"], ["-2", "1"], ["-1", "-1"], ["1", "0"]],
        "z2": [["-1", "1"], ["-2", "-1"], ["0", "-2"], ["1", "0"]],
    },
}

SRC = Path(__file__).resolve().parents[1] / "src"


def write_doc(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestClassify:
    def test_example1_text(self, tmp_path, capsys):
        code = main(["classify", write_doc(tmp_path, EXAMPLE1_DOC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "monotone-helix" in out
        assert "(1 - 7i)t^2 + (-30 + 10i)t + (25 + 25i)" in out

    def test_example1_json(self, tmp_path, capsys):
        code = main(["classify", "--format", "json", write_doc(tmp_path, EXAMPLE1_DOC)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"]["kind"] == "monotone-helix"
        assert doc["analysis"]["is_2ph"] is True
        assert doc["classification"]["decomposition"]["case"] == "omega-constant"

    def test_degree7_curve(self, tmp_path, capsys):
        code = main(["classify", "--format", "json", write_doc(tmp_path, DEGREE7_DOC)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["analysis"]["is_2ph"] is True
        assert doc["analysis"]["verdict"]["kind"] == "not-helix"
        assert "classification" not in doc

    def test_degenerate_proportional_pair(self, tmp_path, capsys):
        doc = {
            "form": "hopf",
            "coefficients": {
                "z1": [["1", "0"], ["2", "1"]],
                "z2": [["2", "0"], ["4", "2"]],
            },
        }
        code = main(["classify", write_doc(tmp_path, doc)])
        out = capsys.readouterr().out
        assert code == 2
        assert "degenerate" in out

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EXAMPLE1_DOC)))
        code = main(["classify", "-"])
        assert code == 0
        assert "monotone-helix" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/spec.json"]) == 1

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["classify", str(path)]) == 1

    def test_empty_coefficients(self, tmp_path, capsys):
        doc = {"form": "quaternion", "coefficients": []}
        assert main(["classify", write_doc(tmp_path, doc)]) == 1

    # classify once echoed the origin in its input and sample ignored it
    @pytest.mark.parametrize("command", ["classify", "sample"])
    def test_origin_on_curve_exits_cleanly(self, command, tmp_path, capsys):
        doc = {
            "form": "curve",
            "coefficients": {"x": ["0", "1"], "y": ["0", "0", "1"], "z": []},
            "origin": ["1", "2", "3"],
        }
        assert main([command, write_doc(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "origin is not accepted" in captured.err

    @pytest.mark.parametrize("command", ["classify", "sample"])
    @pytest.mark.parametrize(
        "doc, key",
        [
            (
                {
                    "form": "hodograph",
                    "coefficients": {"dx": ["1"], "dy": ["0", "1"], "dz": []},
                    "orign": ["1", "2", "3"],
                },
                "orign",
            ),
            (
                {
                    "form": "hodograph",
                    "coefficients": {"dx": ["1"], "dy": ["0", "1"], "dz": [], "dw": ["5"]},
                },
                "dw",
            ),
        ],
    )
    def test_unknown_key_exits_cleanly(self, command, doc, key, tmp_path, capsys):
        assert main([command, write_doc(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown key '{key}'" in captured.err

    @pytest.mark.parametrize("command", ["classify", "sample"])
    def test_repeated_key_exits_cleanly(self, command, tmp_path, capsys):
        path = tmp_path / "repeated.json"
        path.write_text(
            '{"form": "hodograph", "coefficients": '
            '{"dx": ["1"], "dy": ["0", "1"], "dz": [], "dx": ["7"]}}'
        )
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repeated key 'dx'" in captured.err

    @pytest.mark.parametrize("command", ["classify", "sample"])
    def test_underscore_rational_exits_cleanly(self, command, tmp_path, capsys):
        doc = {"form": "hodograph", "coefficients": {"dx": ["1_0"], "dy": ["0", "1"], "dz": []}}
        assert main([command, write_doc(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed rational '1_0'" in captured.err

    def test_float_coefficient_rejected(self, tmp_path, capsys):
        doc = {"form": "hodograph", "coefficients": {"dx": [0.5], "dy": [], "dz": []}}
        assert main(["classify", write_doc(tmp_path, doc)]) == 1

    def test_hostile_numbers_exit_cleanly(self, tmp_path, capsys):
        huge_int = '{"form": "hodograph", "dx": [%s, 1], "dy": [0, 1], "dz": [1]}' % ("9" * 5000)
        path = tmp_path / "huge.json"
        path.write_text(huge_int)
        assert main(["classify", str(path)]) == 1
        big_exponent = {
            "form": "hodograph",
            "coefficients": {"dx": [f"1e{MAX_EXPONENT + 1}"], "dy": ["1"], "dz": []},
        }
        assert main(["classify", write_doc(tmp_path, big_exponent)]) == 1
        assert "exponent" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["quaternion", "hodograph"])
    def test_coefficient_bits_over_the_limit_exit_cleanly(self, form, tmp_path, capsys):
        over = f"-1/{2**MAX_COEFF_BITS}"
        if form == "quaternion":
            coefficients = [["1", "0", "0", over], ["0", "1", "0", "0"]]
        else:
            coefficients = {"dx": ["1", over], "dy": ["0", "1"], "dz": []}
        doc = {"form": form, "coefficients": coefficients}
        assert main(["classify", write_doc(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"exceeds the limit of {MAX_COEFF_BITS} bits" in captured.err
        assert "Traceback" not in captured.err

    def test_degree_over_the_limit_exits_cleanly(self, tmp_path, capsys):
        ones = ["1"] * (MAX_DEGREE + 2)
        doc = {"form": "hodograph", "coefficients": {"dx": ones, "dy": ones, "dz": ["1"]}}
        assert main(["classify", write_doc(tmp_path, doc)]) == 1
        assert f"exceeds the limit of {MAX_DEGREE}" in capsys.readouterr().err

    def test_deep_nesting_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert main(["classify", str(path)]) == 1
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "sample"])
    def test_non_utf8_file_exits_cleanly(self, command, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe\x00{")
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not UTF-8 text" in captured.err


def _count_calls(monkeypatch, owner, name) -> list:
    """Patch owner.name with a wrapper that records each call's arguments."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOneAnalysisPerReport:
    """classify and analyze build the hodograph invariants and the Wronskian
    once and take each of the two square roots once, whatever the format;
    (tau/kappa)^2 is reduced only for a non-helix."""

    @pytest.fixture
    def counts(self, monkeypatch):
        return {
            "builds": _count_calls(monkeypatch, analysis.Invariants, "__new__"),
            "roots": _count_calls(monkeypatch, analysis, "perfect_square_root"),
            "wronskians": _count_calls(monkeypatch, quintic, "wronskian"),
            "reductions": _count_calls(monkeypatch, analysis, "_lancret_ratio"),
        }

    @pytest.mark.parametrize("command", ["classify", "analyze"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_one_invariants_build(self, command, fmt, tmp_path, capsys, counts):
        path = write_doc(tmp_path, EXAMPLE1_DOC)
        assert main([command, "--format", fmt, path]) == 0
        assert "monotone-helix" in capsys.readouterr().out
        assert len(counts["builds"]) == 1
        assert len(counts["roots"]) == 2
        assert len(counts["wronskians"]) == 1
        assert len(counts["reductions"]) == 0

    @pytest.mark.parametrize("command", ["classify", "analyze"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "doc, kind, reductions",
        [(PLANAR_DOC, "planar", 0), (NOT_HELIX_DOC, "not-helix", 1)],
        ids=["planar", "not-helix"],
    )
    def test_ratio_reduced_only_for_a_non_helix(
        self, doc, kind, reductions, command, fmt, tmp_path, capsys, counts
    ):
        assert main([command, "--format", fmt, write_doc(tmp_path, doc)]) == 0
        assert kind in capsys.readouterr().out
        assert len(counts["builds"]) == 1
        assert len(counts["wronskians"]) == 1
        assert len(counts["reductions"]) == reductions

    def test_real_shared_root_reads_omega_constant(self, tmp_path, capsys, counts, monkeypatch):
        # a real shared root gives W = c (t - 1)^2, which is also a complex
        # constant times a real polynomial; the square reading wins, and
        # monotone_test finds t - 1 from z1 and z2 alone
        tests = _count_calls(monkeypatch, quintic, "monotone_test")
        doc = {
            "form": "hopf",
            "coefficients": {
                "z1": [["-3", "0"], ["4", "0"], ["-1", "0"]],
                "z2": [["0", "2"], ["0", "-3"], ["0", "1"]],
            },
        }
        assert main(["classify", write_doc(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        assert "decomposition: omega-constant" in out
        assert "shared factor gcd(z1, z2) = t - 1" in out
        assert len(tests) == 1
        assert len(counts["wronskians"]) == 1

    def test_bezier_spec_converted_once(self, tmp_path, capsys, monkeypatch):
        # parse_spec tests the controls for zero itself; only the report
        # converts them to the power basis
        conversions = _count_calls(monkeypatch, curvespec, "bezier_to_power")
        doc = {"form": "bezier-quaternion", "coefficients": EXAMPLE1_BEZIER}
        assert main(["classify", write_doc(tmp_path, doc)]) == 0
        assert "monotone-helix" in capsys.readouterr().out
        assert len(conversions) == 1

    def test_all_zero_bezier_controls_rejected(self, tmp_path, capsys):
        doc = {"form": "bezier-quaternion", "coefficients": [["0", "0", "0", "0"]] * 3}
        assert main(["classify", write_doc(tmp_path, doc)]) == 1
        assert "control quaternions are all zero" in capsys.readouterr().err


# Exit code 3 is reserved for two routes that disagree.  Each fault breaks
# one consistency check of the quintic classifier or of the constant-slope
# test: (phelix module, attribute, replacement, message of the
# InternalInconsistencyError it must raise).  It runs on example1, a
# monotone helix, unless FAULT_DOCS names another curve.
FAULTS = {
    "slope-route": (
        analysis,
        "helix_verdict",
        lambda inv: HelixVerdict(HelixKind.NOT_HELIX),
        "algebraic classification disagrees with the constant-slope test",
    ),
    "route-case": (
        quintic,
        "monotone_test",
        lambda pair: None,
        "constant-omega decomposition without a shared Hopf factor",
    ),
    "wronskian-case": (
        quintic,
        "decompose_wronskian_quintic",
        lambda pair, w: quintic.WronskianDecomposition(
            quintic.DecompositionCase.Z_CONSTANT, RatPoly.one(), w
        ),
        "shared Hopf factor with a z-constant decomposition",
    ),
    # a made-up rho on a curve that is not 2-PH, and no helix
    "norm-test": (
        analysis,
        "norms",
        lambda inv: (
            perfect_square_root(inv.sigma_squared), ScaledSqrt(Fraction(1), RatPoly.one())
        ),
        "Wronskian decomposability disagrees with the polynomial-norm test",
    ),
    "helix-not-2ph": (
        analysis,
        "norms",
        lambda inv: (perfect_square_root(inv.sigma_squared), None),
        "helix verdict on a curve that is not 2-PH",
    ),
    "decomposition-product": (
        quintic,
        "_constant_square_split",
        lambda w: (RatPoly([2]), w),
        "Wronskian decomposition does not multiply back",
    ),
    # on a planar curve the identities must hold; off it, a failure is a
    # non-helix verdict
    "axis-identities": (
        analysis,
        "_verify_axis",
        lambda axis, inv: None,
        "axis identities failed",
    ),
}

FAULT_DOCS = {
    "norm-test": NOT_HELIX_DOC,
    "axis-identities": {
        "form": "quaternion",
        "coefficients": [["0", "0", "0", "1"], ["0", "1", "0", "0"]],
    },
}


@pytest.mark.parametrize("fault", FAULTS)
class TestInternalInconsistency:
    @pytest.fixture(autouse=True)
    def inject(self, fault, monkeypatch):
        module, attribute, replacement, _ = FAULTS[fault]
        monkeypatch.setattr(module, attribute, replacement)

    def test_classify_quintic_raises(self, fault):
        doc = FAULT_DOCS.get(fault, EXAMPLE1_DOC)
        with pytest.raises(InternalInconsistencyError, match=FAULTS[fault][3]):
            classify_quintic(parse_spec(doc).quaternion_form())

    def test_cli_exit_code(self, fault, tmp_path, capsys):
        doc = FAULT_DOCS.get(fault, EXAMPLE1_DOC)
        assert main(["classify", write_doc(tmp_path, doc)]) == 3
        assert f"internal inconsistency: {FAULTS[fault][3]}" in capsys.readouterr().err


class TestHopfAboveQuintic:
    """A Hopf spec above quintic degree has no classification; its verdict
    reads only the hodograph, so the same curve given as a hodograph reports
    the same helix."""

    @pytest.mark.parametrize("form", ["hopf", "hodograph"])
    @pytest.mark.parametrize("command", ["classify", "analyze"])
    def test_helix_json(self, command, form, tmp_path, capsys):
        doc = HOPF_CUBIC_DOC
        if form == "hodograph":
            doc = spec_to_doc(CurveSpec("hodograph", parse_spec(doc).hodograph()))
        assert main([command, "--format", "json", write_doc(tmp_path, doc)]) == 0
        report = json.loads(capsys.readouterr().out)
        verdict = report["analysis"]["verdict"]
        assert verdict == {"kind": "helix", "slope_squared": "1/3", "axis": ["1", "-1", "1"]}
        assert "classification" not in report

    @pytest.mark.parametrize("command", ["classify", "analyze"])
    def test_helix_text(self, command, tmp_path, capsys):
        assert main([command, write_doc(tmp_path, HOPF_CUBIC_DOC)]) == 0
        out = capsys.readouterr().out
        assert "slope verdict: helix" in out
        assert "(tau/kappa)^2 = 1/2 (constant)" in out
        assert "  slope^2 = 1/3" in out
        assert "classification:" not in out


def _cross_form_curves():
    """Quaternion quadratics: random ones (almost never helices), sampled
    monotone and general helices, and fixed planar, proportional, linear
    and constant ones."""
    rng = seeded(20)
    curves = [rand_quaternion_quadratic(rng) for _ in range(12)]
    for _ in range(8):
        curves.append(quaternion_from_hopf(generate_monotone_quintic(rng, height=6)))
        curves.append(generate_general_quintic(rng, height=6))
    a0, a1 = Quaternion(1, 2, -1, 3), Quaternion(0, 1, 1, -2)
    curves.append(parse_spec(PLANAR_DOC).payload)
    curves.append(QuaternionPolynomial([a0, a0]))
    curves.append(QuaternionPolynomial([a0, a1]))
    curves.append(QuaternionPolynomial([a0]))
    return curves


class TestQuaternionFormsReadThroughTheHopfPair:
    """A quaternion polynomial, its Bezier control points and its Hopf pair
    encode one curve, so classify reports the same apart from ``input``, and
    the curve's hodograph spec reports the same analysis."""

    @staticmethod
    def classify(doc, tmp_path, capsys):
        code = main(["classify", "--format", "json", write_doc(tmp_path, doc)])
        report = json.loads(capsys.readouterr().out)
        del report["input"]
        return code, report

    def test_same_report(self, tmp_path, capsys):
        for quat in _cross_form_curves():
            a0, a1, a2 = (quat.coefficient(k) for k in range(3))
            specs = [
                CurveSpec("quaternion", quat),
                CurveSpec("bezier-quaternion", (a0, a0 + a1 * Fraction(1, 2), a0 + a1 + a2)),
                CurveSpec("hopf", hopf_from_quaternion(quat)),
            ]
            results = [self.classify(spec_to_doc(spec), tmp_path, capsys) for spec in specs]
            assert results[1] == results[0], quat
            assert results[2] == results[0], quat
            assert "classification" in results[0][1]
            hodograph = spec_to_doc(CurveSpec("hodograph", specs[0].hodograph()))
            _, report = self.classify(hodograph, tmp_path, capsys)
            assert report["analysis"] == results[0][1]["analysis"], quat


class TestAnalyze:
    def test_line_notice_and_exit_code(self, tmp_path, capsys):
        code = main(["analyze", write_doc(tmp_path, LINE_DOC)])
        out = capsys.readouterr().out
        assert code == 2
        assert "straight line" in out

    def test_degree7_analysis(self, tmp_path, capsys):
        code = main(["analyze", write_doc(tmp_path, DEGREE7_DOC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "sigma = (1/3)t^6 + t^4 + 3t^2 + 3" in out
        assert "(tau/kappa)^2" in out
        assert "frenet frame" in out

    def test_example1_constant_ratio(self, tmp_path, capsys):
        code = main(["analyze", write_doc(tmp_path, EXAMPLE1_DOC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "(tau/kappa)^2 = 9/50 (constant)" in out


class TestSample:
    def test_two_rows(self, tmp_path, capsys):
        code = main(
            ["sample", write_doc(tmp_path, DEGREE7_DOC), "--from", "0", "--to", "1", "--n", "2"]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "t,x,y,z"
        assert len(out) == 3
        assert out[1] == "0,0,0,0"

    def test_values_match_exact_evaluation(self, tmp_path, capsys):
        code = main(
            [
                "sample",
                write_doc(tmp_path, DEGREE7_DOC),
                "--from",
                "0",
                "--to",
                "1",
                "--n",
                "5",
                "--precision",
                "15",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        curve = reference_curve("counterexample").spec.curve()
        for k, line in enumerate(lines):
            t = Fraction(k, 4)
            fields = [float(v) for v in line.split(",")]
            exact = curve.evaluate(t)
            assert fields[0] == pytest.approx(float(t), abs=1e-12)
            for got, want in zip(fields[1:], exact):
                assert got == pytest.approx(float(want), rel=1e-12)

    def test_final_point(self, tmp_path, capsys):
        main(["sample", write_doc(tmp_path, DEGREE7_DOC), "--n", "2"])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        x = float(last.split(",")[1])
        assert x == pytest.approx(-184 / 105, rel=1e-11)

    @pytest.mark.parametrize(
        "start, first",
        [("-1/2", "-0.5"), ("-3/2", "-1.5"), ("-1e3", "-1000"), ("-75e-2", "-0.75"),
         ("-.5", "-0.5"), ("-1", "-1")],
    )
    def test_negative_rational_start(self, start, first, tmp_path, capsys):
        # argparse took "-1/2" and "-1e3" for options and left --from without
        # a value; every negative rational parse_rational accepts must pass
        path = write_doc(tmp_path, DEGREE7_DOC)
        assert main(["sample", path, "--from", start, "--to", "-1/4", "--n", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1].split(",")[0] == first
        assert rows[2].split(",")[0] == "-0.25"

    def test_negative_rational_over_the_bit_limit_reaches_the_spec_check(
        self, tmp_path, capsys
    ):
        path = write_doc(tmp_path, DEGREE7_DOC)
        assert main(["sample", path, "--from", "-1e30", "--n", "2"]) == 1
        err = capsys.readouterr().err
        assert f"exceeds the limit of {MAX_COEFF_BITS} bits" in err
        assert "expected one argument" not in err

    def test_invalid_range(self, tmp_path, capsys):
        path = write_doc(tmp_path, DEGREE7_DOC)
        assert main(["sample", path, "--from", "1", "--to", "0"]) == 1
        assert main(["sample", path, "--n", "1"]) == 1

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--n", "0"),
            ("--n", "-3"),
            ("--n", str(MAX_SAMPLES + 1)),
            ("--precision", "0"),
            ("--precision", "-3"),
            ("--precision", str(MAX_PRECISION + 1)),
        ],
    )
    def test_out_of_range_count_or_precision(self, option, value, tmp_path, capsys):
        path = write_doc(tmp_path, DEGREE7_DOC)
        assert main(["sample", path, option, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{option} must be between" in captured.err

    def test_largest_precision(self, tmp_path, capsys):
        path = write_doc(tmp_path, DEGREE7_DOC)
        assert main(["sample", path, "--n", "2", "--precision", str(MAX_PRECISION)]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert len(last.split(",")[1].lstrip("-").replace(".", "")) == MAX_PRECISION


class TestVerify:
    def test_all_pass(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_single_example(self, capsys):
        code = main(["verify", "--example", "example2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "example2." in out
        assert "example1." not in out

    def test_unknown_example(self, capsys):
        assert main(["verify", "--example", "example3"]) == 1
        err = capsys.readouterr().err
        assert "invalid choice: 'example3'" in err
        assert "'example1', 'example2', 'counterexample', 'all'" in err

    def test_corrupted_expectation_fails(self, capsys, monkeypatch):
        def corrupted():
            ref = references.build_example1()
            w = ref.expected["wronskian"]
            coeffs = list(w.coeffs)
            coeffs[0] = coeffs[0] + 1
            ref.expected["wronskian"] = type(w)(coeffs)
            return ref

        monkeypatch.setitem(references.REFERENCE_BUILDERS, "example1", corrupted)
        code = main(["verify", "--example", "example1"])
        out = capsys.readouterr().out
        assert code != 0
        assert "FAIL example1.wronskian" in out


class TestGenerate:
    def test_deterministic(self, capsys):
        assert main(["generate", "--family", "monotone", "--count", "3", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["generate", "--family", "monotone", "--count", "3", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        assert "monotone-helix" in first

    def test_general_json(self, capsys):
        code = main(
            [
                "generate",
                "--family",
                "general",
                "--count",
                "4",
                "--seed",
                "9",
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["curves"]) == 4
        assert all(c["lancret"] == "helix" for c in doc["curves"])
        assert sum(doc["summary"].values()) == 4

    def test_generated_specs_reparse(self, capsys):
        main(["generate", "--family", "general", "--count", "2", "--seed", "3", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        from phelix.curvespec import parse_spec

        for entry in doc["curves"]:
            spec = parse_spec(entry["spec"])
            assert dump_spec(spec) == json.dumps(entry["spec"])

    def test_zero_count(self, capsys):
        assert main(["generate", "--family", "monotone", "--count", "0"]) == 1

    def test_count_over_the_limit(self, capsys):
        argv = ["generate", "--family", "general", "--count", str(MAX_COUNT + 1)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--count must be between 1 and {MAX_COUNT}" in captured.err

    @pytest.mark.parametrize("height", ["0", "-1"])
    def test_height_below_one(self, height, capsys):
        assert main(["generate", "--family", "general", "--height", height]) == 1
        assert "--height must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["monotone", "general"])
    def test_specs_at_the_height_bound_reload(self, family, capsys):
        # the bound's derivation: a monotone coefficient is at most 4*H^6
        assert 4 * MAX_HEIGHT**6 < 2**MAX_COEFF_BITS <= 4 * (MAX_HEIGHT + 1) ** 6
        for seed in range(4):
            argv = ["generate", "--family", family, "--count", "3", "--seed", str(seed),
                    "--height", str(MAX_HEIGHT), "--format", "json"]
            assert main(argv) == 0
            for entry in json.loads(capsys.readouterr().out)["curves"]:
                assert load_spec(json.dumps(entry["spec"])) is not None

    def test_height_over_the_limit(self, capsys):
        argv = ["generate", "--family", "monotone", "--height", str(MAX_HEIGHT + 1)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"at most {MAX_HEIGHT}" in captured.err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_version(self, capsys):
        assert main(["--version"]) == 0

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "phelix", "classify", write_doc(tmp_path, EXAMPLE1_DOC)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "monotone-helix" in proc.stdout

    def test_closed_stdout_before_any_output(self):
        # the reader is gone before the first write, as with `| head -0`
        proc = subprocess.Popen(
            [sys.executable, "-m", "phelix", "generate", "--family", "general",
             "--count", "3", "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 1
        assert "Traceback" not in err
        assert err == ""

    def test_reader_closes_after_the_first_line(self, tmp_path):
        # as with `| head -1`: the rows outgrow the pipe's buffer, so the
        # writer is still writing when the reader goes
        proc = subprocess.Popen(
            [sys.executable, "-m", "phelix", "sample", write_doc(tmp_path, DEGREE7_DOC),
             "--n", "4000", "--precision", "40"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.stdout.readline() == b"t,x,y,z\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 1
        assert "Traceback" not in err
        assert err == ""

    def test_import_path_stays_light(self):
        # -S keeps the interpreter's site hooks, which may import anything,
        # out of the check; phelix.references is needed by verify alone, and
        # pathlib brings fnmatch, urllib.parse and ipaddress for nothing;
        # main() builds its parser on the first call, so the import builds none
        code = (
            "import argparse, sys\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import phelix.cli\n"
            "print(sorted({'dataclasses', 'pathlib', 'phelix.references'} & set(sys.modules)),"
            " len(built))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[] 0"


class TestParserReuse:
    """main() builds its parser once per process; back-to-back calls, errors
    among them, give what a fresh `python -m phelix` gives for each."""

    def test_back_to_back_calls_match_fresh_processes(self, tmp_path, monkeypatch, capsys):
        # usage messages wrap at the terminal width, so pin it on both sides
        monkeypatch.setenv("COLUMNS", "80")
        refs = {}
        for name in references.REFERENCE_NAMES:
            refs[name] = str(tmp_path / f"{name}.json")
            Path(refs[name]).write_text(dump_spec(reference_curve(name).spec))
        counterexample = refs["counterexample"]
        calls = [
            *(["classify", path, "--format", "json"] for path in refs.values()),
            *(["classify", path] for path in refs.values()),
            ["analyze", refs["example1"]],
            ["sample", counterexample, "--n", "3"],
            ["sample", counterexample, "--from", "-1/2", "--n", "3"],
            ["sample", counterexample, "--n", "1"],
            ["frobnicate"],
            ["classify", str(tmp_path / "missing.json")],
            ["classify", write_doc(tmp_path, LINE_DOC, "line.json")],
            ["verify", "--example", "example1"],
            ["generate", "--family", "monotone", "--count", "2"],
            # the first call again, after every kind of exit
            ["classify", refs["example1"], "--format", "json"],
        ]
        # start from an unbuilt parser, as a new process does
        monkeypatch.setattr(phelix.cli, "_parser", None, raising=False)
        in_process = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert {code for code, _, _ in in_process} == {0, 1, 2}

        env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
        for argv, got in zip(calls, in_process):
            proc = subprocess.run(
                [sys.executable, "-m", "phelix", *argv], capture_output=True, text=True, env=env
            )
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv

    def test_parser_is_built_once(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(phelix.cli, "_parser", None)
        builds = _count_calls(monkeypatch, phelix.cli, "build_parser")
        path = write_doc(tmp_path, EXAMPLE1_DOC)
        for argv in (["classify", path], ["frobnicate"], ["sample", path, "--n", "2"]):
            main(argv)
        capsys.readouterr()
        assert len(builds) == 1
