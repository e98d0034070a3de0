"""Built-in reference curves with frozen expected values.

Three curves with known classifications ship with the tool:

* ``example1`` — a quintic whose Hopf polynomials share a complex linear
  factor (a monotone helix; its Wronskian is a perfect square);
* ``example2`` — a quintic whose defining quaternions are linearly dependent
  (a general helix; its Wronskian is a complex constant times a real
  quadratic);
* ``counterexample`` — a degree-7 curve whose speed and cross-product norm
  are both polynomials yet whose torsion/curvature ratio is not constant,
  showing the quintic equivalence does not extend to higher degree.

Every expected value is stored as data so the check runner can compare the
full pipeline output coefficient by coefficient; corrupting any stored
number makes the corresponding check fail.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .analysis import CurveAnalysis, HelixKind
from .curvespec import CurveSpec, parse_spec
from .polynomials import (
    GaussPoly,
    GaussianRational,
    RatPoly,
    RationalFunction,
    ScaledSqrt,
)
from .quintic import ClassificationReport, ConstantZParameters, constant_z_parameters
from .report import analyze_spec


class ReferenceCurve(NamedTuple):
    name: str
    description: str
    spec: CurveSpec
    expected: Dict[str, object]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    expected: str
    actual: str


def _g(re, im=0) -> GaussianRational:
    return GaussianRational(re, im)


def build_example1() -> ReferenceCurve:
    spec = parse_spec(
        {
            "form": "quaternion",
            "coefficients": [
                ["0", "10", "5", "10"],
                ["-3", "-5", "3", "-9"],
                ["1", "1", "-2", "1"],
            ],
        }
    )
    wronskian = GaussPoly([_g(25, 25), _g(-30, 10), _g(1, -7)])
    return ReferenceCurve(
        name="example1",
        description="quintic with a shared Hopf factor (monotone helix)",
        spec=spec,
        expected={
            "wronskian": wronskian,
            "decomposition_case": "omega-constant",
            "omega": RatPoly([1]),
            "z_squared": wronskian,
            "shared_factor": GaussPoly([_g(-1, -2), _g(1)]),
            "quintic_kind": "monotone-helix",
            "lancret_kind": HelixKind.HELIX,
            "two_ph": True,
            "lancret_constant": True,
            "lancret_ratio_squared": RationalFunction.constant(Fraction(9, 50)),
            "slope_squared": Fraction(9, 59),
            "axis": (Fraction(7), Fraction(-3), Fraction(-1)),
            "sigma_value_at_0": Fraction(225),
        },
    )


def build_example2() -> ReferenceCurve:
    spec = parse_spec(
        {
            "form": "quaternion",
            "coefficients": [
                ["5", "1", "-1", "3"],
                ["12", "18", "-12", "24"],
                ["-19", "-22", "15", "-31"],
            ],
        }
    )
    return ReferenceCurve(
        name="example2",
        description="quintic with linearly dependent quaternions (general helix)",
        spec=spec,
        expected={
            "wronskian": GaussPoly([_g(-78, 78), _g(182, -182), _g(-78, 78)]),
            "decomposition_case": "z-constant",
            "omega": RatPoly([3, -7, 3]),
            "z_squared": GaussPoly([_g(-26, 26)]),
            "dependence": (Fraction(-6, 7), Fraction(-6, 7)),
            "tan_two_theta": Fraction(-1),
            "m1_squared": Fraction(66248),
            "m0_over_m1": Fraction(-3, 7),
            "m2_over_m1": Fraction(-3, 7),
            "quintic_kind": "general-helix",
            "lancret_kind": HelixKind.HELIX,
            "two_ph": True,
            "lancret_constant": True,
            "lancret_ratio_squared": RationalFunction.constant(Fraction(121, 338)),
            "slope_squared": Fraction(121, 459),
            "axis": (Fraction(5), Fraction(-1), Fraction(5)),
        },
    )


def build_counterexample() -> ReferenceCurve:
    spec = parse_spec(
        {
            "form": "curve",
            "coefficients": {
                "x": ["0", "-3", "0", "1", "0", "1/5", "0", "1/21"],
                "y": ["0", "0", "3", "0", "-1/2"],
                "z": ["0", "0", "0", "-2"],
            },
        }
    )
    ratio_num = RatPoly([-9, 0, 0, 0, 9, 0, 2]) ** 2
    ratio_den = 81 * RatPoly([1, 0, 1]) ** 4
    return ReferenceCurve(
        name="counterexample",
        description="degree-7 curve with polynomial norms that is not a helix",
        spec=spec,
        expected={
            "sigma": ScaledSqrt(Fraction(1, 9), RatPoly([9, 0, 9, 0, 3, 0, 1])),
            "rho": ScaledSqrt(4, RatPoly([1, 0, 1]) * RatPoly([9, 0, 9, 0, 3, 0, 1])),
            "lancret_ratio_squared": RationalFunction(ratio_num, ratio_den),
            "two_ph": True,
            "lancret_kind": HelixKind.NOT_HELIX,
            "point_at_1": (Fraction(-184, 105), Fraction(5, 2), Fraction(-2)),
        },
    )


REFERENCE_BUILDERS: Dict[str, Callable[[], ReferenceCurve]] = {
    "example1": build_example1,
    "example2": build_example2,
    "counterexample": build_counterexample,
}

REFERENCE_NAMES = tuple(REFERENCE_BUILDERS)


def reference_curve(name: str) -> ReferenceCurve:
    try:
        return REFERENCE_BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown reference curve {name!r}; have {REFERENCE_NAMES}")


class _Pipeline:
    """Lazily computed pipeline outputs for one reference curve."""

    def __init__(self, spec: CurveSpec):
        self.spec = spec

    @cached_property
    def _results(self) -> Tuple[CurveAnalysis, Optional[ClassificationReport]]:
        return analyze_spec(self.spec)

    @property
    def analysis(self) -> CurveAnalysis:
        return self._results[0]

    @property
    def report(self) -> Optional[ClassificationReport]:
        return self._results[1]

    @cached_property
    def z_params(self) -> ConstantZParameters:
        return constant_z_parameters(self.spec.quaternion_form())


_EXTRACTORS: Dict[str, Callable[[_Pipeline], object]] = {
    "wronskian": lambda p: p.report.wronskian,
    "decomposition_case": lambda p: p.report.decomposition.case,
    "omega": lambda p: p.report.decomposition.omega,
    "z_squared": lambda p: p.report.decomposition.z_squared,
    "shared_factor": lambda p: p.report.quintic_class.shared_factor,
    "quintic_kind": lambda p: p.report.quintic_class.kind,
    "dependence": lambda p: (
        None
        if p.report.quintic_class.dependence is None
        else (
            p.report.quintic_class.dependence.c0,
            p.report.quintic_class.dependence.c2,
        )
    ),
    "tan_two_theta": lambda p: p.z_params.tan_two_theta,
    "m1_squared": lambda p: p.z_params.m1_squared,
    "m0_over_m1": lambda p: p.z_params.m0_over_m1,
    "m2_over_m1": lambda p: p.z_params.m2_over_m1,
    "lancret_kind": lambda p: p.analysis.verdict.kind,
    "two_ph": lambda p: p.analysis.is_2ph,
    "lancret_constant": lambda p: (
        p.analysis.lancret_ratio_squared is not None
        and p.analysis.lancret_ratio_squared.is_constant
    ),
    "lancret_ratio_squared": lambda p: p.analysis.lancret_ratio_squared,
    "slope_squared": lambda p: p.analysis.verdict.slope_squared,
    "axis": lambda p: p.analysis.verdict.axis,
    "sigma": lambda p: p.analysis.sigma,
    "rho": lambda p: p.analysis.rho,
    "sigma_value_at_0": lambda p: (
        None
        if p.analysis.sigma is None or p.analysis.sigma.as_rat_poly() is None
        else p.analysis.sigma.as_rat_poly().evaluate(0)
    ),
    "point_at_1": lambda p: p.spec.curve().evaluate(1),
}


def run_checks(ref: ReferenceCurve) -> List[CheckResult]:
    """Compare every stored expected value against the recomputed pipeline."""
    pipeline = _Pipeline(ref.spec)
    results: List[CheckResult] = []
    for key, expected in ref.expected.items():
        extractor = _EXTRACTORS[key]
        try:
            actual = extractor(pipeline)
            passed = actual == expected
            actual_text = str(actual)
        except Exception as exc:  # an unexpected pipeline failure is a FAIL, not a crash
            passed = False
            actual_text = f"error: {exc}"
        results.append(
            CheckResult(
                name=f"{ref.name}.{key}",
                passed=passed,
                expected=str(expected),
                actual=actual_text,
            )
        )
    return results
