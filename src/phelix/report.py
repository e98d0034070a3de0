"""Report documents: the values a command computed, with provenance.

Reports serialize to JSON with every exact value encoded losslessly
(rationals as strings, polynomials as ascending coefficient arrays) plus a
human-readable rendering for convenience.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .analysis import CurveAnalysis, HelixKind, HelixVerdict, analyze
from .curvespec import CurveSpec, encode_gauss_poly, encode_rationals
from .polynomials import GaussPoly, RatPoly, RationalFunction, ScaledSqrt, coefficient_strings
from .quintic import (
    QUINTIC_MAX_DEGREE,
    ClassificationReport,
    QuinticKind,
    classify_quintic,
)

TOOL_NAME = "phelix"


def _rat_poly_doc(p: RatPoly) -> dict:
    return {"coefficients": coefficient_strings(p), "rendered": str(p)}


def _gauss_poly_doc(p: GaussPoly) -> dict:
    return {"coefficients": encode_gauss_poly(p), "rendered": str(p)}


def _scaled_sqrt_doc(s: Optional[ScaledSqrt]) -> Optional[dict]:
    if s is None:
        return None
    return {"scale": str(s.scale), "body": coefficient_strings(s.body), "rendered": str(s)}


def _rational_function_doc(r: Optional[RationalFunction]) -> Optional[dict]:
    if r is None:
        return None
    return {
        "num": coefficient_strings(r.num),
        "den": coefficient_strings(r.den),
        "rendered": str(r),
    }


def _verdict_doc(v: HelixVerdict) -> dict:
    return {
        "kind": v.kind,
        "slope_squared": None if v.slope_squared is None else str(v.slope_squared),
        "axis": None if v.axis is None else encode_rationals(v.axis),
    }


def analyze_spec(spec: CurveSpec) -> Tuple[CurveAnalysis, Optional[ClassificationReport]]:
    """The analysis of a spec's curve and, when the spec has a Hopf pair of
    degree <= 2 (every quaternion and Bezier spec, and quintic Hopf specs),
    the classification of that pair, which carries that analysis."""
    pair = spec.hopf_form()
    if pair is None or pair.degree > QUINTIC_MAX_DEGREE:
        return analyze(spec.hodograph()), None
    classification = classify_quintic(pair)
    return classification.analysis, classification


class ReportDocument(NamedTuple):
    version: str
    input_doc: dict
    analysis: CurveAnalysis
    classification: Optional[ClassificationReport] = None

    @property
    def degenerate(self) -> bool:
        if self.analysis.verdict.kind == HelixKind.LINE:
            return True
        return (
            self.classification is not None
            and self.classification.quintic_class.kind == QuinticKind.DEGENERATE
        )

    def to_dict(self) -> dict:
        a = self.analysis
        doc = {
            "tool": TOOL_NAME,
            "version": self.version,
            "input": self.input_doc,
            "analysis": {
                "sigma_squared": _rat_poly_doc(a.invariants.sigma_squared),
                "is_ph": a.is_ph,
                "sigma": _scaled_sqrt_doc(a.sigma),
                "rho_squared": _rat_poly_doc(a.invariants.rho_squared),
                "is_2ph": a.is_2ph,
                "rho": _scaled_sqrt_doc(a.rho),
                "torsion_numerator": _rat_poly_doc(a.invariants.det),
                "lancret_ratio_squared": _rational_function_doc(
                    a.lancret_ratio_squared
                ),
                "verdict": _verdict_doc(a.verdict),
            },
        }
        if self.classification is not None:
            c = self.classification
            doc["classification"] = {
                "wronskian": _gauss_poly_doc(c.wronskian),
                "decomposition": None
                if c.decomposition is None
                else {
                    "case": c.decomposition.case,
                    "omega": None
                    if c.decomposition.omega is None
                    else _rat_poly_doc(c.decomposition.omega),
                    "z_squared": None
                    if c.decomposition.z_squared is None
                    else _gauss_poly_doc(c.decomposition.z_squared),
                },
                "kind": c.quintic_class.kind,
                "shared_factor": None
                if c.quintic_class.shared_factor is None
                else _gauss_poly_doc(c.quintic_class.shared_factor),
                "dependence": None
                if c.quintic_class.dependence is None
                else {
                    "c0": str(c.quintic_class.dependence.c0),
                    "c2": str(c.quintic_class.dependence.c2),
                    "degenerate": c.quintic_class.dependence.degenerate,
                },
                "reason": c.quintic_class.reason,
            }
        return doc

    def to_text(self) -> str:
        a = self.analysis
        lines: List[str] = []
        form = self.input_doc.get("form", "?")
        lines.append(f"input form: {form}")
        lines.append(f"sigma^2 = {a.invariants.sigma_squared}")
        lines.append(f"PH: {'yes' if a.is_ph else 'no'}")
        if a.sigma is not None:
            lines.append(f"  sigma = {a.sigma}")
        lines.append(f"rho^2 = {a.invariants.rho_squared}")
        lines.append(f"2-PH: {'yes' if a.is_2ph else 'no'}")
        if a.rho is not None and not a.rho.is_zero:
            lines.append(f"  rho = {a.rho}")
        if a.verdict.kind == HelixKind.LINE:
            lines.append("curvature vanishes identically: the curve is a straight line")
        else:
            lines.append(f"torsion numerator det(a',a'',a''') = {a.invariants.det}")
            ratio = a.lancret_ratio_squared
            constant = " (constant)" if ratio is not None and ratio.is_constant else ""
            lines.append(f"(tau/kappa)^2 = {ratio}{constant}")
        v = a.verdict
        lines.append(f"slope verdict: {v.kind}")
        if v.axis is not None:
            axis = ", ".join(str(c) for c in v.axis)
            lines.append(f"  axis direction: ({axis})")
            lines.append(f"  slope^2 = {v.slope_squared}")
        if self.classification is not None:
            c = self.classification
            lines.append(f"wronskian W = {c.wronskian}")
            if c.decomposition is not None:
                lines.append(f"decomposition: {c.decomposition.case}")
                if c.decomposition.omega is not None:
                    lines.append(f"  omega = {c.decomposition.omega}")
                    lines.append(f"  z^2 = {c.decomposition.z_squared}")
            lines.append(f"classification: {c.quintic_class.kind}")
            if c.quintic_class.shared_factor is not None:
                lines.append(f"  shared factor gcd(z1, z2) = {c.quintic_class.shared_factor}")
            if c.quintic_class.dependence is not None:
                dep = c.quintic_class.dependence
                lines.append(f"  dependence A1 = c0*A0 + c2*A2 with (c0, c2) = ({dep.c0}, {dep.c2})")
            if c.quintic_class.reason:
                lines.append(f"  reason: {c.quintic_class.reason}")
        return "\n".join(lines)
