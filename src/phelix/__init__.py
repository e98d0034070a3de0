"""Exact classification of Pythagorean-hodograph curves and quintic helices.

The library decides, in exact rational arithmetic, whether a polynomial
space curve has polynomial speed, whether its cross-product norm is also
polynomial, and whether it is a constant-slope (generalized helix) curve;
for quintics it additionally identifies the monotone and general helix
families through the Wronskian of the Hopf polynomials.
"""

__version__ = "1.0.0"

from .analysis import (
    CrossNorm,
    CurveAnalysis,
    FrenetFrame,
    HelixKind,
    HelixVerdict,
    Invariants,
    analyze,
    cross_norm,
    frenet_frame,
    helix_verdict,
    invariants,
    is_2ph,
    is_helix,
    is_ph,
    lancret_ratio_squared,
    norms,
)
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
    quaternion_from_hopf,
)
from .curvespec import CurveSpec, dump_spec, load_spec, parse_spec, spec_to_doc
from .errors import (
    DegenerateInputError,
    InternalInconsistencyError,
    LineDegeneracyError,
    NotRationalFrameError,
    PhelixError,
    SpecParseError,
    UnsupportedDegreeError,
)
from .polynomials import (
    GaussPoly,
    GaussianRational,
    RatPoly,
    RationalFunction,
    ScaledSqrt,
    perfect_square_root,
    poly_gcd,
    squarefree_decompose,
    wronskian,
)
from .quintic import (
    ClassificationReport,
    DecompositionCase,
    DependenceSolution,
    ConstantZParameters,
    QuinticClass,
    QuinticKind,
    WronskianDecomposition,
    classify_quintic,
    decompose_wronskian_quintic,
    generate_general_quintic,
    generate_monotone_quintic,
    constant_z_parameters,
    monotone_test,
    quaternion_dependence,
)

# The public API: what a caller may import from phelix, listed by module.
__all__ = [
    # analysis
    "CrossNorm", "CurveAnalysis", "FrenetFrame", "HelixKind", "HelixVerdict",
    "Invariants", "analyze", "cross_norm", "frenet_frame", "helix_verdict",
    "invariants", "is_2ph", "is_helix", "is_ph", "lancret_ratio_squared", "norms",
    # curves
    "Hodograph", "HopfPair", "PolynomialCurve", "Quaternion", "QuaternionPolynomial",
    "bezier_to_power", "hodograph_from_hopf", "hodograph_from_quaternion",
    "hopf_from_quaternion", "integrate", "quaternion_from_hopf",
    # curvespec
    "CurveSpec", "dump_spec", "load_spec", "parse_spec", "spec_to_doc",
    # errors
    "DegenerateInputError", "InternalInconsistencyError", "LineDegeneracyError",
    "NotRationalFrameError", "PhelixError", "SpecParseError", "UnsupportedDegreeError",
    # polynomials
    "GaussPoly", "GaussianRational", "RatPoly", "RationalFunction", "ScaledSqrt",
    "perfect_square_root", "poly_gcd", "squarefree_decompose", "wronskian",
    # quintic
    "ClassificationReport", "ConstantZParameters", "DecompositionCase",
    "DependenceSolution", "QuinticClass", "QuinticKind", "WronskianDecomposition",
    "classify_quintic", "constant_z_parameters", "decompose_wronskian_quintic",
    "generate_general_quintic", "generate_monotone_quintic", "monotone_test",
    "quaternion_dependence",
]
