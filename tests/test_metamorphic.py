"""Two changes of a quaternion curve that the classification cannot see.

No oracle is needed: each relation compares the classifier with itself.

* Left-multiplying A(t) by a nonzero quaternion m maps the hodograph
  A i conj(A) to m A i conj(A) conj(m), a rotation scaled by |m|^2.  On the
  Hopf pair it is the complex-linear map [[g, i d], [i conj(d), conj(g)]]
  with m = g + d j, whose determinant |m|^2 scales the Wronskian, so the
  Wronskian case and any shared Hopf factor stay as they are.
* Reparametrizing t -> a t + b (a != 0) maps W(t) to a W(a t + b).

Neither changes the family, the slope verdict, the Wronskian case or the
slope^2 of the helix axis.  The samples are random quaternion quadratics and
monotone and general helix quintics at height 12.
"""

import random

from hypothesis import given
import hypothesis.strategies as st

from conftest import compose_affine, quaternions, rationals
from phelix import (
    QuaternionPolynomial,
    classify_quintic,
    generate_general_quintic,
    generate_monotone_quintic,
    quaternion_from_hopf,
)
from phelix.quintic import random_quaternion

HEIGHT = 12


def sample(family: str, seed: int) -> QuaternionPolynomial:
    rng = random.Random(seed)
    if family == "monotone":
        return quaternion_from_hopf(generate_monotone_quintic(rng, HEIGHT))
    if family == "general":
        return generate_general_quintic(rng, HEIGHT)
    while True:
        quat = QuaternionPolynomial([random_quaternion(rng, HEIGHT) for _ in range(3)])
        if not quat.is_zero:
            return quat


def signature(quat: QuaternionPolynomial) -> tuple:
    report = classify_quintic(quat)
    verdict = report.analysis.verdict
    case = None if report.decomposition is None else report.decomposition.case
    return report.quintic_class.kind, verdict.kind, case, verdict.slope_squared


def left_multiplied(m, quat: QuaternionPolynomial) -> QuaternionPolynomial:
    return QuaternionPolynomial([m * c for c in quat.coeffs])


def reparametrized(quat: QuaternionPolynomial, a, b) -> QuaternionPolynomial:
    return QuaternionPolynomial.from_component_polys(
        *(compose_affine(p, a, b) for p in quat.component_polys())
    )


families = st.sampled_from(("random", "monotone", "general"))
seeds = st.integers(0, 2**32 - 1)


@given(families, seeds, quaternions.filter(bool))
def test_left_multiplication_keeps_the_classification(family, seed, m):
    quat = sample(family, seed)
    assert signature(left_multiplied(m, quat)) == signature(quat)


@given(families, seeds, rationals.filter(bool), rationals)
def test_affine_reparametrization_keeps_the_classification(family, seed, a, b):
    quat = sample(family, seed)
    assert signature(reparametrized(quat, a, b)) == signature(quat)
