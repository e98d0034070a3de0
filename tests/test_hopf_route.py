"""Differential test of the helix verdict against the bare degree-36 identity.

helix_verdict decides a curve that is neither a line nor planar by the axis
identities alone and reads no ratio.  The reference below decides constancy
of (tau/kappa)^2 = det^2 sigma^6 / rho^6 directly: a degree check, lambda
from the leading coefficients, then the degree-36 identity
det^2 sigma^6 = lambda rho^6.  The verdict's kind must be the one the
reference implies on every input: Hopf pairs of degree 1-4 (random, planar,
proportional and helical), arbitrary hodographs of degree 1-4, which are
almost never PH, and the 2-PH non-helix counterexample under t -> a t + b,
as given and reversed.  On a helix the slope^2 s must also give the
reference's lambda = s / (1 - s).  Across the families both helices and
non-helices are decided.
The second run multiplies each hodograph by t.  That keeps (tau/kappa)^2
and the axis, and zeroes every constant term, so the verdict's axis scan
passes over t = 0 and the reference reaches its full identity on every
input that survives the degree check.
"""

from collections import Counter

import pytest

from conftest import (
    compose_affine,
    rand_fraction,
    rand_gaussian,
    rand_rat_poly,
    seeded,
    times_t,
)
from oracles import abs_squared
from phelix import (
    GaussianRational,
    GaussPoly,
    HelixKind,
    Hodograph,
    HopfPair,
    RatPoly,
    generate_general_quintic,
    generate_monotone_quintic,
    helix_verdict,
    hodograph_from_hopf,
    hopf_from_quaternion,
    invariants,
    wronskian,
)
from phelix.references import reference_curve


def reference_ratio_value(inv):
    """lambda with det^2 sigma^6 = lambda rho^6, or None: the same degree
    check and leading-coefficient lambda, then the degree-36 identity."""
    det, s2, rho = inv.det, inv.sigma_squared, inv.rho_squared
    if 2 * det.degree + 3 * s2.degree != 3 * rho.degree:
        return None
    lam = (
        det.leading_coefficient**2
        * s2.leading_coefficient**3
        / rho.leading_coefficient**3
    )
    return lam if det * det * s2**3 == lam * rho**3 else None


def rand_gauss_poly(rng, degree: int) -> GaussPoly:
    while True:
        p = GaussPoly([rand_gaussian(rng) for _ in range(degree + 1)])
        if p.degree == degree:
            return p


def random_pair(rng) -> HopfPair:
    degree = rng.randint(1, 4)
    return HopfPair(rand_gauss_poly(rng, degree), rand_gauss_poly(rng, rng.randint(0, degree)))


def real_pair(rng) -> HopfPair:
    # real z1 and z2 keep the hodograph in the plane z = 0
    degree = rng.randint(1, 4)
    z1 = GaussPoly([rand_fraction(rng) for _ in range(degree + 1)])
    z2 = GaussPoly([rand_fraction(rng) for _ in range(degree)])
    return HopfPair(z1, z2)


def proportional_pair(rng) -> HopfPair:
    z1 = rand_gauss_poly(rng, rng.randint(1, 4))
    return HopfPair(z1, GaussPoly([rand_gaussian(rng)]) * z1)


def monotone_pair(rng) -> HopfPair:
    return generate_monotone_quintic(rng, height=9)


def general_pair(rng) -> HopfPair:
    return hopf_from_quaternion(generate_general_quintic(rng, height=9))


def times_real_linear(make):
    """A quintic helix pair times a common real linear factor: degree 3, and
    still a helix with the same slope and axis."""

    def scaled(rng):
        pair = make(rng)
        f = GaussPoly([GaussianRational(rand_fraction(rng)), GaussianRational(1)])
        return HopfPair(f * pair.z1, f * pair.z2)

    return scaled


def random_hodograph(rng) -> Hodograph:
    degree = rng.randint(1, 4)
    parts = [rand_rat_poly(rng, rng.randint(0, degree)) for _ in range(2)]
    return Hodograph(*parts, rand_rat_poly(rng, degree))


def affine_counterexample(reverse: bool):
    """The 2-PH non-helix counterexample as the curve alpha(a t + b), a != 0,
    which stays 2-PH and no helix.  Its degrees fail the degree check.
    Reversed, as t^6 h(1/t), the hodograph of alpha(1/t) times a scalar,
    it keeps the direction field, and with it (tau/kappa)^2 at 1/t, and its
    degrees pass the check, so the identity itself rejects it."""

    def make(rng) -> Hodograph:
        h = reference_curve("counterexample").spec.hodograph()
        if reverse:
            t = RatPoly([0, 1])
            h = Hodograph(*(RatPoly(p.coeffs[::-1]) * t ** (6 - p.degree) for p in h.vector()))
        a = 0
        while not a:
            a = rand_fraction(rng)
        b = rand_fraction(rng)
        return Hodograph(*(a * compose_affine(p, a, b) for p in h.vector()))

    return make


# family: (generator, number of draws, the kinds its draws must cover)
FAMILIES = {
    "random": (random_pair, 60, {HelixKind.HELIX, HelixKind.NOT_HELIX}),
    "real": (real_pair, 12, {HelixKind.PLANAR}),
    "proportional": (proportional_pair, 12, {HelixKind.LINE}),
    "monotone": (monotone_pair, 12, {HelixKind.HELIX}),
    "general": (general_pair, 12, {HelixKind.HELIX}),
    "monotone-times-linear": (times_real_linear(monotone_pair), 12, {HelixKind.HELIX}),
    "general-times-linear": (times_real_linear(general_pair), 12, {HelixKind.HELIX}),
    "hodograph": (random_hodograph, 60, {HelixKind.PLANAR, HelixKind.NOT_HELIX}),
    "counterexample": (affine_counterexample(False), 6, {HelixKind.NOT_HELIX}),
    "counterexample-reversed": (affine_counterexample(True), 6, {HelixKind.NOT_HELIX}),
}


def draws(family):
    """One family's inputs, seeded by the family's name."""
    make, count, _ = FAMILIES[family]
    rng = seeded(sum(map(ord, family)))
    return [make(rng) for _ in range(count)]


def check_family(family, items):
    """Compare the verdict, and a helix's slope, with the reference on one
    family's inputs; the kinds they decide must be the family's.  Returns a
    Counter of the kinds decided."""
    kinds = Counter()
    for item in items:
        if isinstance(item, HopfPair):
            inv = invariants(hodograph_from_hopf(item))
            w_norm = abs_squared(wronskian(item.z1, item.z2))
            assert inv.rho_squared == 4 * inv.sigma_squared * w_norm
        else:
            inv = invariants(item)
        if inv.rho_squared.is_zero:
            expected = HelixKind.LINE
        elif inv.det.is_zero:
            expected = HelixKind.PLANAR
        else:
            lam = reference_ratio_value(inv)
            expected = HelixKind.NOT_HELIX if lam is None else HelixKind.HELIX
        verdict = helix_verdict(inv)
        assert verdict.kind == expected
        if expected == HelixKind.HELIX:
            s = verdict.slope_squared
            assert s / (1 - s) == lam
        kinds[expected] += 1
    assert set(kinds) == FAMILIES[family][2]
    return kinds


def scaled_by_t(family):
    """The family's draws as hodographs times t."""
    return [
        times_t(hodograph_from_hopf(item) if isinstance(item, HopfPair) else item)
        for item in draws(family)
    ]


@pytest.mark.parametrize("family", FAMILIES)
def test_routes_agree(family):
    check_family(family, draws(family))


@pytest.mark.parametrize("family", FAMILIES)
def test_routes_agree_without_scan(family):
    # on t * h every invariant's constant term is zero, so the axis scan
    # passes over t = 0 and the reference settles its full identity
    items = scaled_by_t(family)
    for inv in map(invariants, items):
        assert not any(p.coefficient(0) for p in (inv.det, inv.sigma_squared, inv.rho_squared))
    check_family(family, items)


@pytest.mark.parametrize("scaled", [False, True], ids=["scan", "without-scan"])
def test_both_identities_decide_inputs(scaled):
    # the axis identities decide both ways: some helices, some non-helices
    kinds = Counter()
    for family in FAMILIES:
        kinds += check_family(family, scaled_by_t(family) if scaled else draws(family))
    assert kinds[HelixKind.HELIX] > 0 and kinds[HelixKind.NOT_HELIX] > 0
