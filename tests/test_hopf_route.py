"""Differential test of the constancy test against the bare degree-36 identity.

_constant_ratio_value checks degrees and the identity at t = 0, then
decides the identity itself: det b^3 = mu c^3 on the norms' bodies when
both norms are polynomials, det^2 sigma^6 = lambda rho^6 otherwise.  The
reference below checks the degrees and decides the degree-36 identity
directly, with no check at t = 0.  Both identities must give the
reference's lambda or None on every input that reaches the test, the body
identity wherever both norms exist: Hopf pairs of degree 1-4 (random,
planar, proportional and helical), arbitrary hodographs of degree 1-4,
which are almost never PH, and the 2-PH non-helix counterexample under
t -> a t + b, as given and reversed.  Across the families both identities
decide some inputs, and the body identity rejects some that pass the
degree check.
The second run multiplies each hodograph by t.  That keeps (tau/kappa)^2
and zeroes every constant term, also of the bodies, so the check at t = 0
passes and every input that survives the degree check reaches the full
identity.  The inputs among those where sigma^2 does not divide rho^2 are
counted, by this file's own division, so the run is seen to reach them too.
"""

from collections import Counter

import pytest

import phelix.analysis as analysis
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
    norms,
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
    """Compare both identities with the reference on one family's inputs;
    the kinds they decide must be the family's.  Returns a Counter of the
    inputs decided by each identity ("bodies", "squares"), of those that
    passed the degree check with sigma^2 not dividing rho^2 ("remainders"),
    and of those that passed it and that the body identity rejected
    ("body-rejects")."""
    kinds, counts = set(), Counter()
    for item in items:
        if isinstance(item, HopfPair):
            inv = invariants(hodograph_from_hopf(item))
            w_norm = abs_squared(wronskian(item.z1, item.z2))
            assert inv.rho_squared == 4 * inv.sigma_squared * w_norm
        else:
            inv = invariants(item)
        sigma, rho = norms(inv)
        if inv.rho_squared.is_zero:
            found = HelixKind.LINE
        elif inv.det.is_zero:
            found = HelixKind.PLANAR
        else:
            expected = reference_ratio_value(inv)
            assert analysis._ratio_on_squares(inv) == expected
            on_bodies = sigma is not None and rho is not None
            if on_bodies:
                assert analysis._ratio_on_bodies(inv.det, sigma, rho) == expected
            counts["bodies" if on_bodies else "squares"] += 1
            lam = analysis._constant_ratio_value(inv, sigma, rho)
            assert lam == expected
            found = HelixKind.NOT_HELIX if lam is None else HelixKind.HELIX
            det, s2, rho_squared = inv.det, inv.sigma_squared, inv.rho_squared
            if 2 * det.degree + 3 * s2.degree == 3 * rho_squared.degree:
                counts["remainders"] += not (rho_squared % s2).is_zero
                counts["body-rejects"] += on_bodies and lam is None
        assert helix_verdict(inv, sigma, rho).kind == found
        kinds.add(found)
    assert kinds == FAMILIES[family][2]
    return counts


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
    # on t * h the identity at t = 0 reads 0 = 0, so every survivor of the
    # degree check is settled by the full identity, also where sigma^2 does
    # not divide rho^2 and the ratio cannot be constant
    items = scaled_by_t(family)
    for inv in map(invariants, items):
        assert not any(p.coefficient(0) for p in (inv.det, inv.sigma_squared, inv.rho_squared))
    counts = check_family(family, items)
    # rho^2 = 4 sigma^2 |W|^2 makes the remainder zero on every Hopf pair
    assert (counts["remainders"] > 0) == (family == "hodograph")


@pytest.mark.parametrize("scaled", [False, True], ids=["scan", "without-scan"])
def test_both_identities_decide_inputs(scaled):
    counts = Counter()
    for family in FAMILIES:
        counts += check_family(family, scaled_by_t(family) if scaled else draws(family))
    assert counts["bodies"] > 0 and counts["squares"] > 0
    # without the scan, the full body identity rejects the reversed counterexample
    assert counts["body-rejects"] > 0
