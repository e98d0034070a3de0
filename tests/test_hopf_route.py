"""The constancy test on the Hopf pair's Wronskian against the hodograph's.

Given |W|^2 of the Hopf pair, helix_verdict checks rho^2 = 4 sigma^2 |W|^2
and decides constancy on det^2 = 64 lambda |W|^6; without it, on
det^2 sigma^6 = lambda rho^6.  The two routes must give the same verdict,
slope and axis on every pair, whatever its degree.
"""

import pytest

from conftest import rand_fraction, rand_gaussian, seeded
from phelix import (
    GaussianRational,
    GaussPoly,
    HelixKind,
    HopfPair,
    generate_general_quintic,
    generate_monotone_quintic,
    helix_verdict,
    hodograph_from_hopf,
    hopf_from_quaternion,
    invariants,
    wronskian,
)


def both_routes(pair: HopfPair):
    """(verdict with |W|^2, verdict without), after checking the Hopf identity."""
    h = hodograph_from_hopf(pair)
    w_norm = wronskian(pair.z1, pair.z2).norm_squared()
    inv = invariants(h, w_norm)
    assert inv.rho_squared == 4 * inv.sigma_squared * w_norm
    return helix_verdict(inv), helix_verdict(invariants(h))


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


FAMILIES = {
    "random": (random_pair, None),
    "real": (real_pair, HelixKind.PLANAR),
    "proportional": (proportional_pair, HelixKind.LINE),
    "monotone": (monotone_pair, HelixKind.HELIX),
    "general": (general_pair, HelixKind.HELIX),
    "monotone-times-linear": (times_real_linear(monotone_pair), HelixKind.HELIX),
    "general-times-linear": (times_real_linear(general_pair), HelixKind.HELIX),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_routes_agree(family):
    make, kind = FAMILIES[family]
    rng = seeded(sum(map(ord, family)))
    kinds = set()
    for _ in range(60 if family == "random" else 12):
        with_w, without_w = both_routes(make(rng))
        assert with_w == without_w
        kinds.add(with_w.kind)
    assert kinds == ({HelixKind.HELIX, HelixKind.NOT_HELIX} if kind is None else {kind})
