"""Built-in reference curves: stored values reproduce, corruption is caught."""

from fractions import Fraction

import pytest

from phelix import GaussPoly, RatPoly, RationalFunction, ScaledSqrt, cli
from phelix.references import (
    REFERENCE_NAMES,
    reference_curve,
    run_checks,
)


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_all_checks_pass(name):
    results = run_checks(reference_curve(name))
    assert results, "reference curve has no checks"
    failing = [r for r in results if not r.passed]
    assert not failing, failing


def _bump(value):
    """Corrupt one stored coefficient of an expected value by one."""
    if isinstance(value, GaussPoly):
        coeffs = list(value.coeffs)
        coeffs[0] = coeffs[0] + 1
        return GaussPoly(coeffs)
    if isinstance(value, RatPoly):
        coeffs = list(value.coeffs) or [Fraction(0)]
        coeffs[0] = coeffs[0] + 1
        return RatPoly(coeffs)
    if isinstance(value, ScaledSqrt):
        return ScaledSqrt(value.scale + 1, value.body)
    if isinstance(value, RationalFunction):
        return RationalFunction(value.num + RatPoly([1]), value.den)
    if isinstance(value, Fraction):
        return value + 1
    if isinstance(value, tuple):
        return (value[0] + 1,) + value[1:]
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "-corrupted"
    raise AssertionError(f"no corruption rule for {type(value)}")


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_corrupting_any_stored_value_fails(name):
    keys = list(reference_curve(name).expected)
    for key in keys:
        ref = reference_curve(name)
        ref.expected[key] = _bump(ref.expected[key])
        results = run_checks(ref)
        failing = [r.name for r in results if not r.passed]
        assert failing == [f"{name}.{key}"], (key, failing)


def test_reference_names():
    assert set(REFERENCE_NAMES) == {"example1", "example2", "counterexample"}
    # the CLI spells the names out so that it imports this module only for verify
    assert cli.REFERENCE_NAMES == REFERENCE_NAMES
    with pytest.raises(KeyError):
        reference_curve("example3")
