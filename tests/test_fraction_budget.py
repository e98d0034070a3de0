"""How many Fractions a helix classify builds.

A polynomial stores only its integer form (den, ints), and the helix path
reads it: the products behind the invariants and the axis identities,
the perfect squares, the Wronskian casework on Gaussian integers and the
report's encoders and renderer.  ``coeffs`` builds a fresh tuple of
Fractions on each read, and nothing on this path reads it.  A Fraction is
built where a scalar is handed out (the slope, the axis, lambda, a single
coefficient, the dependence coefficients, the shared root) or where a spec
is parsed.  This test counts calls to ``Fraction.__new__`` over ``phelix
classify <spec> --format json`` on a fixed corpus of 16 helix quintics,
monotone and general alternating, drawn at height 12 from seed 1.  It is a
count, not a timing, so it does not depend on the host.  Reading the
coefficient tuples anywhere on this path (about 476 Fractions per curve
when the casework, the identity and the report still read them) fails it.
"""

import contextlib
import io
import random
import sys
from fractions import Fraction

from phelix import quintic
from phelix.cli import main
from phelix.curves import quaternion_from_hopf
from phelix.curvespec import CurveSpec, dump_spec

CURVES = 16
BUDGET_PER_CURVE = 96


def helix_specs(dest, seed: int = 1, count: int = CURVES, height: int = 12):
    rng = random.Random(seed)
    paths = []
    for i in range(count):
        if i % 2 == 0:
            quat = quaternion_from_hopf(quintic.generate_monotone_quintic(rng, height=height))
        else:
            quat = quintic.generate_general_quintic(rng, height=height)
        path = dest / f"{i:02d}.json"
        path.write_text(dump_spec(CurveSpec("quaternion", quat)))
        paths.append(str(path))
    return paths


def count_fractions(run) -> int:
    """Calls of Fraction.__new__ while run() runs."""
    code = Fraction.__new__.__code__
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return count


def test_helix_classify_fraction_budget(tmp_path):
    paths = helix_specs(tmp_path)

    def classify_all():
        with contextlib.redirect_stdout(io.StringIO()):
            for path in paths:
                assert main(["classify", path, "--format", "json"]) == 0

    classify_all()  # the first call may import lazily; count a warm run
    assert count_fractions(classify_all) <= BUDGET_PER_CURVE * CURVES
