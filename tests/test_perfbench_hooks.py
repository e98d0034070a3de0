"""Every name the benchmark hooks or imports still resolves in phelix.

``perfbench/tracer.py`` rebinds the entry points it lists in ``FUNCTIONS``
and ``METHODS`` and counts ``_Polynomial.__divmod__``;
``perfbench/workloads.py`` builds its corpora from phelix names.  Both
files are read here as source, not imported, so a deletion in ``src/`` that
would break ``perfbench/run.py --trace`` fails tier-1 as well.  The
tracer's notes also hash polynomial ``coeffs`` tuples and read their
numerators and denominators, so the representation they read is pinned
here too.
"""

import ast
import importlib
import types
from fractions import Fraction
from pathlib import Path

from phelix import GaussPoly, RatPoly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name):
    return ast.parse((PERFBENCH / name).read_text())


def _constant(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found")


def test_traced_functions_resolve():
    functions = _constant(_module("tracer.py"), "FUNCTIONS")
    assert functions
    for modname, attr, _ in functions:
        assert callable(getattr(importlib.import_module("phelix." + modname), attr))


def test_traced_methods_resolve():
    methods = _constant(_module("tracer.py"), "METHODS")
    assert methods
    for modname, clsname, method, _ in methods:
        cls = getattr(importlib.import_module("phelix." + modname), clsname)
        assert callable(cls.__dict__[method])


def test_counted_divmod_resolves():
    poly = importlib.import_module("phelix.polynomials")._Polynomial
    assert callable(poly.__dict__["__divmod__"])


def test_noted_coefficients_are_fraction_tuples():
    # _note takes hash(p.coeffs) and each coefficient's numerator and
    # denominator (through .re and .im on Gaussian ones)
    p = RatPoly([1, Fraction(-2, 3), 5])
    for poly in (p, p * p, p**3, p + p, p.derivative(), divmod(p * p, p)[0]):
        assert type(poly.coeffs) is tuple
        assert all(type(c) is Fraction for c in poly.coeffs)
        hash(poly.coeffs)
    g = GaussPoly.from_parts(p, p.derivative())
    for poly in (g, g * g):
        assert type(poly.coeffs) is tuple
        for c in poly.coeffs:
            assert type(c.re) is Fraction and type(c.im) is Fraction


def test_workload_names_resolve():
    # each name imported from phelix, and each attribute read off an
    # imported phelix module (``quintic.generate_monotone_quintic``)
    tree = _module("workloads.py")
    modules = {}
    imports = [
        node for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "phelix"
    ]
    assert imports
    for node in imports:
        source = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(source, alias.name), (node.module, alias.name)
            value = getattr(source, alias.name)
            if isinstance(value, types.ModuleType):
                modules[alias.asname or alias.name] = value
    reads = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    assert reads
    for node in reads:
        assert hasattr(modules[node.value.id], node.attr), (node.value.id, node.attr)
