"""Span tracing of phelix from outside the package.

The tracer wraps phelix's public entry points and rebinds each wrapper in
every ``phelix`` module namespace that holds the original, because modules
import names directly (``quintic`` does ``from .analysis import is_helix``).
Class-level entry points get their own wrappers: ``RationalFunction.__init__``,
``ReportDocument.to_dict``, and a counter on polynomial ``divmod``.

Each span records its name, start, end, parent span, curve id and phase.
Spans stay in memory while the benchmark runs; ``records()`` returns them
in plain form for writing out and for ``layer_metrics``.  The set-up phase
(corpus generation) and the timed phase are kept apart, so that the
generators' own ``is_helix`` calls never count as report work.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name).  Both generators share one span name.
FUNCTIONS = (
    ("polynomials", "poly_gcd", "polynomials.poly_gcd"),
    ("polynomials", "perfect_square_root", "polynomials.perfect_square_root"),
    ("polynomials", "squarefree_decompose", "polynomials.squarefree_decompose"),
    ("analysis", "is_ph", "analysis.is_ph"),
    ("analysis", "is_2ph", "analysis.is_2ph"),
    ("analysis", "cross_norm", "analysis.cross_norm"),
    ("analysis", "is_helix", "analysis.is_helix"),
    ("analysis", "lancret_ratio_squared", "analysis.lancret_ratio_squared"),
    ("analysis", "analyze", "analysis.analyze"),
    ("quintic", "classify_quintic", "quintic.classify_quintic"),
    ("quintic", "decompose_wronskian_quintic", "quintic.decompose_wronskian_quintic"),
    ("quintic", "monotone_test", "quintic.monotone_test"),
    ("quintic", "quaternion_dependence", "quintic.quaternion_dependence"),
    ("quintic", "generate_monotone_quintic", "quintic.generate"),
    ("quintic", "generate_general_quintic", "quintic.generate"),
    ("curves", "hopf_from_quaternion", "curves.hopf_from_quaternion"),
    ("curves", "quaternion_from_hopf", "curves.quaternion_from_hopf"),
    ("curves", "hodograph_from_hopf", "curves.hodograph_from_hopf"),
    ("curves", "hodograph_from_quaternion", "curves.hodograph_from_quaternion"),
    ("curvespec", "load_spec", "curvespec.load_spec"),
    ("curvespec", "spec_to_doc", "curvespec.spec_to_doc"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name)
METHODS = (
    ("polynomials", "RationalFunction", "__init__", "polynomials.rational_function"),
    ("report", "ReportDocument", "to_dict", "report.to_dict"),
)

# Spans whose arguments and result are kept until records() derives a note.
_NOTED = ("polynomials.poly_gcd", "polynomials.perfect_square_root")

TIMED = "timed"
SETUP = "setup"


def _coeff_bits(c) -> int:
    parts = (c.re, c.im) if hasattr(c, "re") else (Fraction(c),)
    return max(max(p.numerator.bit_length(), p.denominator.bit_length()) for p in parts)


def _note(name, args, result):
    if name == "polynomials.poly_gcd":
        coeffs = [c for poly in args for c in poly.coeffs]
        bits = max((_coeff_bits(c) for c in coeffs), default=0)
        return {"bits": bits, "degree": result.degree or 0}
    p = args[0]
    return {"key": hash(p.coeffs), "hit": result is not None}


class Tracer:
    """Collects spans while installed; does nothing once uninstalled."""

    def __init__(self):
        self.phase = SETUP
        self.curve = None
        self.divmods = defaultdict(int)
        self._spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self._spans, self._stack
        keep = name in _NOTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.curve, self.phase, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if keep:
                rec[6] = (args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "phelix" or key.startswith("phelix.")
        ]
        for modname, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module("phelix." + modname), attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        for modname, clsname, method, name in METHODS:
            cls = getattr(importlib.import_module("phelix." + modname), clsname)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(name, original))
            self._undo.append((cls, method, original))

        poly = importlib.import_module("phelix.polynomials")._Polynomial
        divmod_original = poly.__dict__["__divmod__"]
        divmods = self.divmods

        @functools.wraps(divmod_original)
        def counted_divmod(a, b):
            divmods[self.phase] += 1
            return divmod_original(a, b)

        poly.__divmod__ = counted_divmod
        self._undo.append((poly, "__divmod__", divmod_original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def records(self) -> list:
        """Spans as lists [name, start, end, parent, curve, phase, note]."""
        out = []
        for name, start, end, parent, curve, phase, kept in self._spans:
            note = None if kept is None else _note(name, *kept)
            out.append([name, start, end, parent, curve, phase, note])
        return out


def _ancestors(records, i):
    parent = records[i][3]
    while parent >= 0:
        yield records[parent]
        parent = records[parent][3]


def layer_metrics(records, divmod_calls: int, calls: int) -> dict:
    """Per-layer metrics of the timed phase, per traced call (one curve each).

    The ``quintic.generate`` metrics come from the set-up phase, per curve
    the generators returned; they are 0 where no generator ran.
    Returns {name: (value, unit, samples)}.
    """
    child_s = defaultdict(float)
    for name, start, end, parent, *_ in records:
        if parent >= 0:
            child_s[parent] += end - start

    busy_s = defaultdict(float)   # outermost spans of a name only
    count = defaultdict(int)
    layer_self_s = defaultdict(float)
    gcd_bits = 0
    gcd_under_helix = 0
    rf_total = rf_reduced = 0
    psr_hits = 0
    psr_keys = defaultdict(set)
    generated = 0
    gen_busy_s = 0.0
    gen_helix_calls = 0
    for i, (name, start, end, parent, curve, phase, note) in enumerate(records):
        ancestors = [a[0] for a in _ancestors(records, i)]
        if phase == SETUP:
            if name == "quintic.generate":
                generated += 1
                gen_busy_s += end - start
            if name == "analysis.is_helix" and "quintic.generate" in ancestors:
                gen_helix_calls += 1
            continue
        count[name] += 1
        if name not in ancestors:
            busy_s[name] += end - start
        layer_self_s[name.split(".")[0]] += end - start - child_s[i]
        if name == "polynomials.poly_gcd":
            gcd_bits = max(gcd_bits, note["bits"])
            if "analysis.is_helix" in ancestors:
                gcd_under_helix += 1
            if parent >= 0 and records[parent][0] == "polynomials.rational_function":
                rf_reduced += note["degree"] > 0
        elif name == "polynomials.rational_function":
            rf_total += 1
        elif name == "polynomials.perfect_square_root":
            psr_hits += note["hit"]
            psr_keys[curve].add(note["key"])

    def per_call(x):
        return x / calls

    def self_ms(layer):
        return (1000 * per_call(layer_self_s[layer]), "ms/curve", calls)

    def ms(name):
        return (1000 * busy_s[name] / calls, "ms/curve", calls)

    def calls_of(name):
        return (per_call(count[name]), "calls/curve", calls)

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio", den)

    psr_calls = count["polynomials.perfect_square_root"]
    psr_distinct = sum(len(keys) for keys in psr_keys.values())
    return {
        "polynomials.poly_gcd.calls": calls_of("polynomials.poly_gcd"),
        "polynomials.poly_gcd.busy_ms": ms("polynomials.poly_gcd"),
        "polynomials.poly_gcd.max_coeff_bits": (
            gcd_bits, "bits", count["polynomials.poly_gcd"]),
        "polynomials.divmod.calls": (per_call(divmod_calls), "calls/curve", calls),
        "polynomials.rational_function.busy_ms": ms("polynomials.rational_function"),
        "polynomials.rational_function.reduced_ratio": ratio(rf_reduced, rf_total),
        "polynomials.perfect_square_root.calls": calls_of("polynomials.perfect_square_root"),
        "polynomials.perfect_square_root.busy_ms": ms("polynomials.perfect_square_root"),
        "polynomials.perfect_square_root.hit_ratio": ratio(psr_hits, psr_calls),
        "polynomials.perfect_square_root.distinct_ratio": ratio(psr_distinct, psr_calls),
        "polynomials.squarefree_decompose.busy_ms": ms("polynomials.squarefree_decompose"),
        "analysis.is_helix.calls": calls_of("analysis.is_helix"),
        "analysis.is_helix.busy_ms": ms("analysis.is_helix"),
        "analysis.is_helix.gcd_calls": (per_call(gcd_under_helix), "calls/curve", calls),
        "analysis.lancret_ratio_squared.busy_ms": ms("analysis.lancret_ratio_squared"),
        "analysis.is_ph.calls": calls_of("analysis.is_ph"),
        "analysis.cross_norm.calls": calls_of("analysis.cross_norm"),
        "analysis.analyze.busy_ms": ms("analysis.analyze"),
        "analysis.self_ms": self_ms("analysis"),
        "quintic.classify_quintic.busy_ms": ms("quintic.classify_quintic"),
        "quintic.decompose_wronskian_quintic.busy_ms": ms("quintic.decompose_wronskian_quintic"),
        "quintic.monotone_test.busy_ms": ms("quintic.monotone_test"),
        "quintic.generate.busy_ms": (
            1000 * gen_busy_s / generated if generated else 0.0, "ms/curve", generated),
        "quintic.generate.accept_ratio": ratio(generated, gen_helix_calls),
        "curves.self_ms": self_ms("curves"),
        "curvespec.load_spec.busy_ms": ms("curvespec.load_spec"),
        "curvespec.spec_to_doc.calls": calls_of("curvespec.spec_to_doc"),
        "report.to_dict.busy_ms": ms("report.to_dict"),
        "cli.main.busy_ms": ms("cli.main"),
        "cli.main.self_ms": self_ms("cli"),
    }
