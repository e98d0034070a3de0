"""Workload corpora and the correctness gate.

Each workload turns a seed into a list of curve-spec files.  The program
only ever sees those files, through ``phelix classify <spec> --format json``.
The gate decides, per call, whether a report is right; a wrong report, a
non-zero exit or JSON that does not parse counts as a failed call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

from phelix import quintic
from phelix.curves import QuaternionPolynomial, hopf_from_quaternion, quaternion_from_hopf
from phelix.curvespec import CurveSpec, dump_spec
from phelix.polynomials import wronskian
from phelix.references import REFERENCE_NAMES, reference_curve

# name -> (corpus size, coefficient height).  The in-process sizes give at
# least one full pass per 30 s run and many distinct curves per run, so a
# run's mean is not set by a handful of curves; cli-cold cycles the three
# frozen reference curves.
WORKLOADS = {
    "helix": (128, 12),
    "nonhelix": (192, 12),
    "wide": (96, 100),
    "cli-cold": (len(REFERENCE_NAMES), None),
}


@dataclass
class Item:
    name: str
    path: Path
    expected: dict = field(default_factory=dict)


def _write(dest: Path, name: str, spec: CurveSpec, expected: dict) -> Item:
    path = dest / f"{name}.json"
    path.write_text(dump_spec(spec))
    return Item(name, path, expected)


def _helix(rng: random.Random, size: int, height: int, dest: Path) -> List[Item]:
    """Monotone and general helix quintics, alternating, as quaternion specs.

    The generators are looked up on the module at each call, so that a traced
    set-up sees the tracer's wrappers.
    """
    items = []
    for i in range(size):
        if i % 2 == 0:
            family = "monotone"
            quat = quaternion_from_hopf(quintic.generate_monotone_quintic(rng, height=height))
        else:
            family = "general"
            quat = quintic.generate_general_quintic(rng, height=height)
        spec = CurveSpec("quaternion", quat)
        items.append(_write(dest, f"{i:04d}-{family}", spec, {"family": family}))
    return items


def _random_quadratics(rng: random.Random, size: int, height: int, dest: Path) -> List[Item]:
    """Random quaternion quadratics; zero and vanishing-Wronskian draws are skipped."""
    items = []
    while len(items) < size:
        quat = QuaternionPolynomial([quintic.random_quaternion(rng, height) for _ in range(3)])
        if quat.is_zero:
            continue
        pair = hopf_from_quaternion(quat)
        if wronskian(pair.z1, pair.z2).is_zero:
            continue
        spec = CurveSpec("quaternion", quat)
        items.append(_write(dest, f"{len(items):04d}-random", spec, {}))
    return items


def _references(rng: random.Random, dest: Path) -> List[Item]:
    """The frozen reference curves in a seed-dependent cycle order."""
    names = list(REFERENCE_NAMES)
    rng.shuffle(names)
    items = []
    for name in names:
        ref = reference_curve(name)
        expected = {
            "kind": ref.expected.get("quintic_kind"),
            "verdict": ref.expected["lancret_kind"],
        }
        items.append(_write(dest, name, ref.spec, expected))
    return items


def build_corpus(workload: str, seed: int, dest: Path, size: Optional[int] = None) -> List[Item]:
    """Write the workload's spec files under ``dest`` and return them in order."""
    default_size, height = WORKLOADS[workload]
    rng = random.Random(seed)
    if workload == "cli-cold":
        return _references(rng, dest)
    size = default_size if size is None else size
    if workload == "helix":
        return _helix(rng, size, height, dest)
    return _random_quadratics(rng, size, height, dest)


def _check_helix(expected: dict, doc: dict) -> Optional[str]:
    analysis, classification = doc["analysis"], doc["classification"]
    if analysis["verdict"]["kind"] != "helix":
        return f"verdict {analysis['verdict']['kind']!r}, expected 'helix'"
    if analysis["is_2ph"] is not True:
        return "is_2ph is not true on a helix"
    allowed = {"monotone": ("monotone-helix",),
               # an accidentally shared Hopf factor makes a general draw monotone
               "general": ("general-helix", "monotone-helix")}[expected["family"]]
    if classification["kind"] not in allowed:
        return f"kind {classification['kind']!r} for a {expected['family']} draw"
    return None


def _check_routes_agree(expected: dict, doc: dict) -> Optional[str]:
    analysis = doc["analysis"]
    by_kind = doc["classification"]["kind"] == "not-helix"
    by_norms = analysis["is_2ph"] is False
    by_slope = analysis["verdict"]["kind"] == "not-helix"
    if not by_kind == by_norms == by_slope:
        return (f"routes disagree: kind not-helix={by_kind}, not 2-PH={by_norms}, "
                f"verdict not-helix={by_slope}")
    return None


def _check_reference(expected: dict, doc: dict) -> Optional[str]:
    kind = (doc.get("classification") or {}).get("kind")
    verdict = doc["analysis"]["verdict"]["kind"]
    if (kind, verdict) != (expected["kind"], expected["verdict"]):
        return f"got ({kind}, {verdict}), frozen ({expected['kind']}, {expected['verdict']})"
    return None


CHECKS: dict = {
    "helix": _check_helix,
    "nonhelix": _check_routes_agree,
    "wide": _check_routes_agree,
    "cli-cold": _check_reference,
}


def check_report(check: Callable[[dict, dict], Optional[str]], expected: dict,
                 rc, out: bytes, reference: bytes) -> Optional[str]:
    """Why a call failed, or None when its report passes the gate.

    ``reference`` is the report bytes the same spec must reproduce exactly:
    the in-process report for cli-cold, the first call's bytes otherwise.
    """
    if rc != 0:
        return f"exit code {rc}"
    if out != reference:
        return "report bytes differ from the reference report"
    try:
        doc = json.loads(out)
        return check(expected, doc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"
