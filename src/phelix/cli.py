"""Command-line interface.

Subcommands:

* ``classify`` — full classification report for a curve spec
* ``analyze``  — exact norms, torsion/curvature data and the Frenet frame
* ``sample``   — integrate the curve and emit a CSV point table
* ``verify``   — run the built-in reference curves against their stored values
* ``generate`` — emit random curves from the two helix families

Exit codes: 0 success, 1 parse/usage error, 2 degenerate-input verdict,
3 internal inconsistency (two computation routes disagreed — a bug, never
an input problem).  A command whose standard output is closed before it has
written everything (``phelix generate ... | head -1``) exits 1 quietly.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .analysis import frenet_frame
from .curves import quaternion_from_hopf
from .curvespec import CurveSpec, dump_spec, load_spec, parse_rational, spec_to_doc
from .errors import (
    DegenerateInputError,
    InternalInconsistencyError,
    LineDegeneracyError,
    NotRationalFrameError,
    SpecParseError,
    UnsupportedDegreeError,
)
from .quintic import (
    classify_quintic,
    generate_general_quintic,
    generate_monotone_quintic,
)
from .report import ReportDocument, analyze_spec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_INCONSISTENT = 3

# The names of phelix.references.REFERENCE_NAMES, spelled out so that only
# ``verify`` pays for importing the reference curves.
REFERENCE_NAMES = ("example1", "example2", "counterexample")

# Upper bounds on ``sample --n`` and ``sample --precision``.  Every row is
# exact arithmetic printed at the requested precision, so the two bounds
# cap the run time and the output (at most ~4 MB of CSV).
MAX_SAMPLES = 10_000
MAX_PRECISION = 100

# Upper bound on ``generate --count``.  Every curve is kept until the output
# is printed.  In 500-curve JSON runs on 2 shared cores of an Intel Xeon
# (Python 3.11.7) a curve took 5.6-8.2 ms at height 8 and 8.1-9.5 ms at
# height 31, so a run of 10,000 curves takes at most about 95 s.
MAX_COUNT = 10_000

# Upper bound on ``generate --height``, so that every spec ``generate``
# writes stays within curvespec.MAX_COEFF_BITS (32) and reloads.  Each
# sampled rational is p/q with |p| <= H and 1 <= q <= H, so a sampled
# Gaussian rational is G/d with d = q_re*q_im <= H^2 and both parts of G at
# most H^2.  A monotone spec's coefficients are a, a*(r + r2) and a*r*r2
# for sampled Gaussian rationals a, r, r2: each part is a numerator of at
# most 4*H^6 over a denominator of at most H^6, since the denominator
# multiplies those of three Gaussian rationals.  A general spec's are the
# sampled components and c0*a + c2*b, at most 2*H^4 over H^4.  So the
# monotone bound 4*H^6 < 2^32 decides it: H <= 31.
MAX_HEIGHT = 31


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2 by default; this tool reserves 2
    for degenerate-input verdicts, so usage errors become exit 1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with "-" as a value only if
        # it is an integer or a plain decimal, so "--from -1/2" or
        # "--from -1e30" lost its value.  Every negative rational that
        # parse_rational accepts is "-" and then a digit or "." and a digit.
        # Subparsers are built by their parent's class, so they get it too.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_spec(path: str) -> CurveSpec:
    """Load a spec from a file or stdin, decoded as UTF-8 (JSON's encoding)."""
    try:
        if path == "-":
            # a stdin replaced by an already decoded text stream has no buffer
            raw = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecParseError(f"spec {path!r} is not UTF-8 text: {exc}") from exc
    return load_spec(text)


def _format_decimal(value: Fraction, digits: int) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _build_report(spec: CurveSpec) -> ReportDocument:
    analysis, classification = analyze_spec(spec)
    return ReportDocument(
        version=__version__,
        input_doc=spec_to_doc(spec),
        analysis=analysis,
        classification=classification,
    )


def _emit_report(report: ReportDocument, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    return EXIT_DEGENERATE if report.degenerate else EXIT_OK


def _cmd_classify(ns) -> int:
    spec = _read_spec(ns.spec)
    return _emit_report(_build_report(spec), ns.format)


def _cmd_analyze(ns) -> int:
    spec = _read_spec(ns.spec)
    report = _build_report(spec)
    code = _emit_report(report, ns.format)
    if ns.format == "text" and report.analysis.is_2ph:
        try:
            frame = frenet_frame(report.analysis)
        except (LineDegeneracyError, NotRationalFrameError) as exc:
            print(f"frenet frame: unavailable ({exc})")
        else:
            print(f"frenet frame (scale {frame.frame_scale}):")
            for label, vec in (
                ("tangent", frame.tangent),
                ("binormal", frame.binormal),
                ("normal", frame.normal),
            ):
                entries = "; ".join(str(e) for e in vec)
                print(f"  {label}: [{entries}]")
            print(
                "  binormal and normal are exact up to a common factor "
                f"1/sqrt({frame.frame_scale})"
            )
    return code


def _cmd_sample(ns) -> int:
    if not 2 <= ns.n <= MAX_SAMPLES:
        print(f"error: --n must be between 2 and {MAX_SAMPLES}", file=sys.stderr)
        return EXIT_USAGE
    if not 1 <= ns.precision <= MAX_PRECISION:
        print(
            f"error: --precision must be between 1 and {MAX_PRECISION}", file=sys.stderr
        )
        return EXIT_USAGE
    spec = _read_spec(ns.spec)
    start = parse_rational(getattr(ns, "from"))
    stop = parse_rational(ns.to)
    if not start < stop:
        print("error: --from must be smaller than --to", file=sys.stderr)
        return EXIT_USAGE
    curve = spec.curve()
    step = (stop - start) / (ns.n - 1)
    print("t,x,y,z")
    for k in range(ns.n):
        t = start + k * step
        x, y, z = curve.evaluate(t)
        row = (t, x, y, z)
        print(",".join(_format_decimal(v, ns.precision) for v in row))
    return EXIT_OK


def _cmd_verify(ns) -> int:
    from .references import reference_curve, run_checks

    names = REFERENCE_NAMES if ns.example == "all" else (ns.example,)
    failures = 0
    for name in names:
        ref = reference_curve(name)
        for result in run_checks(ref):
            if result.passed:
                print(f"PASS {result.name}: {result.actual}")
            else:
                failures += 1
                print(
                    f"FAIL {result.name}: expected {result.expected}, "
                    f"got {result.actual}"
                )
    total = "all checks passed" if not failures else f"{failures} check(s) failed"
    print(total)
    return EXIT_OK if not failures else EXIT_DEGENERATE


def _cmd_generate(ns) -> int:
    if not 1 <= ns.count <= MAX_COUNT:
        print(f"error: --count must be between 1 and {MAX_COUNT}", file=sys.stderr)
        return EXIT_USAGE
    if not 1 <= ns.height <= MAX_HEIGHT:
        print(
            f"error: --height must be at least 1 and at most {MAX_HEIGHT}", file=sys.stderr
        )
        return EXIT_USAGE
    rng = random.Random(ns.seed)
    curves = []
    summary: dict = {}
    for _ in range(ns.count):
        if ns.family == "monotone":
            pair = generate_monotone_quintic(rng, height=ns.height)
            spec = CurveSpec("quaternion", quaternion_from_hopf(pair))
        else:
            quat = generate_general_quintic(rng, height=ns.height)
            spec = CurveSpec("quaternion", quat)
        report = classify_quintic(spec.payload)
        kind = report.quintic_class.kind
        summary[kind] = summary.get(kind, 0) + 1
        curves.append((spec, report))
    if ns.format == "json":
        doc = {
            "tool": "phelix",
            "version": __version__,
            "family": ns.family,
            "seed": ns.seed,
            "curves": [
                {
                    "spec": spec_to_doc(spec),
                    "classification": report.quintic_class.kind,
                    "lancret": report.analysis.verdict.kind,
                }
                for spec, report in curves
            ],
            "summary": summary,
        }
        print(json.dumps(doc, indent=2))
    else:
        for index, (spec, report) in enumerate(curves):
            print(
                f"[{index}] {report.quintic_class.kind} "
                f"(lancret: {report.analysis.verdict.kind}) {dump_spec(spec)}"
            )
        counts = ", ".join(f"{kind}: {n}" for kind, n in sorted(summary.items()))
        print(f"summary: {counts}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phelix",
        description=(
            "Exact classification of Pythagorean-hodograph curves: polynomial "
            "speed and cross-norm tests, Wronskian decomposition and the "
            "quintic helix families."
        ),
    )
    parser.add_argument("--version", action="version", version=f"phelix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_argument(p):
        p.add_argument("spec", help="path to a curve-spec JSON document, or - for stdin")

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

    p_classify = sub.add_parser("classify", help="classify a curve")
    add_spec_argument(p_classify)
    add_format(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_analyze = sub.add_parser("analyze", help="exact norms, ratio and Frenet frame")
    add_spec_argument(p_analyze)
    add_format(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_sample = sub.add_parser("sample", help="integrate and emit a CSV point table")
    add_spec_argument(p_sample)
    p_sample.add_argument("--from", default="0", help="start parameter (rational)")
    p_sample.add_argument("--to", default="1", help="end parameter (rational)")
    p_sample.add_argument(
        "--n", type=int, default=11, help=f"number of samples (2 to {MAX_SAMPLES})"
    )
    p_sample.add_argument(
        "--precision",
        type=int,
        default=12,
        help=f"significant digits in the output (1 to {MAX_PRECISION})",
    )
    p_sample.set_defaults(func=_cmd_sample)

    p_verify = sub.add_parser(
        "verify", help="check the built-in reference curves against stored values"
    )
    p_verify.add_argument(
        "--example",
        choices=REFERENCE_NAMES + ("all",),
        default="all",
        help="which reference curve to run",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_generate = sub.add_parser("generate", help="generate curves from a helix family")
    p_generate.add_argument(
        "--family", choices=("monotone", "general"), required=True
    )
    p_generate.add_argument(
        "--count", type=int, default=10, help=f"number of curves (1 to {MAX_COUNT})"
    )
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.add_argument(
        "--height",
        type=int,
        default=8,
        help=f"bound on sampled numerators/denominators (1 to {MAX_HEIGHT})",
    )
    add_format(p_generate)
    p_generate.set_defaults(func=_cmd_generate)

    return parser


# The parser main() builds on its first call and reuses on every later call
# in the process: setting up the five subcommands costs more than a tenth of
# an in-process ``classify``.  Nothing is built at import.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        ns = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return ns.func(ns)
    except (SpecParseError, UnsupportedDegreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateInputError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


def console_entry() -> None:
    try:
        code = main()
        # flush here, so that a closed pipe raises inside this block
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # the flush does not raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(EXIT_USAGE)
    sys.exit(code)


if __name__ == "__main__":
    console_entry()
