"""Every function in phelix is reached by a command, or kept on purpose.

The test runs ``cli.main`` under ``sys.setprofile``: ``classify`` and
``analyze`` (text and JSON) and ``sample`` on one helix and one non-helix
curve in each of the five spec forms and on the three reference curves,
``verify``, ``generate`` for both families, and the error paths to exits 1,
2 and 3 (exit 3 by breaking one classification route).  It then lists the
functions and methods defined in ``src/phelix`` and fails on any that no
call reached and that ``KEEP`` does not name.  ``__eq__``, ``__hash__`` and
``__repr__`` are value protocol and exempt.

The functions are listed by compiling each source file and walking its code
objects, and matched to the profiled calls by file, name and first line.
Both sides come from compiling the same source, so a decorated function
starts at its first decorator on both.  Class bodies are walked through,
not counted; comprehensions and lambdas belong to the function that holds
them.
"""

import contextlib
import inspect
import io
import os
import sys
import types
from fractions import Fraction
from pathlib import Path

import phelix
from phelix import cli, quintic
from phelix.curves import (
    QuaternionPolynomial,
    hodograph_from_hopf,
    hopf_from_quaternion,
    integrate,
)
from phelix.curvespec import CurveSpec, dump_spec
from phelix.references import REFERENCE_NAMES, reference_curve

SRC = Path(phelix.__file__).resolve().parent

PROTOCOL = {"__eq__", "__hash__", "__repr__"}

TRACER_HOOK = "perfbench/tracer.py wraps it by name; no command calls it"
PUBLIC_VALUE = "public value API that tests use as their reference"

KEEP = {
    "analysis.is_ph": TRACER_HOOK,
    "analysis.is_2ph": TRACER_HOOK,
    "analysis.cross_norm": TRACER_HOOK,
    "analysis.lancret_ratio_squared": TRACER_HOOK,
    "polynomials.squarefree_decompose": TRACER_HOOK,
    "curves.hodograph_from_quaternion": TRACER_HOOK,
    "cli.console_entry": "the console script, which only a subprocess runs",
    "polynomials.GaussPoly.monic": "public monotone_test reaches it on a proportional pair",
    "polynomials.RatPoly.__mod__": PUBLIC_VALUE,
    "polynomials.RatPoly.monic": "public; squarefree_decompose, a tracer hook, calls it",
    "polynomials.GaussianRational.__add__": PUBLIC_VALUE,
    "polynomials.GaussianRational.__sub__": PUBLIC_VALUE,
    "polynomials.GaussPoly.__add__": PUBLIC_VALUE,
    # only GaussPoly.__repr__ reads it
    "polynomials.GaussPoly.coeffs": PUBLIC_VALUE,
    # only QuaternionPolynomial.__repr__ and the tests' reference hodograph read it
    "curves.QuaternionPolynomial.coeffs": PUBLIC_VALUE,
    "polynomials.RationalFunction.is_zero": PUBLIC_VALUE,
    "polynomials.RationalFunction.evaluate": PUBLIC_VALUE,
}

# A general helix and a random quaternion quadratic, which is no helix.
HELIX = QuaternionPolynomial(
    [
        (Fraction(-2, 3), 1, Fraction(-1, 3), 0),
        (Fraction(7, 3), -1, Fraction(13, 6), Fraction(-1, 3)),
        (1, 1, Fraction(3, 2), Fraction(-1, 3)),
    ]
)
NOT_HELIX = QuaternionPolynomial([(1, 2, 0, -1), (0, 1, 3, 0), (2, 0, 1, 1)])

LINE = '{"form": "hodograph", "coefficients": {"dx": [1, 2], "dy": [], "dz": []}}'
# a proportional Hopf pair, z2 = i z1: a line through the quintic casework
PROPORTIONAL = (
    '{"form": "hopf", "coefficients": {"z1": [[1, 0], [1, 0]], "z2": [[0, 1], [0, 1]]}}'
)
# planar and 2-PH, with speed sqrt(5) (1 + t^2): no rational Frenet frame
IRRATIONAL_SPEED = (
    '{"form": "hodograph", "coefficients": {"dx": [1, -4, -1], "dy": [2, 2, -2], "dz": []}}'
)

# specs that parse_spec rejects, each through a different check
BAD_SPECS = [
    "{",
    "[" * 100_000,
    '{"form": "curve", "form": "curve"}',
    "[]",
    '{"form": "curve", "coefficients": {}, "extra": 1}',
    '{"form": "line", "coefficients": []}',
    '{"form": "curve"}',
    '{"form": "curve", "coefficients": {"x": [1], "y": [], "z": []}, "origin": [0, 0, 0]}',
    '{"form": "hodograph", "coefficients": {"dx": [1], "dy": [], "dz": []}, "origin": [0]}',
    '{"form": "quaternion", "coefficients": []}',
    '{"form": "quaternion", "coefficients": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}',
    '{"form": "quaternion", "coefficients": [[0, 0, 0, 0]]}',
    '{"form": "quaternion", "coefficients": [[1, 0, 0]]}',
    '{"form": "bezier-quaternion", "coefficients": [[0, 0, 0, 0], [0, 0, 0, 0]]}',
    '{"form": "hopf", "coefficients": {"z1": [], "z2": []}}',
    '{"form": "hopf", "coefficients": {"z1": [[1, 0, 0]], "z2": []}}',
    '{"form": "hopf", "coefficients": {"z1": 1, "z2": []}}',
    '{"form": "hopf", "coefficients": [1]}',
    '{"form": "hopf", "coefficients": {"z1": []}}',
    '{"form": "hodograph", "coefficients": {"dx": [], "dy": [], "dz": []}}',
    '{"form": "hodograph", "coefficients": {"dx": 1, "dy": [], "dz": []}}',
    '{"form": "hodograph", "coefficients": {"dx": [1.5], "dy": [], "dz": []}}',
    '{"form": "hodograph", "coefficients": {"dx": [true], "dy": [], "dz": []}}',
    '{"form": "hodograph", "coefficients": {"dx": [null], "dy": [], "dz": []}}',
    '{"form": "hodograph", "coefficients": {"dx": ["1/0"], "dy": [], "dz": []}}',
    '{"form": "hodograph", "coefficients": {"dx": ["x"], "dy": [], "dz": []}}',
    '{"form": "hodograph", "coefficients": {"dx": ["1e5000"], "dy": [], "dz": []}}',
    '{"form": "hodograph", "coefficients": {"dx": [4294967296], "dy": [], "dz": []}}',
    '{"form": "hodograph", "coefficients": {"dx": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1], '
    '"dy": [], "dz": []}}',
    '{"form": "curve", "coefficients": {"x": [1], "y": [], "z": []}}',
]


def spec_forms(quat: QuaternionPolynomial) -> list:
    """The curve of quat written in each of the five spec forms."""
    a0, a1, a2 = (quat.coefficient(k) for k in range(3))
    pair = hopf_from_quaternion(quat)
    h = hodograph_from_hopf(pair)
    origin = (Fraction(1), Fraction(0), Fraction(-2, 3))
    return [
        CurveSpec("quaternion", quat),
        CurveSpec("bezier-quaternion", (a0, a0 + a1 * Fraction(1, 2), a0 + a1 + a2), origin),
        CurveSpec("hopf", pair),
        CurveSpec("hodograph", h, origin),
        CurveSpec("curve", integrate(h, origin)),
    ]


def write(dest: Path, name: str, text: str) -> str:
    path = dest / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def code_key(code: types.CodeType) -> tuple:
    return os.path.realpath(code.co_filename), code.co_name, code.co_firstlineno


def defined_functions() -> dict:
    """{code key: dotted name} of every function and method in src/phelix."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            name = f"{prefix}.{const.co_name}"
            if const.co_flags & inspect.CO_NEWLOCALS:
                found[code_key(const)] = name
            walk(const, name)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)
    return found


def reached_keys(run) -> set:
    """Code keys of every Python function called while run() runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {code_key(code) for code in seen}


def drive_every_command(tmp_path: Path, monkeypatch) -> None:
    """Each command on the corpus, and each exit code, through cli.main."""

    def main(*argv: str, stdin=None) -> int:
        with monkeypatch.context() as m:
            if stdin is not None:
                m.setattr(sys, "stdin", stdin)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
        return code

    helices = [dump_spec(s) for s in spec_forms(HELIX)]
    others = [dump_spec(s) for s in spec_forms(NOT_HELIX)]
    references = [dump_spec(reference_curve(name).spec) for name in REFERENCE_NAMES]
    for index, text in enumerate(helices + others + references):
        path = write(tmp_path, f"{index:02d}.json", text)
        for command in ("classify", "analyze"):
            for fmt in ("text", "json"):
                assert main(command, path, "--format", fmt) == 0, (command, fmt, text)
        assert main("sample", path, "--from", "-1/2", "--to", "2", "--n", "3") == 0
    assert main("verify") == 0
    for family in ("monotone", "general"):
        for fmt in ("text", "json"):
            assert main("generate", "--family", family, "--count", "2", "--format", fmt) == 0

    # spec text from stdin, as bytes and as an already decoded stream
    assert main("classify", "-", stdin=io.TextIOWrapper(io.BytesIO(helices[0].encode()))) == 0
    assert main("classify", "-", stdin=io.StringIO(helices[0])) == 0

    # exit 1: usage errors, unreadable input and every kind of malformed spec
    assert main() == 1
    assert main("--version") == 0
    assert main("classify", str(tmp_path / "missing.json")) == 1
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"form": "é"}'.encode("latin-1"))
    assert main("classify", str(latin1)) == 1
    for index, text in enumerate(BAD_SPECS):
        assert main("classify", write(tmp_path, f"bad{index:02d}.json", text)) == 1, text
    path = write(tmp_path, "helix.json", helices[0])
    for options in (["--n", "1"], ["--precision", "0"], ["--from", "1", "--to", "0"]):
        assert main("sample", path, *options) == 1, options
    for options in (["--count", "0"], ["--height", "0"]):
        assert main("generate", "--family", "general", *options) == 1, options

    # exit 2: a straight line, also through the quintic casework, and a
    # 2-PH curve whose Frenet frame is not rational (analyze still exits 0)
    line = write(tmp_path, "line.json", LINE)
    assert main("classify", line) == 2
    assert main("analyze", line) == 2
    assert main("classify", write(tmp_path, "proportional.json", PROPORTIONAL)) == 2
    assert main("analyze", write(tmp_path, "irrational.json", IRRATIONAL_SPEED)) == 0

    # exit 3: the Wronskian route finds a shared Hopf factor that
    # monotone_test, broken here, denies
    with monkeypatch.context() as m:
        m.setattr(quintic, "monotone_test", lambda pair: None)
        assert main("classify", write(tmp_path, "example1.json", references[0])) == 3


def test_every_function_is_reached_or_kept(tmp_path, monkeypatch):
    # main builds its parser on the first call of the process; build it here
    monkeypatch.setattr(cli, "_parser", None)
    defined = defined_functions()
    reached = reached_keys(lambda: drive_every_command(tmp_path, monkeypatch))

    names = set(defined.values())
    assert not set(KEEP) - names, "KEEP names a function that does not exist"
    reached_names = {defined[key] for key in reached if key in defined}
    assert not set(KEEP) & reached_names, "a command reaches a function on KEEP"
    unreached = sorted(
        name
        for key, name in defined.items()
        if key not in reached and name not in KEEP and key[1] not in PROTOCOL
    )
    assert not unreached, f"no command reaches these, and KEEP does not name them: {unreached}"


def test_public_names_resolve_and_none_is_a_module():
    assert len(set(phelix.__all__)) == len(phelix.__all__)
    for name in phelix.__all__:
        assert not isinstance(getattr(phelix, name), types.ModuleType), name
