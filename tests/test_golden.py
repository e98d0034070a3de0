"""Golden bytes: the CLI reports may not change by a single byte.

Each case runs ``classify`` and ``analyze`` in text and JSON on one curve
spec and pins the exit code and the sha256 of stdout; ``verify`` and
``generate`` on both helix families are pinned the same way.  Refactors of
the analysis and the samplers must leave every digest as it is.
After a deliberate change of the output, print the new table with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import hashlib
import io
import json
import random

from conftest import rand_quaternion_quadratic
from phelix.cli import main
from phelix.curves import quaternion_from_hopf
from phelix.curvespec import CurveSpec, dump_spec
from phelix.quintic import generate_general_quintic, generate_monotone_quintic
from phelix.references import REFERENCE_NAMES, reference_curve

RUNS = (
    ("classify", "text"),
    ("classify", "json"),
    ("analyze", "text"),
    ("analyze", "json"),
)

GENERATE_RUNS = tuple(
    ("--family", family, "--seed", "3", "--count", "4", "--format", fmt)
    for family in ("monotone", "general")
    for fmt in ("text", "json")
) + (("--family", "monotone", "--seed", "3", "--count", "4", "--height", "31",
      "--format", "json"),)


def _quaternion_doc(quat) -> str:
    return dump_spec(CurveSpec("quaternion", quat))


def _specs() -> dict:
    specs = {name: dump_spec(reference_curve(name).spec) for name in REFERENCE_NAMES}
    for seed in (1, 2):
        rng = random.Random(seed)
        specs[f"monotone-{seed}"] = _quaternion_doc(
            quaternion_from_hopf(generate_monotone_quintic(rng, height=8))
        )
        specs[f"general-{seed}"] = _quaternion_doc(generate_general_quintic(rng, height=8))
        specs[f"random-{seed}"] = _quaternion_doc(rand_quaternion_quadratic(rng, height=9))
    specs["planar"] = json.dumps({
        "form": "curve",
        "coefficients": {"x": ["0", "0", "1"], "y": ["0", "1", "0", "-1/3"], "z": []},
    })
    specs["line"] = json.dumps({
        "form": "hodograph",
        "coefficients": {"dx": ["2"], "dy": ["-1"], "dz": ["1/3"]},
    })
    specs["hopf"] = json.dumps({
        "form": "hopf",
        "coefficients": {"z1": [["1", "2"], ["0", "1"], ["1", "0"]],
                         "z2": [["3", "-1"], ["1", "1"]]},
        "origin": ["1/2", "0", "-3"],
    })
    specs["hodograph"] = json.dumps({
        "form": "hodograph",
        "coefficients": {"dx": ["1", "2", "3"], "dy": ["0", "1", "-1", "2"],
                         "dz": ["2", "0", "1"]},
    })
    specs["bezier"] = json.dumps({
        "form": "bezier-quaternion",
        "coefficients": [["1", "0", "2", "-1"], ["0", "3", "1", "1"],
                         ["2", "-1", "0", "1/2"]],
    })
    return specs


def _run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


def _outputs(tmp_dir) -> dict:
    table = {"verify": _run(["verify"])}
    for args in GENERATE_RUNS:
        table["generate " + " ".join(args)] = _run(["generate", *args])
    for name, text in _specs().items():
        path = tmp_dir / f"{name}.json"
        path.write_text(text)
        for command, fmt in RUNS:
            table[f"{name} {command} {fmt}"] = _run([command, str(path), "--format", fmt])
    return table


# (exit code, first 16 hex digits of the sha256 of stdout)
GOLDEN = {
    'verify': (0, '3bb7e7080b4d65ed'),
    'generate --family monotone --seed 3 --count 4 --format text': (0, 'e12423d4e80dbd7c'),
    'generate --family monotone --seed 3 --count 4 --format json': (0, '984498608d2465e6'),
    'generate --family general --seed 3 --count 4 --format text': (0, '4787e2a315a79468'),
    'generate --family general --seed 3 --count 4 --format json': (0, '2448a3024c72ad18'),
    'generate --family monotone --seed 3 --count 4 --height 31 --format json':
        (0, '75ab2d7e03938f45'),
    'example1 classify text': (0, 'cbe9fe8c10b053bf'),
    'example1 classify json': (0, 'db358a30a11d2b16'),
    'example1 analyze text': (0, '8615e3dc019193d7'),
    'example1 analyze json': (0, 'db358a30a11d2b16'),
    'example2 classify text': (0, '2c847dcbf900fd5b'),
    'example2 classify json': (0, '3b0a12faa054c4c1'),
    'example2 analyze text': (0, 'f83c3f588a6d7e55'),
    'example2 analyze json': (0, '3b0a12faa054c4c1'),
    'counterexample classify text': (0, '7147b988a1eae560'),
    'counterexample classify json': (0, '1f267f4c5381ebfb'),
    'counterexample analyze text': (0, '8de3839b5d52c99a'),
    'counterexample analyze json': (0, '1f267f4c5381ebfb'),
    'monotone-1 classify text': (0, '6ccd81c4bcbdb127'),
    'monotone-1 classify json': (0, 'ec46f5216fc37b1f'),
    'monotone-1 analyze text': (0, '076cd47045876a61'),
    'monotone-1 analyze json': (0, 'ec46f5216fc37b1f'),
    'general-1 classify text': (0, '6057bf229b6905c2'),
    'general-1 classify json': (0, 'f508b24be1ce8311'),
    'general-1 analyze text': (0, '08e50b2b4f77e4a3'),
    'general-1 analyze json': (0, 'f508b24be1ce8311'),
    'random-1 classify text': (0, 'bae1e8e064cb4b5b'),
    'random-1 classify json': (0, '0308ea3c455916b7'),
    'random-1 analyze text': (0, 'bae1e8e064cb4b5b'),
    'random-1 analyze json': (0, '0308ea3c455916b7'),
    'monotone-2 classify text': (0, '4b5d2cade748414b'),
    'monotone-2 classify json': (0, 'e071a08393060751'),
    'monotone-2 analyze text': (0, 'd117c1e18df7b1a0'),
    'monotone-2 analyze json': (0, 'e071a08393060751'),
    'general-2 classify text': (0, '5fdc8e0031c50045'),
    'general-2 classify json': (0, '4f560c88241db58a'),
    'general-2 analyze text': (0, 'f3fe32e3f089492e'),
    'general-2 analyze json': (0, '4f560c88241db58a'),
    'random-2 classify text': (0, '729f728ee7967834'),
    'random-2 classify json': (0, '86cb112757271d82'),
    'random-2 analyze text': (0, '729f728ee7967834'),
    'random-2 analyze json': (0, '86cb112757271d82'),
    'planar classify text': (0, 'ace6c75d5d7f03fe'),
    'planar classify json': (0, '6bd4d6025c91d69a'),
    'planar analyze text': (0, '34c52b899bfb29ce'),
    'planar analyze json': (0, '6bd4d6025c91d69a'),
    'line classify text': (2, '959e2fc883aa50ec'),
    'line classify json': (2, '97065b22cd28172d'),
    'line analyze text': (2, '6b263dde681a2af3'),
    'line analyze json': (2, '97065b22cd28172d'),
    'hopf classify text': (0, '9c4b14e41c13d387'),
    'hopf classify json': (0, '3bcff7ea5be553a8'),
    'hopf analyze text': (0, '9c4b14e41c13d387'),
    'hopf analyze json': (0, '3bcff7ea5be553a8'),
    'hodograph classify text': (0, '7768a330bea84860'),
    'hodograph classify json': (0, '710ac1a466dd1cf2'),
    'hodograph analyze text': (0, '7768a330bea84860'),
    'hodograph analyze json': (0, '710ac1a466dd1cf2'),
    'bezier classify text': (0, '3b2e532bbc2b1672'),
    'bezier classify json': (0, '5914876e77b0db06'),
    'bezier analyze text': (0, '3b2e532bbc2b1672'),
    'bezier analyze json': (0, '5914876e77b0db06'),
}


def test_reports_are_byte_identical(tmp_path):
    assert _outputs(tmp_path) == GOLDEN


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, value in _outputs(pathlib.Path(tmp)).items():
            print(f"    {key!r}: {value!r},")
