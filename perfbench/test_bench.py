"""Tests of the benchmark itself, on tiny corpora.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import bench  # noqa: E402
from workloads import CHECKS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny_run(workload, trace, tmp_path, **kwargs):
    return bench.run_in_workdir(workload, 7, 0, trace, tmp_path, size=4, min_calls=4, **kwargs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, tmp_path):
    untraced = tiny_run(workload, False, tmp_path)
    traced = tiny_run(workload, True, tmp_path)
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for result in (untraced, traced):
        assert result["info"]["failed"] == 0, result["info"]["failures"]
        for name, (value, unit, samples) in result["metrics"].items():
            assert unit == units[name]
            assert value >= 0 and samples >= 0
    for name in ("curves_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb"):
        assert untraced["metrics"][name][0] > 0


def test_traced_run_leaves_output_digest_unchanged(tmp_path):
    untraced = tiny_run("nonhelix", False, tmp_path)["info"]
    traced = tiny_run("nonhelix", True, tmp_path)["info"]
    assert traced["output_digest_traced"] == traced["output_digest"] == untraced["output_digest"]
    assert traced["input_digest"] == untraced["input_digest"]


def test_gate_fails_calls_against_a_wrong_expected_verdict(tmp_path):
    def wrong_family(expected, doc):
        flipped = {"monotone": "general", "general": "monotone"}[expected["family"]]
        return CHECKS["helix"](dict(expected, family=flipped), doc)

    info = tiny_run("helix", False, tmp_path, check=wrong_family)["info"]
    assert info["fail_ratio"] > 0

    def wrong_verdict(expected, doc):
        return CHECKS["cli-cold"](dict(expected, verdict="planar"), doc)

    info = tiny_run("cli-cold", False, tmp_path, check=wrong_verdict)["info"]
    assert info["fail_ratio"] == 1


def test_run_prints_the_result_object_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 100
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "helix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
