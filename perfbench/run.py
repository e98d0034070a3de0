#!/usr/bin/env python3
"""Benchmark of the phelix classifier.  Run from the root of the repository:

    python3 perfbench/run.py --workload helix --seed 1 --seconds 30 --trace 0

prints the run's environment and digests as one JSON line, a table of every
metric with its unit and sample count, and, as the last line, the result
object {"correct", "attempted", "failed", "metrics"}.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.

    python3 perfbench/run.py --workload all --seed 1 --seconds 30

runs every workload untraced and traced, one after another, and prints all of
it.  See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("helix", "nonhelix", "wide", "cli-cold")


def import_phelix() -> float:
    """Import phelix from this checkout's src/ and return the seconds it took."""
    if not (SRC / "phelix" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no phelix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    cli = importlib.import_module("phelix.cli")
    import_s = perf_counter() - t0
    if Path(cli.__file__).resolve().parent != SRC / "phelix":
        raise SystemExit(f"perfbench: imported phelix from {cli.__file__}, not {SRC}")
    return import_s


def print_table(rows) -> None:
    print(f"{'metric':<48} {'value':>14} {'unit':<12} {'samples':>8}")
    for name, (value, unit, samples) in rows:
        print(f"{name:<48} {value:>14.6g} {unit:<12} {samples:>8}")


def run_one(args) -> int:
    import_s = import_phelix()
    import bench

    result = bench.run_in_workdir(args.workload, args.seed, args.seconds, bool(args.trace),
                                  WORK, import_s=import_s)
    info, metrics = result["info"], result["metrics"]
    print(json.dumps({"info": info}))
    fail_ratio = (info["fail_ratio"], "ratio", info["attempted"])
    print_table(list(metrics.items()) + [("fail_ratio", fail_ratio)])
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    correct = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            print(f"== {workload} trace={trace}", flush=True)
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            correct = correct and json.loads(proc.stdout.splitlines()[-1])["correct"]
    print(f"all workloads correct: {correct}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
