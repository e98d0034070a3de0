"""The benchmark's runner: set-up, closed-loop timing, tracing and the gate.

Every workload is a closed loop with one client: the next curve goes in only
after the previous report has come back.  The in-process workloads call
``phelix.cli.main(["classify", <spec>, "--format", "json"])``; ``cli-cold``
starts one ``python -m phelix classify`` child at a time.

An untraced run (``trace=False``) gives the end-to-end metrics.  A traced run
of the same inputs makes one untraced pass over the corpus, then traced
passes, and gives the per-layer metrics; its traced reports must equal the
untraced ones byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, List, Optional

import phelix.cli

from tracer import TIMED, Tracer, layer_metrics
from workloads import CHECKS, WORKLOADS, Item, build_corpus, check_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_CALLS = 100      # so that at least 10 latency samples lie beyond p90
WARMUP_CALLS = 3
SETUP_REPS = 3       # setup_s is the median of these
STARTUP_REPS = 5
CHILD_TIMEOUT_S = 60
SETUP_SLICES = 20    # calibration slices after each set-up repetition


def calibration_slice() -> None:
    """A fixed piece of exact-rational work that runs no phelix code."""
    acc = Fraction(0)
    for i in range(1, 400):
        acc = acc * Fraction(i, i + 7) + Fraction(3, i)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def empty_interpreter() -> None:
    """Start and end an interpreter that does nothing."""
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=_child_env(), check=True,
                   timeout=CHILD_TIMEOUT_S)


class HostSpeed:
    """How fast the host runs this kind of work right now, from interleaved probes.

    On a shared host the time of identical work drifts by tens of percent
    within minutes.  A fixed probe of the same kind drifts with it: over 5 s
    windows an in-process call and the ``calibration_slice`` next to it
    varied by 14% each, their ratio by 1%.  Work in child processes is
    dominated by process start-up, which the slice does not track, so it is
    probed with ``empty_interpreter``.  Scaling a measured time by nominal /
    probe time gives the time at a fixed nominal host speed, so that runs
    made at different moments can be compared.
    """

    WINDOW = 2   # calls on each side whose probes scale a call's latency

    def __init__(self, probe: Callable[[], None] = calibration_slice, nominal_s: float = 0.0025):
        self.probe = probe
        self.nominal_s = nominal_s
        self.times: List[float] = []     # seconds of each probe, in order

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = perf_counter()
            self.probe()
            self.times.append(perf_counter() - t0)

    def scale(self) -> float:
        """The factor for a time spread over the whole sampled interval."""
        return self.nominal_s / statistics.fmean(self.times)

    def scale_each(self, latencies: List[float]) -> List[float]:
        """Each call's latency at nominal speed, from the probes around it.

        ``closed_loop`` runs probe i just before call i and probe i + 1 just
        after it.  Contention comes in bursts, so scaling each call by its
        neighbourhood keeps percentiles steady where one factor per run
        steadies only the mean.
        """
        w = self.WINDOW
        return [lat * self.nominal_s / statistics.fmean(self.times[max(0, i - w):i + w + 2])
                for i, lat in enumerate(latencies)]


def classify_in_process(path: Path):
    """(exit code, stdout bytes) of one in-process ``phelix classify`` call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = phelix.cli.main(["classify", str(path), "--format", "json"])
    except Exception as exc:  # a crash is a failed call, not a crashed benchmark
        return f"exception {exc!r}", b""
    return rc, out.getvalue().encode()


def _run_child(argv: List[str]):
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", b""
    return proc.returncode, proc.stdout


def classify_cold(path: Path):
    """(exit code, stdout bytes) of ``python -m phelix classify`` in a child."""
    return _run_child([sys.executable, "-m", "phelix", "classify", str(path), "--format", "json"])


class TracedChildren:
    """Runs cli-cold calls through ``trace_child.py`` and collects their spans."""

    def __init__(self, spans_dir: Path):
        self.spans_dir = spans_dir
        self.calls: list = []      # one (call number, records) per child
        self.divmods = 0
        self.curve = None

    def __call__(self, path: Path):
        spans_file = self.spans_dir / f"child-{self.curve}.json"
        result = _run_child([sys.executable, str(HERE / "trace_child.py"), str(spans_file),
                             "classify", str(path), "--format", "json"])
        if spans_file.is_file():
            data = json.loads(spans_file.read_text())
            self.calls.append((self.curve, data["spans"]))
            self.divmods += data["divmods"]
        return result

    def merge_into(self, records: list) -> None:
        for call, spans in self.calls:
            offset = len(records)
            for rec in spans:
                rec[3] = rec[3] + offset if rec[3] >= 0 else -1
                rec[4] = call
                records.append(rec)


def closed_loop(call: Callable, items: List[Item], seconds: float, min_calls: int,
                whole_passes: bool = False, before: Optional[Callable] = None,
                speed: Optional[HostSpeed] = None):
    """Cycle through the corpus one call at a time.

    Stops once ``seconds`` have passed and at least ``min_calls`` calls and
    one full pass are done.  With ``whole_passes`` it makes as many whole
    passes as fit in ``seconds``, and at least one.  With ``speed``, a
    probe precedes the first call and follows every call.
    Returns [(item index, latency s, exit code, stdout)].
    """
    records = []
    n = len(items)
    need = max(min_calls, n)
    if speed is not None:
        speed.sample()
    start = perf_counter()
    while True:
        idx = len(records) % n
        if before is not None:
            before(len(records))
        t0 = perf_counter()
        rc, out = call(items[idx].path)
        t1 = perf_counter()
        records.append((idx, t1 - t0, rc, out))
        if speed is not None:
            speed.sample()
        done = len(records)
        elapsed = perf_counter() - start
        if whole_passes:
            if done % n == 0 and elapsed * (done // n + 1) / (done // n) > seconds:
                return records
        elif done >= need and elapsed >= seconds:
            return records


def _latency_metrics(latencies_s: List[float]) -> dict:
    """Throughput and latency percentiles of one client's calls."""
    ms = [1000 * x for x in latencies_s]
    return {
        "curves_per_s": (len(ms) / sum(latencies_s), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
    }


def evaluate(items: List[Item], records, check, reference: Optional[List[bytes]] = None):
    """Gate every call; return (failure messages, sha256 of one pass of reports).

    A call must reproduce ``reference[idx]`` when given, else the first
    report this loop got for the same spec.
    """
    first: dict = {}
    failures = []
    for idx, _, rc, out in records:
        first.setdefault(idx, out)
        ref = reference[idx] if reference is not None else first[idx]
        reason = check_report(check, items[idx].expected, rc, out, ref)
        if reason is not None:
            failures.append(f"{items[idx].name}: {reason}")
    digest = hashlib.sha256(b"".join(first[i] for i in range(len(items)))).hexdigest()
    return failures, digest


def input_digest(items: List[Item]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.path.read_bytes())
    return h.hexdigest()


def setup(workload: str, seed: int, dest: Path, size: Optional[int]) -> List[Item]:
    """Generate and write the corpus; for cli-cold also the in-process reports."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    items = build_corpus(workload, seed, dest, size)
    if workload == "cli-cold":
        for item in items:
            item.expected["bytes"] = classify_in_process(item.path)[1]
    return items


def startup_ms():
    """Medians of ``python -c pass`` and of importing phelix.cli on top of it,
    in ms as measured: the empty interpreter is the probe that would scale them."""
    interp, imported = [], []
    for _ in range(STARTUP_REPS):
        for argv, sink in (([sys.executable, "-c", "pass"], interp),
                           ([sys.executable, "-c", "import phelix.cli"], imported)):
            t0 = perf_counter()
            subprocess.run(argv, cwd=ROOT, env=_child_env(), check=True, timeout=CHILD_TIMEOUT_S)
            sink.append(perf_counter() - t0)
    base = statistics.median(interp)
    return 1000 * base, 1000 * (statistics.median(imported) - base)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path, *,
        import_s: float = 0.0, size: Optional[int] = None, min_calls: int = MIN_CALLS,
        check: Optional[Callable] = None) -> dict:
    """One benchmark run.  Returns the metrics, the call counts and the run info.

    Every time is reported at nominal host speed (see HostSpeed); the info
    keeps the raw end-to-end values.  ``import_s`` is the measured import
    time of phelix, added to setup_s.
    ``size``, ``min_calls`` and ``check`` exist for the benchmark's own tests.
    """
    check = check or CHECKS[workload]
    cold = workload == "cli-cold"
    call = classify_cold if cold else classify_in_process

    def call_speed():
        return HostSpeed(empty_interpreter, 0.06) if cold else HostSpeed()

    corpus_dir = work / "corpus"
    metrics: dict = {}
    info: dict = {}

    if not trace:
        setup_times = []
        setup_speed = HostSpeed()
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            items = setup(workload, seed, corpus_dir, size)
            setup_times.append(perf_counter() - t0)
            setup_speed.sample(SETUP_SLICES)
        closed_loop(call, items[:WARMUP_CALLS], 0, WARMUP_CALLS)
        speed = call_speed()
        records = closed_loop(call, items, seconds, min_calls, speed=speed)
        reference = [i.expected["bytes"] for i in items] if cold else None
        failures, info["output_digest"] = evaluate(items, records, check, reference)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF)
        n = len(records)
        raw_s = [r[1] for r in records]
        setup_raw_s = import_s + statistics.median(setup_times)
        info["raw"] = {name: value for name, (value, _) in _latency_metrics(raw_s).items()}
        info["raw"]["setup_s"] = setup_raw_s
        info["host_scale"] = {"timed": speed.scale(), "setup": setup_speed.scale()}
        metrics = {name: (value, unit, n)
                   for name, (value, unit) in _latency_metrics(speed.scale_each(raw_s)).items()}
        metrics["setup_s"] = (setup_raw_s * setup_speed.scale(), "s", SETUP_REPS)
        metrics["peak_rss_mb"] = (usage.ru_maxrss / 1024, "MB", 1)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            items = setup(workload, seed, corpus_dir, size)
        finally:
            tracer.uninstall()
        closed_loop(call, items[:WARMUP_CALLS], 0, WARMUP_CALLS)
        untraced_speed, traced_speed = call_speed(), call_speed()
        untraced = closed_loop(call, items, 0, 0, whole_passes=True, speed=untraced_speed)
        reference = [i.expected["bytes"] for i in items] if cold else None
        failures, info["output_digest"] = evaluate(items, untraced, check, reference)

        tracer.phase = TIMED
        if cold:
            children = TracedChildren(work)
            traced_call, before = children, lambda i: setattr(children, "curve", i)
        else:
            traced_call, before = call, lambda i: setattr(tracer, "curve", i)
            tracer.install()
        try:
            traced = closed_loop(traced_call, items, seconds - sum(r[1] for r in untraced), 0,
                                 whole_passes=True, before=before, speed=traced_speed)
        finally:
            tracer.uninstall()
        # The untraced loop made exactly one pass, in corpus order.  A traced
        # report that differs from it fails, so equal digests are checked here.
        traced_failures, info["output_digest_traced"] = evaluate(
            items, traced, check, [out for _, _, _, out in untraced])
        failures += traced_failures
        records = untraced + traced

        spans = tracer.records()
        divmods = tracer.divmods[TIMED]
        if cold:
            children.merge_into(spans)
            divmods = children.divmods
        k = traced_speed.scale()
        metrics = {
            name: (value * k if unit.startswith("ms") else value, unit, samples)
            for name, (value, unit, samples) in layer_metrics(
                spans, divmods, len(traced)).items()
        }
        info["host_scale"] = {"timed": k, "untraced": untraced_speed.scale()}
        interp_ms, import_ms = startup_ms()
        metrics["startup.interpreter_ms"] = (interp_ms, "ms", STARTUP_REPS)
        metrics["startup.import_ms"] = (import_ms, "ms", STARTUP_REPS)
        traced_mean = statistics.fmean(traced_speed.scale_each([r[1] for r in traced]))
        untraced_mean = statistics.fmean(untraced_speed.scale_each([r[1] for r in untraced]))
        metrics["trace.overhead_ratio"] = (traced_mean / untraced_mean, "ratio", len(traced))
        spans_file = work.parent / "spans" / f"{workload}-seed{seed}.jsonl"
        info["spans_file"] = str(write_spans(spans, spans_file))

    height = WORKLOADS[workload][1]
    info.update({
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "corpus_size": len(items),
        "height": height,
        "input_digest": input_digest(items),
        "attempted": len(records),
        "failed": len(failures),
        "fail_ratio": len(failures) / len(records),
        "failures": failures[:5],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "client": "closed loop, 1 client, 1 process" + (", 1 child at a time" if cold else ""),
    })
    return {"metrics": metrics, "info": info}


def write_spans(spans: list, path: Path) -> Path:
    """One JSON object per span: name, start, end, parent, curve, phase, note."""
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("name", "start", "end", "parent", "curve", "phase", "note")
    with path.open("w") as fh:
        for rec in spans:
            fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
    return path


def run_in_workdir(workload: str, seed: int, seconds: float, trace: bool, work_root: Path,
                   **kwargs) -> dict:
    """``run`` in a fresh directory under ``work_root``, removed afterwards."""
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work_root))
    try:
        return run(workload, seed, seconds, trace, work, **kwargs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
