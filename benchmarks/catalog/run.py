"""Catalog benchmark: cold runs of the registered scenario catalog.

Runs one workload (see ``workloads.py``) through the public
:func:`repro.scenarios.run_scenario` API for ``--seconds`` seconds,
checks every answer (``checks.py``) and prints, as its last line, one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` (telemetry off) the run repeats passes over every
question of the workload for about ``--seconds`` (at least two), and
reports the end-to-end metrics:

``wall_s``          mean over passes of the time spent answering every
                    question (the ``run_scenario`` calls of a pass)
``scenario_p50_s``  median latency of one ``run_scenario`` call
``cpu_s``           mean over passes of CPU seconds, pool workers included
``setup_s``         median time to import ``repro``, register the catalog,
                    build the models and resolve their kernels, over one
                    in-process and several fresh-interpreter set-ups
``peak_rss_mb``     peak resident memory, summed over pool workers

Every time is expressed at a fixed host speed.  A shared host can run
the same code at half speed for tens of seconds, so just before each
``run_scenario`` call and after each set-up the run times a small
calibration kernel that does not touch the library (five times before
the call and five after), and scales the measured seconds by the
kernel's nominal over its mean measured time.  A change to the library
moves the scaled figures; a busy neighbour moves the kernel and the
scenario alike and cancels out.

``--trace 1`` alternates untraced passes with traced ones and reports
the per-layer metrics of ``probes.py`` instead; the traced findings must
equal the untraced ones and every listed probe must read non-zero.

BLAS is pinned to one thread, the library is imported from the
checkout's ``src/``, and every cache the benchmark touches lives under
``.bench_work/`` in the checkout and is removed afterwards.

Usage (from the repository root)::

    python3 benchmarks/catalog/run.py --workload transient --seed 0 \\
        --seconds 25 --trace 0
    python3 benchmarks/catalog/run.py --workload transient --smoke
    python3 benchmarks/catalog/run.py --write-reference
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
#: Fresh-interpreter set-ups per run, on top of the in-process one.
SETUP_PROBES = 4
#: Scenarios per workload in ``--smoke`` mode.
SMOKE_SCENARIOS = 2
WORKLOAD_NAMES = ("transient", "steady-finite", "ensemble-pooled")


def pin_environment() -> None:
    """Single-threaded BLAS, checkout-local library and cache (pre-numpy)."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "env-cache")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))


def pool_processes() -> int:
    return min(2, len(os.sched_getaffinity(0)))


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: What one :func:`calibration_kernel` takes on a quiet host of the
#: reference machine (2-core VM, Python 3.11, numpy 2.4).
NOMINAL_CALIBRATION_S = 1.5e-3
#: Kernels timed on each side of a measured interval.
CALIBRATION_REPEATS = 5


def calibration_kernel() -> float:
    """A fixed slice of interpreter-bound small-array numpy work.

    The same mix the library's hot paths run, and independent of the
    library, so its time tracks only how fast the host runs right now.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 8)
    acc = 0.0
    for _ in range(600):
        acc += float((x * 1.0001 + 0.5).sum())
    return acc


def calibrate(repeats: int = CALIBRATION_REPEATS) -> List[float]:
    """Seconds of each of ``repeats`` back-to-back calibration kernels."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - start)
    return times


def host_speed(samples: List[float]) -> float:
    """Nominal over measured kernel time: below 1 while the host is busy."""
    return NOMINAL_CALIBRATION_S / statistics.fmean(samples)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

@dataclass
class Setup:
    seconds: float                          # at nominal host speed
    workload: object
    specs: list
    models: list


def set_up(workload_name: str, seed: int, limit: Optional[int]) -> Setup:
    """Import the library, register the catalog, build the models.

    Everything a user waits for before the first question, timed and
    scaled to nominal host speed.
    """
    start = time.perf_counter()
    import repro
    from repro.scenarios import list_scenarios

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    list_scenarios()
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    specs = workloads.workload_specs(workload, seed, limit)
    models = [spec.build_model() for spec in specs]
    for model in models:
        model.backend_kernels()
    seconds = time.perf_counter() - start
    speed = host_speed(calibrate(2 * CALIBRATION_REPEATS))
    return Setup(seconds * speed, workload, specs, models)


def setup_samples(args, first: float) -> List[float]:
    """The in-process set-up time plus fresh-interpreter repeats."""
    samples = [first]
    for _ in range(0 if args.smoke else SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120,
            check=True,
        )
        samples.append(float(json.loads(out.stdout.splitlines()[-1])
                             ["setup_s"]))
    return samples


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

@dataclass
class PassResult:
    latencies: List[float]                  # per scenario, wall seconds
    cpus: List[float]                       # per scenario, CPU seconds
    speeds: List[float]                     # per scenario, host speed
    findings: Dict[str, Dict[str, float]]   # scenario -> findings
    selected: Dict[str, object]             # scenario -> spec as run
    raised: Dict[str, int]                  # scenario -> questions raised
    problems: Dict[str, List[str]] = field(default_factory=dict)

    def nominal(self, seconds: List[float]) -> List[float]:
        """Per-scenario ``seconds`` of this pass at nominal host speed."""
        return [t * v for t, v in zip(seconds, self.speeds)]


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _reap_workers(timeout: float = 30.0) -> None:
    """Wait until every pool worker has ended and been reaped."""
    import multiprocessing

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers outlived their pass")
        time.sleep(0.005)


def run_pass(setup: Setup, processes: int) -> PassResult:
    """Answer every question of the workload once."""
    from repro.scenarios import run_scenario
    from workloads import plan_for

    cache = None
    if setup.workload.pooled:
        cache = WORK / f"cache-{os.getpid()}"
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir(parents=True)
    plan = plan_for(setup.workload, processes,
                    None if cache is None else str(cache))
    latencies, cpus, speeds, runs = [], [], [], []
    try:
        for spec in setup.specs:
            before = calibrate()
            cpu0 = _cpu_seconds()
            began = time.perf_counter()
            runs.append(run_scenario(spec, plan))
            latencies.append(time.perf_counter() - began)
            _reap_workers()
            cpus.append(_cpu_seconds() - cpu0)
            speeds.append(host_speed(before + calibrate()))
    finally:
        if cache is not None:
            shutil.rmtree(cache, ignore_errors=True)
    return PassResult(
        latencies, cpus, speeds,
        findings={r.spec.name: {k: float(v) for k, v
                                in r.result.findings.items()} for r in runs},
        selected={r.spec.name: r.spec for r in runs},
        raised={r.spec.name: len(r.failures) for r in runs},
    )


def check_pass(result: PassResult, setup: Setup, reference) -> None:
    """Record the output-check problems of every scenario of a pass."""
    from checks import check_findings

    by_workload = None if reference is None else \
        reference[setup.workload.name]
    for spec, model in zip(setup.specs, setup.models):
        expected = None if by_workload is None else \
            by_workload.get(spec.name, {})
        problems = check_findings(result.selected[spec.name], model,
                                  result.findings[spec.name], expected)
        if problems:
            result.problems[spec.name] = problems


def tally(passes: List[PassResult]):
    """``(attempted, failed)`` questions over the passes.

    A question fails when it raised, or when its scenario's findings
    failed the output check (every question of that scenario counts).
    """
    attempted = failed = 0
    for p in passes:
        for name, spec in p.selected.items():
            n = len(spec.questions)
            attempted += n
            failed += n if name in p.problems else p.raised[name]
    return attempted, failed


# ----------------------------------------------------------------------
# Traced rounds
# ----------------------------------------------------------------------

def traced_pass(setup: Setup, processes: int):
    """One pass under telemetry and the layer probes."""
    from probes import LayerSample, LayerTracer

    from repro import telemetry

    tracer = LayerTracer()
    telemetry.clear()
    telemetry.enable()
    try:
        with tracer.installed():
            result = run_pass(setup, processes)
    finally:
        telemetry.disable()
    counters = telemetry.snapshot()["counters"]
    telemetry.clear()
    return result, LayerSample(sum(result.latencies), tracer.stats,
                               counters)


def traced_round(setup: Setup, processes: int):
    """Untraced pass, traced pass (+ serial layer split when pooled)."""
    from probes import Context, layer_metrics

    plain = run_pass(setup, processes)
    traced, sample = traced_pass(setup, processes)
    passes = [plain, traced]
    pool = None
    if setup.workload.pooled and processes > 1:
        # Worker counters never reach the parent, so the layer split
        # comes from a serial pass over the same questions and the pool
        # figures from the parent side of the pooled one.
        pool = sample
        serial, sample = traced_pass(setup, 1)
        passes.append(serial)
    mismatched = [p for p in passes[1:] if p.findings != plain.findings]
    overhead = (sum(traced.nominal(traced.latencies))
                / sum(plain.nominal(plain.latencies)) - 1.0)
    ctx = Context(layer=sample, pool=pool, processes=processes,
                  overhead_frac=overhead)
    return passes, layer_metrics(ctx), bool(mismatched)


# ----------------------------------------------------------------------
# Provenance and output
# ----------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """Content hash of the library source the run imported."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args, processes: int) -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "pool_processes": processes,
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": sys.version.split()[0], "git_commit": git_commit(),
        "source_digest": source_digest(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def emit(args, processes, metrics: Dict[str, tuple], attempted: int,
         failed: int, correct: bool, problems: List[str],
         notes: Optional[Dict[str, str]] = None) -> None:
    for line in problems:
        print(f"FAIL {line}")
    print("provenance " + json.dumps(provenance(args, processes),
                                     sort_keys=True))
    print(f"{args.workload}: {attempted} questions attempted, "
          f"{failed} failed (fail_frac {failed / attempted:.4g} ratio)")
    for name, (value, unit) in metrics.items():
        note = (notes or {}).get(name, "")
        print(f"  {name:40s} {value:14.6g} {unit:9s} {note}".rstrip())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def describe_problems(passes: List[PassResult]) -> List[str]:
    seen = []
    for p in passes:
        for name, problems in p.problems.items():
            for problem in problems:
                line = f"{name}: {problem}"
                if line not in seen:
                    seen.append(line)
    return seen


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------

def more_time(start: float, done: int, minimum: int, seconds: float) -> bool:
    """Whether another repeat fits: the run ends within half a repeat of
    ``seconds`` (after at least ``minimum`` repeats)."""
    elapsed = time.perf_counter() - start
    return done < minimum or elapsed + 0.5 * elapsed / done < seconds


def measure(args, setup: Setup, processes: int, reference) -> int:
    start = time.perf_counter()
    passes: List[PassResult] = [run_pass(setup, processes)]
    while not args.smoke and more_time(start, len(passes), 2, args.seconds):
        passes.append(run_pass(setup, processes))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if setup.workload.pooled and processes > 1:
        rss_kb += processes * resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss
    setup_s = statistics.median(setup_samples(args, setup.seconds))
    for p in passes:
        check_pass(p, setup, reference)
    attempted, failed = tally(passes)
    latency = [p.nominal(p.latencies) for p in passes]
    metrics = {
        "wall_s": (statistics.fmean(map(sum, latency)), "s"),
        "scenario_p50_s": (statistics.median(
            t for times in latency for t in times), "s"),
        "cpu_s": (statistics.fmean(sum(p.nominal(p.cpus)) for p in passes),
                  "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    emit(args, processes, metrics, attempted, failed, failed == 0,
         describe_problems(passes))
    return 0


def trace(args, setup: Setup, processes: int, reference) -> int:
    from probes import METRICS, silent_zeros

    start = time.perf_counter()
    passes: List[PassResult] = []
    rounds: List[Dict[str, float]] = []
    integrity: List[str] = []
    while not rounds or (not args.smoke and more_time(
            start, len(rounds), 1, args.seconds)):
        round_passes, values, mismatched = traced_round(setup, processes)
        passes += round_passes
        rounds.append(values)
        if mismatched:
            integrity.append("traced findings differ from untraced ones")
    for p in passes:
        check_pass(p, setup, reference)
    attempted, failed = tally(passes)
    metrics = {m.name: (statistics.median(r[m.name] for r in rounds), m.unit)
               for m in METRICS}
    zeros = silent_zeros({k: v for k, (v, _) in metrics.items()},
                         args.workload)
    if zeros and not args.smoke:
        integrity.append(f"probes read zero where listed: {zeros}")
    emit(args, processes, metrics, attempted, failed,
         failed == 0 and not integrity,
         describe_problems(passes) + integrity,
         notes={m.name: m.rationale() for m in METRICS})
    return 0


def write_reference() -> int:
    """Regenerate ``reference.json`` from seed-0 passes of each workload."""
    from checks import REFERENCE_PATH, reference_findings

    reference = {}
    for name in WORKLOAD_NAMES:
        setup = set_up(name, 0, None)
        result = run_pass(setup, pool_processes())
        if any(result.raised.values()):
            raise SystemExit(f"error: questions raised in {name}: "
                             f"{result.raised}")
        reference[name] = {spec: reference_findings(found)
                           for spec, found in result.findings.items()}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1,
                                         sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"one pass over {SMOKE_SCENARIOS} scenarios, "
                             "no set-up repeats")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json (seed 0)")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro library source under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    if args.write_reference:
        return write_reference()
    limit = SMOKE_SCENARIOS if args.smoke else None
    setup = set_up(args.workload, args.seed, limit)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup.seconds}))
        return 0
    from checks import load_reference

    reference = load_reference() if args.seed == 0 else None
    processes = pool_processes()
    WORK.mkdir(exist_ok=True)
    try:
        mode = trace if args.trace else measure
        return mode(args, setup, processes, reference)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
