"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure (or numeric result) of the paper
as an :class:`~repro.reporting.ExperimentResult`, renders it to stdout
and archives both the text and the JSON payload under
``benchmarks/results/`` (the README's "Benchmarks" section says how to
run the benches).

Wall-clock timings of every harnessed experiment are additionally
accumulated in ``benchmarks/results/BENCH_scenarios.json`` (one entry
per experiment id, overwritten in place): a local record of the machine
the benches ran on.  Like everything under ``benchmarks/results/`` it
is gitignored, so bench runs leave the working tree clean; timings are
compared across commits with the repo benchmark (``benchmarks/catalog``).
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time

from repro import telemetry
from repro.reporting import ExperimentResult

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: Accumulated wall-clock timings of the harnessed experiments.
TIMINGS_PATH = RESULTS_DIR / "BENCH_scenarios.json"


def timed(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` and return ``(result, seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def best_of(fn, repeats: int):
    """Minimum wall time over ``repeats`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def record_timing(experiment_id: str, seconds: float, **extra) -> None:
    """Merge one experiment's wall-clock time into the timing summary.

    The summary is a plain ``{experiment_id: {seconds, recorded_unix,
    ...extra}}`` JSON object; existing entries for other experiments are
    preserved, the entry for this one is replaced.

    When telemetry is enabled at record time, the current counter
    snapshot is embedded as the entry's ``"metrics"`` key, so
    BENCH_*.json entries explain *why* a number moved (steps,
    rejections, cache tiers) instead of being wall-clock-only.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    if telemetry.enabled() and "metrics" not in extra:
        counters = telemetry.snapshot()["counters"]
        if counters:
            extra["metrics"] = counters
    try:
        summary = json.loads(TIMINGS_PATH.read_text())
        if not isinstance(summary, dict):
            summary = {}
    except (OSError, ValueError):
        summary = {}
    summary[str(experiment_id)] = {
        "seconds": round(float(seconds), 6),
        "recorded_unix": int(time.time()),
        **extra,
    }
    # Atomic replace: a crashed or concurrent writer can lose its own
    # merge, but can never leave truncated JSON that wipes the history.
    fd, tmp_name = tempfile.mkstemp(dir=RESULTS_DIR, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        os.replace(tmp_name, TIMINGS_PATH)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)


def save_experiment(result: ExperimentResult, time_points=None) -> str:
    """Render, print and archive an experiment result; returns the text."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = result.render(time_points=time_points)
    (RESULTS_DIR / f"{result.experiment_id}.txt").write_text(text + "\n")
    (RESULTS_DIR / f"{result.experiment_id}.json").write_text(result.to_json())
    print("\n" + text)
    return text


def run_once(benchmark, fn):
    """Run a heavy experiment exactly once under pytest-benchmark timing.

    When the experiment returns an :class:`ExperimentResult`, its
    wall-clock time lands in the ``BENCH_scenarios.json`` summary keyed
    by its experiment id — every harnessed figure gets tracked without
    per-benchmark boilerplate.  The run executes with telemetry enabled
    (metrics cleared first), so the archived entry carries the
    experiment's counter snapshot alongside its seconds; the previous
    enable state is restored afterwards.
    """
    was_enabled = telemetry.enabled()
    telemetry.enable()
    telemetry.reset_metrics()
    try:
        start = time.perf_counter()
        result = benchmark.pedantic(fn, rounds=1, iterations=1)
        seconds = time.perf_counter() - start
        if isinstance(result, ExperimentResult):
            record_timing(result.experiment_id, seconds)
    finally:
        if not was_enabled:
            telemetry.disable()
    return result
