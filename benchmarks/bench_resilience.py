"""No-fault overhead of the resilience layer.

Every fan-out runs through one policy-governed executor
(``map_shards``, default policy ``FAIL_FAST``), and the fault seams are
armed only under injection; the contract is that a healthy run pays
(almost) nothing for retries and isolation.  This bench pins that
contract with three measurements:

- **shard fan-out**: the default fail-fast policy vs a retrying
  ``RetryPolicy()`` on an identical serial workload — the ratio is the
  headline ``overhead_ratio`` and must stay within ``OVERHEAD_CEILING``
  (1.05, a <=5%% budget) on full runs;
- **fault seams disarmed**: the exact operation count of a disarmed
  ``faults.active_plan()`` seam check — zero tallies, by construction
  one global load each;
- **scenario runner**: a cached-off envelope scenario under the default
  plan vs ``on_error="partial"``, recorded for the trajectory but not
  gated (single-run scenario noise dwarfs 5%%).

Results land in ``benchmarks/results/BENCH_resilience.json``.

Run directly (``--smoke`` for the CI-sized variant)::

    PYTHONPATH=src python benchmarks/bench_resilience.py [--smoke]
"""

import argparse
import json
import time

import numpy as np

from _common import RESULTS_DIR, best_of, record_timing
from repro.engine import map_shards
from repro.models import make_sir_model
from repro.ode.batch import dopri_batch
from repro.resilience import RetryPolicy, faults
from repro.scenarios import Question, get_scenario, run_scenario

BENCH_PATH = RESULTS_DIR / "BENCH_resilience.json"

#: No-fault overhead budget of a retrying policy over the default.
OVERHEAD_CEILING = 1.05


def _shard_workload(theta):
    """One CPU-bound shard: a small batched ODE integration."""
    f = lambda t, X: -theta * X
    sol = dopri_batch(f, np.ones((4, 2)), (0.0, 1.0),
                      t_eval=np.linspace(0.0, 1.0, 5))
    return float(sol.final_states.sum())


def bench_shard_overhead(smoke: bool) -> dict:
    """Default vs retrying ``map_shards`` on an identical serial workload."""
    n_shards = 8 if smoke else 32
    repeats = 3 if smoke else 10
    payloads = [0.5 + 0.1 * i for i in range(n_shards)]
    policy = RetryPolicy()

    default_s, default_out = best_of(
        lambda: map_shards(_shard_workload, payloads), repeats)
    retrying_s, retrying_out = best_of(
        lambda: map_shards(_shard_workload, payloads, policy=policy),
        repeats)
    if default_out != retrying_out:
        raise AssertionError(
            "retrying no-fault run diverged from the default results"
        )
    return {
        "n_shards": n_shards,
        "default_seconds": round(default_s, 6),
        "retrying_seconds": round(retrying_s, 6),
        "overhead_ratio": round(retrying_s / default_s, 4),
        "bit_identical": True,
    }


def bench_disarmed_seams() -> dict:
    """Prove the disarmed seam cost by operation count, not wall clock."""
    faults.reset_stats()
    checks = 10_000
    start = time.perf_counter()
    for _ in range(checks):
        faults.active_plan()
    elapsed = time.perf_counter() - start
    stats = faults.stats()
    if stats["seam_checks"] != 0 or stats["injected"] != 0:
        raise AssertionError(
            f"disarmed seams tallied operations: {stats}"
        )
    return {
        "disarmed_checks": checks,
        "tallied_operations": stats["seam_checks"],
        "nanoseconds_per_check": round(elapsed / checks * 1e9, 1),
    }


def bench_scenario_overhead(smoke: bool) -> dict:
    """Default plan vs ``on_error="partial"`` on a healthy scenario."""
    repeats = 2 if smoke else 5
    spec = get_scenario("sir-transient").with_overrides(
        name="bench-resilience-envelope",
        questions=[Question("envelope",
                            options={"n_times": 4 if smoke else 13})],
    )
    default_s, _ = best_of(lambda: run_scenario(spec, use_cache=False),
                          repeats)
    partial_s, _ = best_of(
        lambda: run_scenario(spec, use_cache=False, on_error="partial"),
        repeats)
    return {
        "default_seconds": round(default_s, 6),
        "partial_seconds": round(partial_s, 6),
        "overhead_ratio": round(partial_s / default_s, 4),
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (fewer shards/repeats, no "
                             "overhead-ceiling gate)")
    args = parser.parse_args(argv)

    summary = {
        "smoke": bool(args.smoke),
        "overhead_ceiling": OVERHEAD_CEILING,
        "shard_fanout": bench_shard_overhead(args.smoke),
        "disarmed_seams": bench_disarmed_seams(),
        "scenario_runner": bench_scenario_overhead(args.smoke),
        "recorded_unix": int(time.time()),
    }
    shard = summary["shard_fanout"]
    print(f"shard fan-out: default {shard['default_seconds']:.4f}s  "
          f"retrying {shard['retrying_seconds']:.4f}s  "
          f"ratio {shard['overhead_ratio']:.3f}")
    print(f"disarmed seams: {summary['disarmed_seams']['disarmed_checks']} "
          f"checks, {summary['disarmed_seams']['tallied_operations']} "
          f"tallied, "
          f"{summary['disarmed_seams']['nanoseconds_per_check']:.0f} ns "
          "each")
    scen = summary["scenario_runner"]
    print(f"scenario runner: default {scen['default_seconds']:.4f}s  "
          f"partial {scen['partial_seconds']:.4f}s  "
          f"ratio {scen['overhead_ratio']:.3f}")

    if not args.smoke and shard["overhead_ratio"] > OVERHEAD_CEILING:
        raise AssertionError(
            f"a no-fault retrying policy costs "
            f"{shard['overhead_ratio']:.3f}x the default "
            f"(ceiling {OVERHEAD_CEILING:.2f}x)"
        )

    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(summary, indent=1, sort_keys=True)
                          + "\n")
    record_timing("bench_resilience",
                  shard["default_seconds"] + shard["retrying_seconds"],
                  overhead_ratio=shard["overhead_ratio"])
    print(f"wrote {BENCH_PATH}")
    return summary


if __name__ == "__main__":
    main()
