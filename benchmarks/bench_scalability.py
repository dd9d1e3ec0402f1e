"""Extension — scalability in the state dimension (bounds + ensembles).

The paper closes with "we will … test the approach on larger models, to
properly understand its scalability".  This bench does that on the
power-of-two-choices load balancer, whose buffer truncation ``K`` sets
the state dimension, along both analysis axes:

- *bound machinery*: the imprecise upper bound on the mean queue length
  at ``T = 3`` for ``K in {5, 10, 20, 40}``, with wall time and sweep
  iterations;
- *simulation machinery*: a vectorized SSA ensemble
  (:func:`repro.engine.simulate_ensemble`) of the same model per depth,
  with wall time and event throughput — the batched rate evaluation
  touches ``2K`` transitions per step, so this probes how the engine
  scales with the transition count.

Expected: bound cost grows roughly linearly in ``K`` (the sweep is
``O(K)`` per step through the analytic Jacobian and the affine
Hamiltonian maximiser), the bound converges as ``K`` grows (deep buffer
levels are exponentially empty), and ensemble throughput degrades
gracefully (not worse than ~linearly in ``K``).
"""

import numpy as np

from _common import run_once, save_experiment, timed
from repro.bounds import extremal_trajectory
from repro.engine import simulate_ensemble
from repro.models import make_power_of_d_model
from repro.reporting import ExperimentResult
from repro.simulation import ConstantPolicy

DEPTHS = (5, 10, 20, 40)
HORIZON = 3.0
ENSEMBLE_POPULATION = 1000
ENSEMBLE_RUNS = 50
ENSEMBLE_HORIZON = 2.0


def compute_scalability() -> ExperimentResult:
    result = ExperimentResult(
        "scalability",
        "Pontryagin bound cost vs state dimension "
        "(power-of-two-choices, max mean queue length at T = 3)",
        parameters={"depths": DEPTHS, "T": HORIZON,
                    "arrival_bounds": (0.7, 0.95)},
    )
    values, times = [], []
    for depth in DEPTHS:
        model = make_power_of_d_model(buffer_depth=depth)
        x0 = np.zeros(depth)
        x0[0] = 0.5  # half the servers busy, no deeper backlog
        weights = model.observables["mean_queue_length"]
        res, elapsed = timed(extremal_trajectory, model, x0, HORIZON,
                             weights, n_steps=150)
        values.append(res.value)
        times.append(elapsed)
        result.add_finding(f"bound_K{depth}", res.value)
        result.add_finding(f"seconds_K{depth}", elapsed)
        result.add_finding(f"iterations_K{depth}", float(res.iterations))
    result.add_series("bound_vs_K", np.asarray(DEPTHS, float),
                      np.asarray(values))
    result.add_series("seconds_vs_K", np.asarray(DEPTHS, float),
                      np.asarray(times))

    # Vectorized-ensemble scalability along the same depth ladder.
    throughputs = []
    for depth in DEPTHS:
        model = make_power_of_d_model(buffer_depth=depth)
        x0 = np.zeros(depth)
        x0[0] = 0.5
        population = model.instantiate(ENSEMBLE_POPULATION, x0)
        batch, seconds = timed(
            simulate_ensemble, population, ConstantPolicy([0.9]),
            ENSEMBLE_HORIZON, n_runs=ENSEMBLE_RUNS, seed=7,
            n_samples=40,
        )
        events_per_second = batch.n_events / max(seconds, 1e-9)
        throughputs.append(events_per_second)
        result.add_finding(f"engine_seconds_K{depth}", seconds)
        result.add_finding(f"engine_events_per_sec_K{depth}",
                           events_per_second)
    result.add_series("engine_throughput_vs_K", np.asarray(DEPTHS, float),
                      np.asarray(throughputs))
    result.add_finding("bound_truncation_drift",
                       abs(values[-1] - values[-2]))
    result.add_note(
        "bound converges in the truncation depth; cost grows polynomially "
        "(per-sweep work is O(K) rate evaluations + O(K^2) Jacobian); "
        f"ensemble throughput at N={ENSEMBLE_POPULATION}, "
        f"{ENSEMBLE_RUNS} runs"
    )
    return result


def bench_scalability(benchmark):
    result = run_once(benchmark, compute_scalability)
    save_experiment(result)
    # Truncation-converged bound.
    assert result.findings["bound_truncation_drift"] < 1e-3
    # Sane growth: 8x dimension should not cost more than ~100x time.
    assert (result.findings["seconds_K40"]
            < 100.0 * max(result.findings["seconds_K5"], 1e-3))
    # Engine throughput degrades gracefully with the transition count:
    # 8x more transitions should not cost more than ~30x throughput.
    assert (result.findings["engine_events_per_sec_K40"]
            > result.findings["engine_events_per_sec_K5"] / 30.0)


if __name__ == "__main__":
    save_experiment(compute_scalability())
