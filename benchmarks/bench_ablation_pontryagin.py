"""Ablation — Pontryagin sweep design choices.

Three studies on the SIR ``max x_I(3)`` problem of Figure 2:

1. *Optimal vs myopic*: the greedy selection that maximises the drift of
   the objective pointwise (an obvious cheap alternative) versus the
   forward–backward sweep.  The paper's whole point is that the optimum
   is non-myopic — the maximising control starts at ``theta_min``.
2. *Grid resolution*: the bound's sensitivity to the number of RK4/control
   intervals.
3. *Warm start*: horizon continuation versus the cold starts every lane
   of :func:`pontryagin_transient_bounds` uses.
"""

import numpy as np

from _common import run_once, save_experiment
from repro.bounds import extremal_trajectory
from repro.inclusion import ParametricInclusion
from repro.models import make_sir_model
from repro.reporting import ExperimentResult

MODEL = make_sir_model()
X0 = np.array([0.7, 0.3])
HORIZON = 3.0
DIRECTION = np.array([0.0, 1.0])


def _resample_controls(old_grid, old_controls, new_grid):
    """Carry a piecewise-constant control onto a new grid (midpoint lookup)."""
    mids = 0.5 * (new_grid[:-1] + new_grid[1:])
    index = np.searchsorted(old_grid, mids, side="right") - 1
    return old_controls[np.clip(index, 0, old_controls.shape[0] - 1)]


def compute_ablation() -> ExperimentResult:
    result = ExperimentResult(
        "ablation_pontryagin",
        "Pontryagin sweep ablations on the SIR max x_I(3) problem",
        parameters={"T": HORIZON},
    )

    # 1. optimal vs myopic greedy selection.
    optimal = extremal_trajectory(MODEL, X0, HORIZON, DIRECTION, n_steps=400)
    inclusion = ParametricInclusion(MODEL)
    greedy = inclusion.extreme_velocity_solution(DIRECTION, X0,
                                                 (0.0, HORIZON))
    result.add_finding("optimal_value", optimal.value)
    result.add_finding("greedy_value", float(greedy.final_state[1]))
    result.add_finding("greedy_shortfall",
                       optimal.value - float(greedy.final_state[1]))

    # 2. grid resolution sensitivity.
    for n_steps in (50, 100, 200, 400, 800):
        res = extremal_trajectory(MODEL, X0, HORIZON, DIRECTION,
                                  n_steps=n_steps)
        result.add_finding(f"value_nsteps_{n_steps}", res.value)
    coarse = result.findings["value_nsteps_50"]
    fine = result.findings["value_nsteps_800"]
    result.add_finding("grid_sensitivity", abs(fine - coarse))

    # 3. warm start vs cold start over a horizon ladder: same bounds,
    # measured iteration counts (the relaxation schedule restarts per
    # horizon, so warm starting is about robustness, not fewer sweeps).
    horizons = np.linspace(0.5, HORIZON, 6)
    cold_iters = 0
    cold_values = []
    for horizon in horizons:
        res = extremal_trajectory(MODEL, X0, float(horizon), DIRECTION,
                                  n_steps=200)
        cold_iters += res.iterations
        cold_values.append(res.value)
    warm_iters = 0
    warm_values = []
    warm = None
    for horizon in horizons:
        initial = None
        if warm is not None:
            initial = _resample_controls(
                warm[0], warm[1], np.linspace(0.0, float(horizon), 201)
            )
        res = extremal_trajectory(MODEL, X0, float(horizon), DIRECTION,
                                  n_steps=200, initial_controls=initial)
        warm = (res.times, res.controls)
        warm_iters += res.iterations
        warm_values.append(res.value)
    result.add_finding("cold_start_iterations", float(cold_iters))
    result.add_finding("warm_start_iterations", float(warm_iters))
    result.add_finding(
        "warm_cold_value_deviation",
        float(np.max(np.abs(np.asarray(cold_values) - np.asarray(warm_values)))),
    )
    result.add_note(
        "myopic greedy is suboptimal (the optimal control starts at "
        "theta_min); warm and cold starts agree on the bounds"
    )
    return result


def bench_ablation_pontryagin(benchmark):
    result = run_once(benchmark, compute_ablation)
    save_experiment(result)
    assert result.findings["greedy_shortfall"] > 0.01
    assert result.findings["grid_sensitivity"] < 5e-3
    assert result.findings["warm_cold_value_deviation"] < 1e-3
