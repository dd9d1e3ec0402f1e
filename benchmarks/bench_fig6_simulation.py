"""Figure 6 — SSA sample paths vs the Birkhoff centre.

Regenerates the stochastic-simulation experiment of Section V-E: the SIR
chain is simulated at ``N in {100, 1000, 10000}`` under the two
parameter policies of the paper —

- ``theta_1``: hysteresis switching on ``X_S`` (to ``theta_min`` when
  ``X_S < 0.5``, back to ``theta_max`` when ``X_S > 0.85``);
- ``theta_2``: re-draw ``theta`` uniformly at rate ``5 X_I``;

and the stationary part of each path is compared with the Birkhoff
centre of the mean-field inclusion.  Each (policy, size) cell runs a
small ensemble of independent chains on the vectorized engine
(:mod:`repro.engine`) and pools their stationary samples.

Paper-expected shape: for ``N >= 1000`` the stationary behaviour
essentially remains inside the Birkhoff centre, for both policies, and
the inclusion tightens as ``N`` grows.
"""

import numpy as np

from _common import run_once, save_experiment
from repro.analysis import convergence_study
from repro.models import make_sir_model
from repro.reporting import ExperimentResult
from repro.simulation import HysteresisPolicy, RandomJumpPolicy
from repro.steadystate import birkhoff_centre_2d

SIZES = (100, 1000, 10000)
T_FINAL = 80.0
BURN_IN = 30.0
N_RUNS = 2  # independent chains per (policy, size) cell, pooled


def compute_fig6() -> ExperimentResult:
    model = make_sir_model()
    result = ExperimentResult(
        "fig6",
        "SIR: stationary SSA samples vs Birkhoff centre "
        "(policies theta_1, theta_2; N in {100, 1000, 10000})",
        parameters={
            "sizes": SIZES, "t_final": T_FINAL, "burn_in": BURN_IN,
            "epsilon": "3/sqrt(N)", "n_runs": N_RUNS,
        },
    )
    region = birkhoff_centre_2d(model, x0_guess=[0.7, 0.05])
    result.add_finding("region_area", region.polygon.area)

    policies = {
        "theta1": HysteresisPolicy(
            [1.0], [10.0], coordinate=0,
            low_threshold=0.5, high_threshold=0.85,
        ),
        "theta2": RandomJumpPolicy(
            model.theta_set, rate_fn=lambda t, x: 5.0 * x[1],
        ),
    }
    study = convergence_study(
        model, region, policies, SIZES, x0=[0.7, 0.3],
        t_final=T_FINAL, burn_in=BURN_IN, seed=2016, n_samples=1500,
        n_runs=N_RUNS,
    )
    for name in policies:
        fracs = study.fractions(name)
        result.add_series(
            f"{name}_inside_fraction", np.asarray(SIZES, dtype=float),
            np.asarray(fracs),
        )
        for n, frac in zip(SIZES, fracs):
            result.add_finding(f"{name}_inside_N{n}", frac)
        by_size = study.stats[name]
        for n in SIZES:
            result.add_finding(
                f"{name}_meandist_N{n}", by_size[n].mean_distance
            )
    result.add_note(
        "paper: for N >= 1000 the stationary behaviour essentially remains "
        "inside the Birkhoff centre for both policies; inclusion tightens "
        "with N"
    )
    return result


def bench_fig6_simulation(benchmark):
    result = run_once(benchmark, compute_fig6)
    save_experiment(result)
    for name in ("theta1", "theta2"):
        assert result.findings[f"{name}_inside_N1000"] > 0.9
        assert result.findings[f"{name}_inside_N10000"] > 0.95
        # Mean distance to the region shrinks with N.
        assert (result.findings[f"{name}_meandist_N10000"]
                <= result.findings[f"{name}_meandist_N100"] + 1e-6)
