"""Ablation — bound tightness vs parameter-interval width.

The quantitative version of the Figure 4/5 accuracy discussion: sweep
``theta_max`` and record, for the infected coordinate at ``T = 6``, the
bound widths of the three methods (uncertain sweep, Pontryagin,
differential hull).  The hull/Pontryagin looseness ratio must grow
super-linearly in the interval width, ending in divergence.
"""

import numpy as np

from _common import run_once, save_experiment
from repro.analysis import interval_width_sensitivity
from repro.models import make_sir_model
from repro.reporting import ExperimentResult

WIDTHS = [0.5, 1.0, 2.0, 4.0, 5.0]  # theta_max = 1 + width


def compute_sensitivity() -> ExperimentResult:
    result = ExperimentResult(
        "ablation_hull_width",
        "Bound widths (infected, T = 6) vs the width of the theta interval",
        parameters={"theta_min": 1.0, "theta_max": [1 + w for w in WIDTHS],
                    "horizon": 6.0},
    )
    study = interval_width_sensitivity(
        lambda w: make_sir_model(theta_max=1.0 + w),
        widths=WIDTHS,
        x0=[0.7, 0.3],
        horizon=6.0,
        observable_index=1,
        n_steps=150,
        sweep_resolution=9,
    )
    widths = np.asarray(WIDTHS, dtype=float)
    result.add_series("width_uncertain", widths, np.asarray(study.uncertain))
    result.add_series("width_pontryagin", widths, np.asarray(study.pontryagin))
    hull = np.asarray(study.hull)
    result.add_series("width_hull", widths,
                      np.where(np.isfinite(hull), hull, -1.0))
    for w, trivial in zip(WIDTHS, study.hull_trivial):
        result.add_finding(f"hull_trivial_width_{w:g}", float(trivial))
    ratios = study.hull_over_pontryagin()
    finite = np.isfinite(ratios)
    result.add_finding("min_looseness_ratio", float(np.min(ratios[finite])))
    result.add_finding("max_finite_looseness_ratio",
                       float(np.max(ratios[finite])))
    result.add_finding("superlinear_degradation",
                       float(study.degradation_is_superlinear()))
    result.add_note(
        "uncertain <= pontryagin <= hull at every width; the hull ratio "
        "explodes and the hull turns trivial at the top of the ladder "
        "(paper Figures 4-5)"
    )
    return result


def bench_ablation_hull_width(benchmark):
    result = run_once(benchmark, compute_sensitivity)
    save_experiment(result)
    assert bool(result.findings["superlinear_degradation"])
    assert result.findings["min_looseness_ratio"] >= 1.0 - 1e-6
