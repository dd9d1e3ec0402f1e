"""Ablation — extremiser strategies (the affine fast path).

Compares the three Hamiltonian-maximisation strategies on the SIR model:
the closed-form bang-bang rule for affine-in-theta drifts, corner
enumeration, and grid search.  All three must agree on the support
function for affine models; the ablation measures what the closed form
buys in runtime (it is the inner loop of every Pontryagin sweep).
"""

import numpy as np

from _common import save_experiment
from repro.inclusion import DriftExtremizer
from repro.models import make_sir_model
from repro.reporting import ExperimentResult

MODEL = make_sir_model()
RNG = np.random.default_rng(99)
POINTS = [(RNG.uniform(0, 1, size=2), RNG.normal(size=2)) for _ in range(50)]


def _sweep(extremizer):
    total = 0.0
    for x, p in POINTS:
        total += extremizer.maximize_direction(x, p)[1]
    return total


def bench_ablation_extremizer_affine(benchmark):
    ext = DriftExtremizer(MODEL, method="affine")
    value = benchmark(_sweep, ext)
    assert np.isfinite(value)


def bench_ablation_extremizer_corners(benchmark):
    ext = DriftExtremizer(MODEL, method="corners")
    value = benchmark(_sweep, ext)
    # Corners are exact for affine models: same support values.
    assert value == benchmark.extra_info.setdefault("value", value)


def bench_ablation_extremizer_grid(benchmark):
    ext = DriftExtremizer(MODEL, method="grid", grid_resolution=21)
    value = benchmark(_sweep, ext)
    assert np.isfinite(value)


def bench_ablation_extremizer_agreement(benchmark):
    """Archive the agreement check across strategies."""

    def check():
        result = ExperimentResult(
            "ablation_extremizer",
            "Extremiser strategies agree on affine models",
            parameters={"points": len(POINTS)},
        )
        affine = _sweep(DriftExtremizer(MODEL, method="affine"))
        corners = _sweep(DriftExtremizer(MODEL, method="corners"))
        grid = _sweep(DriftExtremizer(MODEL, method="grid",
                                      grid_resolution=21))
        result.add_finding("sum_support_affine", affine)
        result.add_finding("sum_support_corners", corners)
        result.add_finding("sum_support_grid", grid)
        result.add_finding("max_abs_deviation",
                           max(abs(affine - corners), abs(affine - grid)))
        return result

    result = benchmark.pedantic(check, rounds=1, iterations=1)
    save_experiment(result)
    assert result.findings["max_abs_deviation"] < 1e-9
