"""Empirical accuracy of the mean-field approximation.

Theorem 1 gives convergence in probability; the classical quantitative
companion (Kurtz; Benaïm & Le Boudec [5]) is that for a *precise* model
the sup-norm deviation between the scaled chain and its mean-field ODE
decays like ``O(1 / sqrt(N))``.  :func:`mean_field_accuracy` measures
that rate empirically: for a ladder of population sizes it runs
replicated SSAs against the ODE (or, for imprecise models, against the
matching witness solution under the same policy) and fits the log–log
slope of the mean sup-deviation.

Two uses:

- a *diagnostic* that a model is correctly scaled (a slope far from
  ``-1/2`` almost always means mis-scaled rates — the same bug class
  :func:`~repro.meanfield.verify_population_scaling` targets from the
  definition side);
- a quantitative justification for the fluctuation tolerance
  ``eps_N ~ c / sqrt(N)`` used by the Figure 6 inclusion measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.engine import simulate_ensemble
from repro.ode import solve_ode
from repro.simulation import ConstantPolicy

__all__ = ["AccuracyStudy", "mean_field_accuracy"]


@dataclass
class AccuracyStudy:
    """Sup-deviation statistics of the chain against its mean-field limit."""

    sizes: np.ndarray
    mean_deviation: List[float] = field(default_factory=list)
    max_deviation: List[float] = field(default_factory=list)
    n_replications: int = 0

    def fitted_rate(self) -> float:
        """Slope of ``log(mean deviation)`` against ``log(N)``.

        The Kurtz regime shows a slope close to ``-1/2``.
        """
        logs_n = np.log(self.sizes.astype(float))
        logs_d = np.log(np.maximum(np.asarray(self.mean_deviation), 1e-300))
        slope, _ = np.polyfit(logs_n, logs_d, 1)
        return float(slope)

    def deviation_constant(self) -> float:
        """The ``c`` in ``deviation ~ c / sqrt(N)`` (least squares)."""
        scaled = np.asarray(self.mean_deviation) * np.sqrt(
            self.sizes.astype(float)
        )
        return float(np.mean(scaled))


def mean_field_accuracy(
    model,
    theta,
    x0,
    t_final: float,
    sizes: Sequence[int] = (100, 400, 1600),
    n_replications: int = 8,
    seed: int = 0,
    n_samples: int = 60,
    reference: Optional[Callable] = None,
) -> AccuracyStudy:
    """Measure the SSA-to-mean-field deviation across population sizes.

    Parameters
    ----------
    model, theta:
        The population model and the (constant) parameter to freeze —
        this measures the *uncertain-scenario* accuracy, where the limit
        is the single ODE of Corollary 1.
    x0, t_final:
        Initial state and horizon of the comparison window.
    sizes:
        Population-size ladder (increasing).
    n_replications:
        Independent SSA runs per size; the reported deviation is the
        mean over replications of the sup-norm deviation along the path.
        The replications of each size run as one vectorized ensemble.
    reference:
        Optional precomputed reference trajectory callable ``t -> x``;
        defaults to integrating the mean-field ODE.
    """
    sizes = np.asarray(sorted(int(n) for n in sizes))
    if sizes.shape[0] < 2:
        raise ValueError("need at least two population sizes")
    if n_replications < 1:
        raise ValueError("n_replications must be positive")
    theta = np.asarray(theta, dtype=float)
    t_eval = np.linspace(0.0, float(t_final), n_samples)
    if reference is None:
        ode = solve_ode(model.vector_field(theta), x0, (0.0, float(t_final)),
                        t_eval=t_eval)
        reference_states = ode.states
    else:
        reference_states = np.stack([np.asarray(reference(t)) for t in t_eval])

    study = AccuracyStudy(sizes=sizes, n_replications=n_replications)
    policy = ConstantPolicy(theta)
    for k, n in enumerate(sizes):
        population = model.instantiate(int(n), x0)
        batch = simulate_ensemble(
            population, policy, float(t_final),
            n_runs=n_replications, seed=seed + 10_000 * k,
            n_samples=n_samples,
        )
        # Per-run sup-norm deviation along the path, shape (n_replications,).
        deviations = np.max(
            np.abs(batch.states - reference_states[None, :, :]), axis=(1, 2)
        )
        study.mean_deviation.append(float(np.mean(deviations)))
        study.max_deviation.append(float(np.max(deviations)))
    return study
