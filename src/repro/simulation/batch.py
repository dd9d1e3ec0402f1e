"""Ensemble statistics of batch stochastic simulation.

Single SSA paths (Figure 6) show *where* the process lives; ensemble
statistics quantify it.  :func:`repro.engine.simulate_ensemble` runs
many independent replications of an imprecise chain under one policy,
stepping the whole ensemble as ``(n_runs, d)`` arrays, and returns a
:class:`BatchResult` that aggregates them on a common time grid: means,
standard deviations, quantile bands and the final-state empirical
cloud.  Used by the convergence studies and by users estimating
fluctuation bands around the mean-field bounds (the CLT-scale
``O(1/sqrt(N))`` band of Theorem 2's ``eps_N``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.simulation.policies import ControlPolicy

__all__ = ["BatchResult"]


def validate_ensemble_args(policy, n_runs, t_final: float,
                           t_start: float, n_samples: int) -> int:
    """Up-front validation of every SSA call.

    :func:`repro.engine.simulate_ensemble` runs it before the policy is
    reset, so :func:`~repro.simulation.simulate` and the parameter
    sweeps fail the same way; returns the index-normalised ``n_runs``.
    """
    if not isinstance(policy, ControlPolicy):
        raise TypeError(
            f"policy must be a ControlPolicy instance, got "
            f"{type(policy).__name__}"
        )
    try:
        n_runs = operator.index(n_runs)
    except TypeError as exc:
        raise TypeError(
            f"n_runs must be an integer, got {type(n_runs).__name__}"
        ) from exc
    if n_runs < 1:
        raise ValueError(f"n_runs must be positive, got {n_runs}")
    if not (np.isfinite(t_start) and np.isfinite(t_final)):
        raise ValueError(
            f"t_start and t_final must be finite, got t_start={t_start}, "
            f"t_final={t_final}"
        )
    if t_final <= t_start:
        raise ValueError("t_final must exceed t_start")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    return n_runs


@dataclass
class BatchResult:
    """Ensemble statistics of independent SSA replications.

    Attributes
    ----------
    times:
        Common sampling grid, shape ``(n,)``.
    states:
        All sampled paths, shape ``(n_runs, n, d)``.
    thetas:
        The policy parameter in force at each grid time of each run,
        shape ``(n_runs, n, p)``.
    population_size:
        The ``N`` of the simulated chains.
    n_events:
        Total model transitions executed across all runs.
    n_policy_jumps:
        Total autonomous policy events across all runs.
    """

    times: np.ndarray
    states: np.ndarray
    thetas: np.ndarray
    population_size: int
    n_events: int
    n_policy_jumps: int

    @property
    def n_runs(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def mean(self) -> np.ndarray:
        """Ensemble mean path, shape ``(n, d)``."""
        return self.states.mean(axis=0)

    def std(self) -> np.ndarray:
        """Ensemble standard deviation path, shape ``(n, d)``."""
        return self.states.std(axis=0, ddof=1 if self.n_runs > 1 else 0)

    def quantile_band(self, lower: float = 0.05,
                      upper: float = 0.95) -> tuple:
        """Pointwise quantile band ``(q_lower, q_upper)``, each ``(n, d)``."""
        if not 0.0 <= lower < upper <= 1.0:
            raise ValueError("need 0 <= lower < upper <= 1")
        return (
            np.quantile(self.states, lower, axis=0),
            np.quantile(self.states, upper, axis=0),
        )

    def final_states(self) -> np.ndarray:
        """Final state of each replication, shape ``(n_runs, d)``."""
        return self.states[:, -1, :].copy()

    def observable(self, weights) -> np.ndarray:
        """Observable paths ``w . x``, shape ``(n_runs, n)``."""
        return self.states @ np.asarray(weights, dtype=float)

    def fraction_satisfying(self, predicate: Callable[[np.ndarray], bool],
                            at_index: int = -1) -> float:
        """Fraction of replications whose state at ``at_index`` satisfies
        ``predicate`` (e.g. threshold exceedance probabilities)."""
        hits = sum(
            bool(predicate(self.states[r, at_index]))
            for r in range(self.n_runs)
        )
        return hits / self.n_runs
