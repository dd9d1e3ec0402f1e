"""Batch stochastic simulation with ensemble statistics.

Single SSA paths (Figure 6) show *where* the process lives; ensemble
statistics quantify it.  :func:`batch_simulate` runs many independent
replications of an imprecise chain under a policy factory and aggregates
them on a common time grid: means, standard deviations, quantile bands
and the final-state empirical cloud.  Used by the convergence studies
and by users estimating fluctuation bands around the mean-field bounds
(the CLT-scale ``O(1/sqrt(N))`` band of Theorem 2's ``eps_N``).

An ensemble of ``n_runs > 1`` replications delegates to
:func:`repro.engine.simulate_ensemble`, which steps the whole ensemble
as ``(n_runs, d)`` arrays.  A single run calls the scalar
:func:`~repro.simulation.simulate` kernel directly: with one row there
is nothing to amortise the batching overhead over.  The equivalence
tests compare the vectorized engine with a loop of :func:`simulate`
(replication ``r`` seeded ``seed + r``) through ensemble statistics —
the two consume randomness differently, so for a fixed seed they
produce different trajectories with the *same* law.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.population import FinitePopulation
from repro.simulation.ssa import SimulationResult, simulate

__all__ = ["BatchResult", "batch_simulate"]


def validate_ensemble_args(n_runs, t_final: float, t_start: float,
                           n_samples: int) -> int:
    """Shared up-front validation for the ensemble entry points.

    Used by both :func:`batch_simulate` and
    :func:`repro.engine.simulate_ensemble` so the two public surfaces
    cannot drift apart; returns the index-normalised ``n_runs``.
    """
    try:
        n_runs = operator.index(n_runs)
    except TypeError as exc:
        raise TypeError(
            f"n_runs must be an integer, got {type(n_runs).__name__}"
        ) from exc
    if n_runs < 1:
        raise ValueError(f"n_runs must be positive, got {n_runs}")
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
    population_size:
        The ``N`` of the simulated chains.
    n_events:
        Total model transitions executed across all runs (0 when the
        producing engine does not track them).
    n_policy_jumps:
        Total autonomous policy events across all runs.
    """

    times: np.ndarray
    states: np.ndarray
    population_size: int
    n_events: int = 0
    n_policy_jumps: int = 0

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


def batch_simulate(
    population: FinitePopulation,
    policy_factory: Callable,
    t_final: float,
    n_runs: int,
    seed: int = 0,
    n_samples: int = 200,
    t_start: float = 0.0,
) -> BatchResult:
    """Run ``n_runs`` independent replications and aggregate them.

    Parameters
    ----------
    policy_factory:
        Zero-argument callable producing a *fresh* policy per run
        (policies are stateful; sharing one instance across runs would
        leak mode state even though ``reset`` is called).
    seed:
        Seed of the single ``default_rng(seed)`` that drives every
        replication.

    All inputs are validated before any simulation work starts, so a
    bad call fails fast with a specific error instead of surfacing as a
    downstream crash mid-ensemble.
    """
    n_runs = validate_ensemble_args(n_runs, t_final, t_start, n_samples)
    if not callable(policy_factory):
        raise TypeError("policy_factory must be a zero-argument callable")

    if n_runs > 1:
        from repro.engine import simulate_ensemble

        return simulate_ensemble(
            population, policy_factory, t_final, n_runs=n_runs, seed=seed,
            n_samples=n_samples, t_start=t_start,
        )

    try:
        run: SimulationResult = simulate(
            population, policy_factory(), t_final,
            rng=np.random.default_rng(seed), n_samples=n_samples,
            t_start=t_start,
        )
    except Exception as exc:
        raise RuntimeError(
            f"batch_simulate: replication 0 (seed {seed}) failed: {exc}"
        ) from exc
    return BatchResult(
        times=run.times.copy(),
        states=run.states[None],
        population_size=population.population_size,
        n_events=run.n_events,
        n_policy_jumps=run.n_policy_jumps,
    )
