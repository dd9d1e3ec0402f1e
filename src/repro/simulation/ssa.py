"""Single SSA trajectories of imprecise chains.

The simulated object is the finite-``N`` lattice chain of
:class:`~repro.population.FinitePopulation`, raced against the
autonomous events of a :class:`~repro.simulation.ControlPolicy`.
:func:`simulate` is a one-row view of the library's one direct-method
kernel, :func:`repro.engine.simulate_ensemble`; its module documents
the scheme and why it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.population import FinitePopulation
from repro.simulation.policies import ControlPolicy

__all__ = ["SimulationResult", "simulate"]


@dataclass
class SimulationResult:
    """A sampled trajectory of the finite-``N`` imprecise chain.

    Attributes
    ----------
    times:
        The output sampling grid, shape ``(n,)``.
    states:
        Normalised (density) state at each grid time, shape ``(n, d)``.
    thetas:
        The policy parameter in force at each grid time, ``(n, p)``.
    n_events:
        Total number of model transitions executed.
    n_policy_jumps:
        Total number of autonomous policy events executed.
    population_size:
        The ``N`` of the simulated chain.
    """

    times: np.ndarray
    states: np.ndarray
    thetas: np.ndarray
    n_events: int
    n_policy_jumps: int
    population_size: int

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1].copy()

    def after(self, t_burn_in: float) -> "SimulationResult":
        """Drop the samples before ``t_burn_in`` (steady-state windows)."""
        mask = self.times >= t_burn_in
        if not mask.any():
            raise ValueError(f"no samples at or after t={t_burn_in}")
        return SimulationResult(
            times=self.times[mask],
            states=self.states[mask],
            thetas=self.thetas[mask],
            n_events=self.n_events,
            n_policy_jumps=self.n_policy_jumps,
            population_size=self.population_size,
        )

    def observable(self, weights) -> np.ndarray:
        """Time series of a linear observable along the run."""
        return self.states @ np.asarray(weights, dtype=float)


def simulate(
    population: FinitePopulation,
    policy: ControlPolicy,
    t_final: float,
    rng: Optional[np.random.Generator] = None,
    n_samples: int = 1000,
    t_start: float = 0.0,
    max_events: int = 50_000_000,
) -> SimulationResult:
    """Run one exact SSA trajectory up to ``t_final``.

    A one-row view of :func:`repro.engine.simulate_ensemble`: the
    trajectory is row 0 of a one-run ensemble driven by ``rng``.

    Parameters
    ----------
    population:
        The instantiated finite-``N`` chain.
    policy:
        The environmental parameter signal (one admissible ``theta_t``);
        must be a :class:`~repro.simulation.ControlPolicy` instance.
    t_final:
        Simulation horizon.
    rng:
        Numpy generator; when omitted a *deterministically seeded*
        generator is used, so two argument-less calls replay the same
        trajectory (pass your own generator for independent runs).
    n_samples:
        Number of equally spaced output samples on ``[t_start, t_final]``.
    max_events:
        Safety cap on the total number of executed events.
    """
    from repro.engine import simulate_ensemble

    batch = simulate_ensemble(
        population, policy, t_final, n_runs=1, rng=rng,
        n_samples=n_samples, t_start=t_start, max_events=max_events,
    )
    return SimulationResult(
        times=batch.times,
        states=batch.states[0],
        thetas=batch.thetas[0],
        n_events=batch.n_events,
        n_policy_jumps=batch.n_policy_jumps,
        population_size=batch.population_size,
    )
