"""Finite-``N`` instantiation of a population model.

:class:`FinitePopulation` is the concrete member of the sequence
``(X^N)_N`` of Definition 4: a CTMC on the lattice ``{0, 1/N, ...}^d``
whose event ``e`` fires at aggregate rate ``N * rate_e(x, theta)`` and
jumps the normalised state by ``change_e / N``.  It is what the
stochastic simulator (:mod:`repro.simulation`) runs and what the exact
CTMC solvers (:mod:`repro.ctmc`) enumerate when the reachable lattice is
small enough.
"""

from __future__ import annotations

import operator
from typing import Optional

import numpy as np

__all__ = ["FinitePopulation"]


class FinitePopulation:
    """A population model instantiated at a concrete population size ``N``."""

    def __init__(self, model, population_size: int, initial_density):
        # operator.index rejects a fractional N instead of truncating it.
        population_size = operator.index(population_size)
        if population_size < 1:
            raise ValueError("population size must be a positive integer")
        self.model = model
        self.population_size = population_size
        x0 = np.asarray(initial_density, dtype=float)
        if x0.shape != (model.dim,):
            raise ValueError(
                f"initial density has shape {x0.shape}, expected ({model.dim},)"
            )
        # Snap the initial density to the N-lattice so all reachable states
        # are exact lattice points (avoids floating-point state drift).
        self.initial_counts = np.rint(x0 * self.population_size).astype(np.int64)
        if np.any(self.initial_counts < 0):
            raise ValueError("initial density has negative coordinates")
        self._change_matrix: Optional[np.ndarray] = None  # built lazily

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def initial_density(self) -> np.ndarray:
        """The lattice-snapped normalised initial state."""
        return self.initial_counts / self.population_size

    def density(self, counts) -> np.ndarray:
        """Convert an integer count vector to normalised densities."""
        return np.asarray(counts, dtype=float) / self.population_size

    def aggregate_rates(self, counts, theta) -> np.ndarray:
        """Aggregate (un-normalised) rates of every transition at ``counts``.

        The rate of event ``e`` is ``N * rate_e(counts / N, theta)``, and
        events that would push any count outside ``[0, N]`` are disabled
        (their rate is forced to zero).  The disabling matches the paper's
        population models, whose rate functions vanish on the boundary —
        e.g. the bike-sharing arrival rate applies "if X_B(t) > 0" — and
        protects against rate functions that are only *approximately* zero
        at the boundary under floating point.
        """
        counts = np.asarray(counts, dtype=np.int64)
        x = self.density(counts)
        rates = self.population_size * self.model.transition_rates(x, theta)
        for e, tr in enumerate(self.model.transitions):
            new_counts = counts + tr.change.astype(np.int64)
            if np.any(new_counts < 0) or np.any(new_counts > self.population_size):
                rates[e] = 0.0
        return rates

    @property
    def change_matrix(self) -> np.ndarray:
        """Stacked integer jump vectors, shape ``(n_transitions, d)``.

        Row ``e`` is the count-space jump of transition ``e``; the
        vectorized engine applies a whole batch of selected events with
        one fancy-indexed addition.
        """
        if self._change_matrix is None:
            self._change_matrix = np.stack(
                [tr.change.astype(np.int64) for tr in self.model.transitions]
            )
        return self._change_matrix

    def aggregate_rates_batch(self, counts, thetas) -> np.ndarray:
        """Aggregate rates of every transition for a batch of count vectors.

        Parameters
        ----------
        counts:
            Integer count vectors, shape ``(n, d)``.
        thetas:
            Parameter vectors, shape ``(n, p)`` (one per row).

        Returns
        -------
        Aggregate rates ``N * rate_e(counts / N, theta)`` of shape
        ``(n, n_transitions)``, with boundary-leaving events disabled
        per row exactly as in :meth:`aggregate_rates`.
        """
        counts = np.atleast_2d(np.asarray(counts, dtype=np.int64))
        x = counts / self.population_size
        rates = self.population_size * self.model.transition_rates_batch(
            x, thetas
        )
        # One (n, E, d) broadcast masks every row/event pair at once —
        # this sits in the engine's per-step hot path, where a Python
        # loop over E transitions would dominate for deep models.
        new_counts = counts[:, None, :] + self.change_matrix[None, :, :]
        bad = (
            (new_counts < 0) | (new_counts > self.population_size)
        ).any(axis=2)
        rates[bad] = 0.0
        return rates

    def uniformization_constant(self, theta_corners=None) -> float:
        """An upper bound on the total exit rate over the lattice.

        Scans the parameter corners and a coarse grid of lattice states
        for the largest total aggregate rate, then pads by 10%.  Used by
        uniformization-based exact solvers; condition (i) of Definition 4
        (uniformizability) guarantees this is finite.
        """
        if theta_corners is None:
            theta_corners = self.model.theta_set.corners()
        best = 0.0
        probe_axis = np.linspace(0.0, 1.0, 5)
        lower = self.model.state_lower
        upper = self.model.state_upper
        if lower is None:
            lower = np.zeros(self.dim)
            upper = np.ones(self.dim)
        for theta in theta_corners:
            for frac in probe_axis:
                x = lower + frac * (upper - lower)
                total = self.population_size * self.model.total_exit_rate(x, theta)
                best = max(best, total)
        return 1.1 * best + 1e-9

    def __repr__(self) -> str:
        return (
            f"FinitePopulation({self.model.name!r}, N={self.population_size}, "
            f"x0={self.initial_density.tolist()})"
        )
