"""Explicit finite imprecise CTMCs.

:class:`ImpreciseCTMC` materialises the chain of Definition 1 for an
enumerable population: its states and generator matrices ``Q(theta)``.
The affine-in-theta decomposition ``Q(theta) = Q_0 + sum_k theta_k Q_k``
is extracted automatically when the underlying rate functions are affine
in ``theta`` (verified by residual check), which is what the imprecise
Kolmogorov machinery in :mod:`repro.ctmc.kolmogorov` and the interval
DTMC of :mod:`repro.ctmc.interval_dtmc` build on.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro.ctmc.enumeration import enumerate_lattice
from repro.population import FinitePopulation

__all__ = ["ImpreciseCTMC"]


class ImpreciseCTMC:
    """A finite imprecise CTMC built from an enumerable population chain.

    Parameters
    ----------
    population:
        The finite-``N`` instantiation to enumerate.
    max_states:
        Enumeration cap (exact methods scale as ``O(n_states^2)`` at
        worst; keep it modest).
    """

    def __init__(self, population: FinitePopulation, max_states: int = 50_000):
        self.population = population
        self.model = population.model
        self.states, self.index = enumerate_lattice(population, max_states=max_states)
        self._affine_cache: Optional[Tuple[sparse.csr_matrix, list]] = None

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    @property
    def initial_distribution(self) -> np.ndarray:
        """Point mass on the initial state."""
        p0 = np.zeros(self.n_states)
        p0[0] = 1.0
        return p0

    def densities(self) -> np.ndarray:
        """Normalised states, shape ``(n_states, d)``."""
        return self.states / self.population.population_size

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------

    @cached_property
    def _successors(self) -> np.ndarray:
        """``(n, K)`` table: entry ``(i, e)`` is the row transition ``e``
        reaches from state ``i``, or ``-1`` where the jump leaves
        ``[0, N]``."""
        cap = self.population.population_size
        jumps = self.states[:, None, :] + self.population.change_matrix
        inside = np.all((jumps >= 0) & (jumps <= cap), axis=2)
        table = np.full(inside.shape, -1, dtype=np.intp)
        table[inside] = [self.index[tuple(key)]
                         for key in jumps[inside].tolist()]
        return table

    def generator(self, theta) -> sparse.csr_matrix:
        """The generator ``Q(theta)`` (rows sum to zero), CSR sparse.

        One :meth:`~repro.population.FinitePopulation.aggregate_rates_batch`
        call rates every (state, transition) pair; the entries with a
        positive rate and a successor inside the lattice (the cached
        successor table) are emitted in (state, transition) row-major
        order, followed by the diagonal, which subtracts each
        transition's live rates one transition at a time.  That is the
        entry order and the summation order of a per-state loop, so the
        CSR arrays are exactly the ones such a loop builds.  Raises
        ``ValueError`` unless ``theta`` is a finite vector of shape
        ``(p,)``.
        """
        theta = np.asarray(theta, dtype=float)
        p = self.model.theta_dim
        if theta.shape != (p,) or not np.all(np.isfinite(theta)):
            raise ValueError(
                f"theta must be a finite vector of shape ({p},), got {theta!r}"
            )
        n = self.n_states
        rates = self.population.aggregate_rates_batch(
            self.states, np.tile(theta, (n, 1))
        )
        live = (rates > 0.0) & (self._successors >= 0)
        rows, events = np.nonzero(live)
        diagonal = np.zeros(n)
        for e in range(rates.shape[1]):
            np.subtract(diagonal, rates[:, e], out=diagonal, where=live[:, e])
        diag_index = np.arange(n)
        return sparse.csr_matrix(
            (np.concatenate([rates[rows, events], diagonal]),
             (np.concatenate([rows, diag_index]),
              np.concatenate([self._successors[rows, events], diag_index]))),
            shape=(n, n),
        )

    def affine_generator_parts(self, tol: float = 1e-8):
        """Decompose ``Q(theta) = Q_0 + sum_k theta_k Q_k`` (verified).

        Built by evaluating the generator at the centre and unit
        perturbations; a residual check at a random interior ``theta``
        guards against non-affine rate functions (``ValueError``).
        """
        if self._affine_cache is not None:
            return self._affine_cache
        theta_set = self.model.theta_set
        p = theta_set.dim
        center = theta_set.center()
        q_center = self.generator(center)
        parts = []
        for k in range(p):
            step = 1.0
            theta_plus = center.copy()
            theta_plus[k] += step
            # Generators are affine in each theta coordinate when rates
            # are; the slope is exact from a single finite difference.
            q_plus = self.generator(theta_plus)
            parts.append((q_plus - q_center) / step)
        q0 = q_center.copy()
        for k in range(p):
            q0 = q0 - parts[k] * center[k]
        # Verification at a random interior parameter.
        rng = np.random.default_rng(7)
        theta_probe = theta_set.sample(rng, 1)[0]
        reconstructed = q0.copy()
        for k in range(p):
            reconstructed = reconstructed + parts[k] * theta_probe[k]
        residual = abs(self.generator(theta_probe) - reconstructed).max()
        if residual > tol:
            raise ValueError(
                "generator is not affine in theta "
                f"(residual {residual:.2e}); the imprecise Kolmogorov "
                "bounds require affine rates or a grid extremiser"
            )
        self._affine_cache = (q0, parts)
        return self._affine_cache

    def __repr__(self) -> str:
        return (
            f"ImpreciseCTMC({self.model.name!r}, N="
            f"{self.population.population_size}, states={self.n_states})"
        )
