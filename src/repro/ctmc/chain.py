"""Explicit finite imprecise CTMCs.

:class:`ImpreciseCTMC` materialises the chain of Definition 1 for an
enumerable population: generator matrices ``Q(theta)``, transient
distributions (uniformization and matrix-exponential solvers) and
stationary distributions.  The affine-in-theta decomposition
``Q(theta) = Q_0 + sum_k theta_k Q_k`` is extracted automatically when
the underlying rate functions are affine in ``theta`` (verified by
residual check), which is what the imprecise Kolmogorov machinery in
:mod:`repro.ctmc.kolmogorov` builds on.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

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

    def state_row(self, counts) -> int:
        """Row index of a count vector."""
        key = tuple(int(v) for v in counts)
        if key not in self.index:
            raise KeyError(f"state {key} is not reachable")
        return self.index[key]

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

    # ------------------------------------------------------------------
    # Transient analysis (precise theta)
    # ------------------------------------------------------------------

    def transient_distribution(self, theta, t: float,
                               p0: Optional[np.ndarray] = None,
                               method: str = "expm") -> np.ndarray:
        """Distribution at time ``t`` under a constant parameter.

        ``method="expm"`` uses scipy's Krylov ``expm_multiply``;
        ``method="uniformization"`` uses the Poisson-weighted power
        series, a second implementation kept as a cross-check.
        """
        if t < 0:
            raise ValueError("t must be non-negative")
        p0 = self.initial_distribution if p0 is None else np.asarray(p0, float)
        if abs(p0.sum() - 1.0) > 1e-9 or np.any(p0 < -1e-12):
            raise ValueError("p0 must be a probability distribution")
        if t == 0:
            return p0.copy()
        q = self.generator(theta)
        if method == "expm":
            return expm_multiply(q.T * t, p0)
        if method == "uniformization":
            return self._uniformization(q, p0, t)
        raise ValueError(f"unknown method {method!r}")

    @staticmethod
    def _uniformization(q: sparse.csr_matrix, p0: np.ndarray, t: float,
                        tol: float = 1e-12) -> np.ndarray:
        """Uniformization: ``P(t) = sum_k Poisson(k; Lt) (I + Q/L)^k p0``."""
        rate = float(-q.diagonal().min())
        if rate <= 0.0:
            return p0.copy()
        lam = 1.05 * rate
        transition = sparse.identity(q.shape[0], format="csr") + q / lam
        # Number of terms: mean + wide safety band (Poisson tail bound).
        mean = lam * t
        n_terms = int(np.ceil(mean + 10.0 * np.sqrt(mean + 1.0) + 10.0))
        weight = np.exp(-mean)
        vec = p0.copy()
        result = weight * vec
        accumulated = weight
        for k in range(1, n_terms + 1):
            vec = transition.T @ vec
            weight *= mean / k
            result += weight * vec
            accumulated += weight
            if 1.0 - accumulated < tol:
                break
        return result

    # ------------------------------------------------------------------
    # Stationary analysis (precise theta)
    # ------------------------------------------------------------------

    def stationary_distribution(self, theta) -> np.ndarray:
        """Stationary distribution ``pi Q = 0`` (dense solve).

        Requires the chain to have a unique stationary distribution on
        the enumerated lattice (irreducibility over the reachable set);
        the normalisation-augmented least-squares solve will surface a
        warning residual otherwise.
        """
        q = self.generator(theta).toarray()
        n = q.shape[0]
        # Solve pi Q = 0 with sum(pi) = 1: replace one balance equation.
        a = np.vstack([q.T, np.ones((1, n))])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi, residual, _, _ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.maximum(pi, 0.0)
        total = pi.sum()
        if total <= 0:
            raise RuntimeError("stationary solve produced a zero vector")
        return pi / total

    def expected_observable(self, distribution: np.ndarray, weights) -> float:
        """Expectation of a linear state observable under a distribution."""
        values = self.densities() @ np.asarray(weights, dtype=float)
        return float(distribution @ values)

    def __repr__(self) -> str:
        return (
            f"ImpreciseCTMC({self.model.name!r}, N="
            f"{self.population.population_size}, states={self.n_states})"
        )
