"""Extremisation of drift functionals over the parameter domain.

Every numerical method of Section IV reduces to one primitive: given a
state ``x`` and a direction ``p``, find

.. math::
    \\max_{\\theta \\in \\Theta} \\; p \\cdot f(x, \\theta)

(the *support function* of the velocity set ``F(x)`` in direction ``p``,
and the Hamiltonian maximiser of the Pontryagin sweep, Eq. 8).  The
:class:`DriftExtremizer` implements it with three strategies:

- ``"affine"``: for models declaring ``f(x, theta) = g0(x) + G(x) theta``
  with a box domain, the maximiser is bang-bang per coordinate — evaluate
  the sign of ``p^T G`` and pick the matching box bound.  Exact and O(p).
- ``"corners"``: evaluate the corners of ``Theta`` only.  Exact for
  affine models (where the optimum sits at a corner), an approximation
  otherwise.
- ``"grid"``: evaluate a uniform grid (plus corners), optionally followed
  by a local L-BFGS-B refinement (``refine=True``).  The general-purpose
  fallback for non-affine dependence.

``method="auto"`` picks ``"affine"`` when the model declares the
decomposition and ``"grid"`` otherwise.

Batched primitives
------------------

The consumers of this primitive never need *one* extremisation — the
differential hull extremises over every slice corner of every coordinate
per RHS evaluation, and the Pontryagin sweep re-maximises the
Hamiltonian on every grid interval per iteration.  The ``*_batch``
methods therefore operate on ``(n, d)`` stacks of states paired with
``(n, d)`` stacks of directions and answer all ``n`` queries in a
handful of NumPy calls:

- the affine strategy evaluates the decomposition once per stack
  (:meth:`~repro.population.PopulationModel.affine_parts_batch`), takes
  ``p^T G`` by ``einsum`` and resolves the bang-bang choice with one
  ``np.where`` against the box bounds;
- the corner/grid strategies broadcast the candidate set over the stack
  and evaluate all ``n * n_candidates`` drifts through
  :meth:`~repro.population.PopulationModel.drift_batch`.

Batching is *exact*, not approximate: each row's optimiser is the same
corner (or grid point) the scalar code would pick — the per-row optimum
of a monotone/affine functional does not depend on which other rows are
evaluated alongside it.  Scalar calls delegate to the batch kernels with
``n = 1``; the test-suite pins every kernel against a one-query-at-a-time
reference implementation kept under ``tests/``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.optimize import minimize

from repro.params import Box, DiscreteSet, Interval

__all__ = ["DriftExtremizer"]

_VALID_METHODS = ("auto", "affine", "corners", "grid")


class DriftExtremizer:
    """Extremises linear drift functionals over ``Theta`` for one model.

    Parameters
    ----------
    model:
        A :class:`~repro.population.PopulationModel`.
    method:
        One of ``"auto"``, ``"affine"``, ``"corners"``, ``"grid"``.
    grid_resolution:
        Points per parameter axis for the ``"grid"`` strategy.
    refine:
        Whether the grid strategy polishes its best point with a bounded
        L-BFGS-B run (only meaningful for non-affine models).
    """

    def __init__(self, model, method: str = "auto", grid_resolution: int = 9,
                 refine: bool = False):
        if method not in _VALID_METHODS:
            raise ValueError(f"method must be one of {_VALID_METHODS}, got {method!r}")
        if grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")
        self.model = model
        if method == "auto":
            method = "affine" if model.is_affine else "grid"
        if method == "affine" and not model.is_affine:
            raise ValueError(
                f"model {model.name!r} declares no affine decomposition; "
                "use method='grid' or 'corners'"
            )
        if method == "affine" and not isinstance(model.theta_set, (Box, Interval, DiscreteSet)):
            raise ValueError("affine strategy needs a box, interval or discrete Theta")
        self.method = method
        self.grid_resolution = int(grid_resolution)
        self.refine = bool(refine)
        self._cached_grid: Optional[np.ndarray] = None
        # The box bounds are immutable per extremizer; materialise them
        # once so the bang-bang kernel does no per-call allocation.
        if method == "affine" and not isinstance(model.theta_set, DiscreteSet):
            self._affine_lowers, self._affine_uppers = self._box_bounds(
                model.theta_set
            )

    # ------------------------------------------------------------------
    # Core primitive: support function / Hamiltonian maximiser
    # ------------------------------------------------------------------

    def maximize_direction(self, x, direction) -> Tuple[np.ndarray, float]:
        """Return ``(theta*, value)`` maximising ``direction . f(x, theta)``.

        This is the support function of the velocity set in ``direction``
        together with its maximiser — the quantity the Pontryagin sweep
        evaluates at every grid point (Eq. 8 of the paper).  Delegates to
        :meth:`maximize_direction_batch` with a one-row stack.
        """
        x = np.asarray(x, dtype=float)
        direction = np.asarray(direction, dtype=float)
        thetas, values = self.maximize_direction_batch(x[None, :],
                                                       direction[None, :])
        return thetas[0], float(values[0])

    def minimize_direction(self, x, direction) -> Tuple[np.ndarray, float]:
        """Return ``(theta*, value)`` minimising ``direction . f(x, theta)``."""
        theta, value = self.maximize_direction(x, -np.asarray(direction, dtype=float))
        return theta, -value

    def support(self, x, direction) -> float:
        """The support function ``h(x, p) = max_theta p . f(x, theta)``."""
        return self.maximize_direction(x, direction)[1]

    # ------------------------------------------------------------------
    # Batched primitives (the hot path of every bound computation)
    # ------------------------------------------------------------------

    def maximize_direction_batch(self, states, directions
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Row-wise ``argmax_theta  p_r . f(x_r, theta)`` over a stack.

        Parameters
        ----------
        states:
            State stack of shape ``(n, d)``.
        directions:
            Direction stack of shape ``(n, d)`` (one direction per row).

        Returns
        -------
        ``(thetas, values)`` with ``thetas`` of shape ``(n, theta_dim)``
        and ``values`` of shape ``(n,)``; row ``r`` solves the scalar
        problem ``maximize_direction(states[r], directions[r])``.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        if directions.shape != states.shape:
            raise ValueError(
                f"directions shape {directions.shape} must match states "
                f"shape {states.shape}"
            )
        if self.method == "affine":
            return self._maximize_affine_batch(states, directions)
        if self.method == "corners":
            return self._maximize_enumerate_batch(
                states, directions, self.model.theta_set.corners()
            )
        return self._maximize_grid_batch(states, directions)

    def minimize_direction_batch(self, states, directions
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Row-wise minimisers: ``(thetas, values)`` minimising each row."""
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        thetas, values = self.maximize_direction_batch(states, -directions)
        return thetas, -values

    def support_batch(self, states, directions) -> np.ndarray:
        """Support values ``h(x_r, p_r)`` for a stack, shape ``(n,)``."""
        return self.maximize_direction_batch(states, directions)[1]

    def coordinate_range_batch(self, states, index: int
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """Range of drift coordinate ``index`` per row: ``(lower, upper)``.

        Equivalent to calling :meth:`coordinate_range` on each row;
        both extremisations of the whole stack are answered by a single
        doubled batch call.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        n = states.shape[0]
        e = np.zeros((n, states.shape[1]))
        e[:, index] = 1.0
        values = self.support_batch(
            np.concatenate([states, states]), np.concatenate([e, -e])
        )
        return -values[n:], values[:n]

    def velocity_envelope_batch(self, states
                                ) -> Tuple[np.ndarray, np.ndarray]:
        """Coordinate-wise bounds of ``F(x_r)`` per row.

        Returns ``(lower, upper)`` arrays of shape ``(n, d)``; one
        batched call answers all ``2 n d`` extremisations.  The affine
        strategy has a closed form: with ``f = g0 + G theta`` each
        coordinate's bound sums the sign-matching box endpoint of every
        ``G`` entry (the bang-bang rule applied to all ``2 d``
        directions at once); other strategies stack the ``±e_i`` probes
        through :meth:`support_batch`.  Both agree with a per-coordinate
        loop of :meth:`coordinate_range` to the last bit — this is the
        kernel behind the batched differential-hull RHS.
        """
        states = np.asarray(states, dtype=float)
        if states.ndim == 1:
            states = states[None, :]
        if self.method == "affine":
            g0s, big_gs = self.model.affine_parts_batch(states)
            theta_set = self.model.theta_set
            if isinstance(theta_set, DiscreteSet):
                values = np.einsum("ndp,mp->ndm", big_gs, theta_set.values)
                return g0s + values.min(axis=2), g0s + values.max(axis=2)
            # With u >= l per box axis, max/min of the two endpoint
            # products select exactly the bang-bang sign rule.
            at_upper = big_gs * self._affine_uppers
            at_lower = big_gs * self._affine_lowers
            upper = g0s + np.maximum(at_upper, at_lower).sum(axis=2)
            lower = g0s + np.minimum(at_upper, at_lower).sum(axis=2)
            return lower, upper
        n, d = states.shape
        eye = np.eye(d)
        probe = np.concatenate([np.repeat(eye, n, axis=0),
                                np.repeat(-eye, n, axis=0)])
        stacked = np.tile(states, (2 * d, 1))
        values = self.support_batch(stacked, probe)
        upper = values[: d * n].reshape(d, n).T
        lower = -values[d * n:].reshape(d, n).T
        return lower, upper

    # ------------------------------------------------------------------
    # Derived envelopes
    # ------------------------------------------------------------------

    def coordinate_range(self, x, index: int) -> Tuple[float, float]:
        """Range ``[min_theta f_i, max_theta f_i]`` of one drift coordinate."""
        direction = np.zeros(self.model.dim)
        direction[index] = 1.0
        _, upper = self.maximize_direction(x, direction)
        _, lower_neg = self.maximize_direction(x, -direction)
        return -lower_neg, upper

    def velocity_envelope(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """Coordinate-wise bounds of ``F(x)``: arrays ``(f_min, f_max)``.

        This is the tight rectangular enclosure of the velocity set used
        by the differential-hull construction (with the state part of the
        extremisation handled separately by the hull).  Delegates to
        :meth:`velocity_envelope_batch` with a one-row stack.
        """
        lower, upper = self.velocity_envelope_batch(
            np.asarray(x, dtype=float)[None, :]
        )
        return lower[0], upper[0]

    # ------------------------------------------------------------------
    # Batched strategies
    # ------------------------------------------------------------------

    def _maximize_affine_batch(self, states, directions
                               ) -> Tuple[np.ndarray, np.ndarray]:
        g0s, big_gs = self.model.affine_parts_batch(states)
        base = np.einsum("nd,nd->n", directions, g0s)
        coeffs = np.einsum("nd,ndp->np", directions, big_gs)
        theta_set = self.model.theta_set
        if isinstance(theta_set, DiscreteSet):
            values = coeffs @ theta_set.values.T  # (n, n_points)
            best = np.argmax(values, axis=1)
            thetas = theta_set.values[best].copy()
            return thetas, base + values[np.arange(best.shape[0]), best]
        # Bang-bang per coordinate; zero coefficients leave theta free,
        # so they take the lower bound for determinism (any choice
        # attains the same value).
        thetas = np.where(coeffs > 0.0, self._affine_uppers, self._affine_lowers)
        values = base + np.einsum("np,np->n", coeffs, thetas)
        return thetas, values

    def _maximize_enumerate_batch(self, states, directions, candidates
                                  ) -> Tuple[np.ndarray, np.ndarray]:
        candidates = np.asarray(candidates, dtype=float)
        n, d = states.shape
        m = candidates.shape[0]
        x_rep = np.repeat(states, m, axis=0)
        theta_rep = np.tile(candidates, (n, 1))
        drifts = self.model.drift_batch(x_rep, theta_rep).reshape(n, m, d)
        values = np.einsum("nd,nmd->nm", directions, drifts)
        best = np.argmax(values, axis=1)
        thetas = candidates[best].copy()
        return thetas, values[np.arange(n), best]

    def _maximize_grid_batch(self, states, directions
                             ) -> Tuple[np.ndarray, np.ndarray]:
        thetas, values = self._maximize_enumerate_batch(
            states, directions, self._theta_grid()
        )
        if not self.refine or isinstance(self.model.theta_set, DiscreteSet):
            return thetas, values
        for r in range(states.shape[0]):
            thetas[r], values[r] = self._polish(
                states[r], directions[r], thetas[r], values[r]
            )
        return thetas, values

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _box_bounds(theta_set) -> Tuple[np.ndarray, np.ndarray]:
        if isinstance(theta_set, Interval):
            return np.array([theta_set.lower]), np.array([theta_set.upper])
        return theta_set.lowers.copy(), theta_set.uppers.copy()

    def _theta_grid(self) -> np.ndarray:
        if self._cached_grid is None:
            grid = self.model.theta_set.grid(self.grid_resolution)
            corners = self.model.theta_set.corners()
            self._cached_grid = np.vstack([grid, corners])
        return self._cached_grid

    def _polish(self, x, direction, theta, value) -> Tuple[np.ndarray, float]:
        """Shared L-BFGS-B refinement step of the grid strategy."""
        lowers, uppers = self._box_bounds(self.model.theta_set)
        objective = lambda th: -float(  # noqa: E731 - tiny adapter
            direction @ self.model.drift(x, th)
        )
        result = minimize(
            objective,
            theta,
            method="L-BFGS-B",
            bounds=list(zip(lowers, uppers)),
        )
        if result.success and -result.fun > value:
            return np.asarray(result.x, dtype=float), float(-result.fun)
        return theta, value
