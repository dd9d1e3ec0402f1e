"""Robust design of controllable parameters (Section VI-C).

The imprecise framework turns "tune the system for the worst case" into a
min–max program: minimise, over a *design* parameter ``phi``, the
worst-case value of an observable over all admissible parameter processes
``theta(t)``:

.. math::
    \\min_{\\phi} \\; \\max_{\\theta(\\cdot)} \\; w \\cdot x^{\\phi,\\theta}(T)

The inner maximum is exactly the Pontryagin bound; the outer scalar
minimisation uses a coarse bracketing grid followed by golden-section
refinement (the paper reports the GPS objective is convex in the weight
ratio, and finds the optimum at ``phi_1 = 9.0 phi_2``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.bounds.pontryagin import extremal_trajectory
from repro.inclusion import DriftExtremizer

__all__ = ["RobustDesignResult", "robust_minimize_scalar", "worst_case_objective"]


def worst_case_objective(
    model,
    x0,
    horizon: float,
    weights,
    n_steps: int = 200,
    extremizer: Optional[DriftExtremizer] = None,
    **sweep_kwargs,
) -> float:
    """The inner max: worst-case ``w . x(T)`` over the imprecise inclusion."""
    result = extremal_trajectory(
        model, x0, horizon, np.asarray(weights, dtype=float),
        maximize=True, n_steps=n_steps, extremizer=extremizer, **sweep_kwargs,
    )
    return result.value


@dataclass
class RobustDesignResult:
    """Outcome of a scalar robust-design optimisation.

    Attributes
    ----------
    optimum:
        The minimising design value.
    value:
        The worst-case objective at the optimum.
    design_grid, objective_grid:
        The bracketing sweep (useful to inspect convexity, as the paper
        does for the GPS weights).
    """

    optimum: float
    value: float
    design_grid: np.ndarray
    objective_grid: np.ndarray

    def is_convex_on_grid(self, tol: float = 1e-9) -> bool:
        """Whether the sampled objective is convex along the grid."""
        y = self.objective_grid
        if y.shape[0] < 3:
            return True
        second_differences = np.diff(y, 2)
        return bool(
            np.all(second_differences >= -tol * np.maximum(1.0, np.abs(y[1:-1])))
        )


def robust_minimize_scalar(
    objective: Callable[[float], float],
    bounds: Tuple[float, float],
    coarse_points: int = 9,
    xatol: float = 1e-3,
) -> RobustDesignResult:
    """Minimise a scalar design objective (worst-case metric).

    Parameters
    ----------
    objective:
        Maps the design scalar (e.g. the GPS weight ratio
        ``phi_1 / phi_2``) to the worst-case metric; typically a closure
        that rebuilds the model and calls :func:`worst_case_objective`.
    bounds:
        Search interval for the design scalar.
    coarse_points:
        Size of the bracketing grid evaluated first (also returned for
        convexity inspection).
    xatol:
        Absolute tolerance of the bounded golden-section refinement.
    """
    # Imported here, not at module level: scipy.optimize adds about half
    # a second to every process's start-up, and only this search uses it.
    from scipy.optimize import minimize_scalar

    lo, hi = float(bounds[0]), float(bounds[1])
    if lo >= hi:
        raise ValueError("bounds must satisfy lo < hi")
    if coarse_points < 3:
        raise ValueError("coarse_points must be >= 3")
    grid = np.linspace(lo, hi, coarse_points)
    values = np.array([float(objective(g)) for g in grid])
    k_best = int(np.argmin(values))
    bracket_lo = grid[max(k_best - 1, 0)]
    bracket_hi = grid[min(k_best + 1, coarse_points - 1)]
    if bracket_lo == bracket_hi:
        return RobustDesignResult(
            optimum=float(grid[k_best]),
            value=float(values[k_best]),
            design_grid=grid,
            objective_grid=values,
        )
    result = minimize_scalar(
        objective,
        bounds=(bracket_lo, bracket_hi),
        method="bounded",
        options={"xatol": xatol},
    )
    optimum = float(result.x)
    value = float(result.fun)
    if values[k_best] < value:
        optimum = float(grid[k_best])
        value = float(values[k_best])
    return RobustDesignResult(
        optimum=optimum,
        value=value,
        design_grid=grid,
        objective_grid=values,
    )
