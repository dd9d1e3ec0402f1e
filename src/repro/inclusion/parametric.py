"""The parametric differential inclusion object.

:class:`ParametricInclusion` is the concrete representation of the
mean-field limit of Theorem 1:

.. math::
    \\dot x \\in F(x) = \\{ f(x, \\theta) : \\theta \\in \\Theta \\}

The set ``F(x)`` is never materialised; all queries go through the model
drift and the :class:`~repro.inclusion.extremizers.DriftExtremizer`.
Witness solutions (elements of the solution set ``S_{F, x0}``) are
produced by following state-feedback selectors ``theta = g(t, x)`` —
which covers replaying a time signal, such as the extremal control of
Figure 2, through a selector that ignores the state.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.inclusion.extremizers import DriftExtremizer
from repro.ode import Trajectory, rk4_step

__all__ = ["ParametricInclusion"]


class ParametricInclusion:
    """The mean-field differential inclusion of an imprecise model.

    Parameters
    ----------
    model:
        The :class:`~repro.population.PopulationModel` providing
        ``drift(x, theta)`` and ``theta_set``.
    extremizer:
        Optional pre-configured :class:`DriftExtremizer`; built with
        defaults (``method="auto"``) when omitted.
    """

    def __init__(self, model, extremizer: Optional[DriftExtremizer] = None):
        self.model = model
        self.extremizer = extremizer or DriftExtremizer(model)

    def solve_feedback(self, selector: Callable, x0, t_span,
                       steps_per_unit: int = 400) -> Trajectory:
        """Solution under a state-feedback selector ``theta = g(t, x)``.

        The selector may be discontinuous (e.g. the hysteresis policy of
        Section V-E); the solve therefore uses fixed-step RK4 with the
        selector frozen within each step, which converges to a solution
        of the inclusion as the step size shrinks.
        """
        t0, t1 = float(t_span[0]), float(t_span[1])
        n_steps = max(2, int(np.ceil((t1 - t0) * steps_per_unit)))
        grid = np.linspace(t0, t1, n_steps + 1)
        x = np.asarray(x0, dtype=float).copy()
        states = np.empty((grid.shape[0], x.shape[0]))
        states[0] = x
        for i in range(grid.shape[0] - 1):
            theta = np.asarray(selector(grid[i], x), dtype=float)
            theta = self.model.theta_set.project(theta)
            field = self.model.vector_field(theta)
            x = rk4_step(field, grid[i], x, grid[i + 1] - grid[i])
            states[i + 1] = x
        return Trajectory(grid, states)

    def extreme_velocity_solution(self, direction, x0, t_span,
                                  steps_per_unit: int = 400) -> Trajectory:
        """Greedy selection: always move extremally in a fixed direction.

        At each step the parameter maximising ``direction . f(x, theta)``
        is applied.  This *myopic* strategy is generally not optimal for
        reaching extreme states at a fixed horizon (the Pontryagin sweep
        is), and the gap between the two is one of the ablation benches.
        """
        direction = np.asarray(direction, dtype=float)
        selector = lambda t, x: self.extremizer.maximize_direction(  # noqa: E731
            x, direction
        )[0]
        return self.solve_feedback(selector, x0, t_span, steps_per_unit=steps_per_unit)
