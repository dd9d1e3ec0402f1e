"""Sensitivity of the bounds to the parameter-interval width.

Figures 4 and 5 show the differential hull degrading "non linearly in
theta_max" while the Pontryagin bounds stay informative.  This module
turns that observation into a reusable study: sweep the width of the
parameter set and record, per width, the bound widths produced by each
method.  The resulting curves are the quantitative version of the
paper's accuracy discussion and feed the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from repro.bounds.hull import differential_hull_bounds
from repro.bounds.pontryagin import extremal_trajectories_batch
from repro.bounds.sweep import uncertain_envelope

__all__ = ["WidthSensitivity", "interval_width_sensitivity"]


@dataclass
class WidthSensitivity:
    """Bound widths of the three methods across parameter-set widths.

    All widths refer to one observable at one horizon:
    ``width = upper bound - lower bound``.
    """

    widths: np.ndarray
    hull: List[float] = field(default_factory=list)
    pontryagin: List[float] = field(default_factory=list)
    uncertain: List[float] = field(default_factory=list)
    hull_trivial: List[bool] = field(default_factory=list)

    def hull_over_pontryagin(self) -> np.ndarray:
        """Looseness ratio of the hull relative to the exact bounds."""
        exact = np.maximum(np.asarray(self.pontryagin), 1e-12)
        return np.asarray(self.hull) / exact

    def degradation_is_superlinear(self) -> bool:
        """Whether the hull/exact ratio grows faster than the width."""
        ratios = self.hull_over_pontryagin()
        if ratios.shape[0] < 2 or not np.all(np.isfinite(ratios)):
            return True
        width_growth = self.widths[-1] / self.widths[0]
        ratio_growth = ratios[-1] / max(ratios[0], 1e-12)
        return bool(ratio_growth > width_growth)


def interval_width_sensitivity(
    model_factory: Callable[[float], object],
    widths: Sequence[float],
    x0,
    horizon: float,
    observable_index: int = 0,
    n_steps: int = 200,
    sweep_resolution: int = 11,
) -> WidthSensitivity:
    """Measure bound widths of all three methods across ``Theta`` widths.

    Parameters
    ----------
    model_factory:
        Maps a width scalar to a model (e.g.
        ``lambda w: make_sir_model(theta_max=1.0 + w)``).
    widths:
        The sweep of width scalars (increasing).
    x0, horizon:
        Initial state and evaluation horizon.
    observable_index:
        The state coordinate whose bound width is recorded.
    """
    widths = np.asarray(list(widths), dtype=float)
    if widths.ndim != 1 or widths.shape[0] < 1:
        raise ValueError("widths must be a non-empty sequence")
    study = WidthSensitivity(widths=widths)
    direction = None
    t_grid = np.linspace(0.0, float(horizon), 11)
    for width in widths:
        model = model_factory(float(width))
        if direction is None:
            direction = np.zeros(model.dim)
            direction[observable_index] = 1.0

        hull = differential_hull_bounds(model, x0, t_grid)
        hull_width = float(hull.width(observable_index)[-1])
        study.hull.append(hull_width)
        study.hull_trivial.append(bool(not np.isfinite(hull_width)
                                       or hull.is_trivial(observable_index)))

        upper, lower = extremal_trajectories_batch(model, x0, [
            (direction, is_max, horizon, n_steps) for is_max in (True, False)
        ])
        study.pontryagin.append(float(upper.value - lower.value))

        env = uncertain_envelope(model, x0, np.array([0.0, horizon]),
                                 resolution=sweep_resolution)
        name = model.state_names[observable_index]
        study.uncertain.append(float(env.upper[name][-1] - env.lower[name][-1]))
    return study
