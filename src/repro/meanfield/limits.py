"""Construction of mean-field limit objects."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.inclusion import DriftExtremizer, ParametricInclusion

__all__ = ["mean_field_inclusion", "mean_field_ode"]


def mean_field_inclusion(model, method: str = "auto", grid_resolution: int = 9,
                         refine: bool = False) -> ParametricInclusion:
    """Build the mean-field differential inclusion of Theorem 1.

    For an imprecise population process with density-scaled transition
    rates, the drift of the size-``N`` system is independent of ``N``
    (``f^N(x, theta) = f(x, theta)``), so the limit drift of Eq. (4) is
    the closed convex hull of ``{f(x, theta) : theta in Theta}`` — which
    the returned :class:`~repro.inclusion.ParametricInclusion` represents
    parametrically.

    Parameters mirror :class:`~repro.inclusion.DriftExtremizer`; they
    select how support functions of ``F(x)`` are computed.
    """
    extremizer = DriftExtremizer(
        model, method=method, grid_resolution=grid_resolution, refine=refine,
    )
    return ParametricInclusion(model, extremizer=extremizer)


def mean_field_ode(model, theta) -> Callable:
    """The limiting ODE field of Corollary 1 for a frozen ``theta``.

    Returns ``f(t, x)`` suitable for any integrator.  With ``Theta`` a
    singleton this is the classical mean-field (Kurtz) limit; for an
    uncertain model it is one member of the family swept over by
    :mod:`repro.bounds.sweep`.
    """
    theta = np.asarray(theta, dtype=float)
    if not model.theta_set.contains(theta, tol=1e-9):
        raise ValueError(f"theta {theta.tolist()} is outside Theta")
    return model.vector_field(theta)
