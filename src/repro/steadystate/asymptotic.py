"""Convex outer approximation of the asymptotic reachable set ``A_F``.

Section V-C's "first possibility" for steady-state analysis: use the
Pontryagin principle to compute the convex hull of the reachable set at
time ``t`` and let ``t`` grow — the limit encloses the asymptotic set
``A_F`` of Eq. (6), which in turn contains the Birkhoff centre.

For a fixed template direction ``c`` the support value
``h_c(t) = max c . x(t)`` need not be monotone in ``t``, so the sound
outer offset for "all large times" is the supremum over the sampled
horizon ladder *beyond the transient*.  The result complements the
region-growing Birkhoff construction: it works in any dimension (the
grower is 2-D only) at the price of convex outer-ness.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bounds.pontryagin import extremal_trajectories_batch
from repro.bounds.templates import TemplatePolytope, octagon_directions
from repro.inclusion import DriftExtremizer

__all__ = ["asymptotic_reachable_hull"]


def asymptotic_reachable_hull(
    model,
    x0,
    horizons=None,
    directions=None,
    n_steps_per_unit: float = 60.0,
    extremizer: Optional[DriftExtremizer] = None,
) -> TemplatePolytope:
    """Template outer approximation of the asymptotic set ``A_F``.

    Parameters
    ----------
    model, x0:
        The imprecise model and the initial state of the ladder (the
        asymptotic set is initial-state independent for the recurrent
        part; ``x0`` only influences the transient the ladder must
        outlast).
    horizons:
        Increasing horizon ladder; defaults to ``(10, 20, 30)`` time
        units.  The returned offsets are maxima over the ladder's tail
        (all but the first entry), treating the first horizon as
        transient burn-in.
    directions:
        Template directions (octagon by default).
    """
    if horizons is None:
        horizons = np.array([10.0, 20.0, 30.0])
    horizons = np.asarray(horizons, dtype=float)
    if horizons.ndim != 1 or horizons.shape[0] < 2:
        raise ValueError("need at least two horizons (burn-in + tail)")
    if np.any(np.diff(horizons) <= 0):
        raise ValueError("horizons must be strictly increasing")
    if directions is None:
        directions = octagon_directions(model.dim)
    directions = np.asarray(directions, dtype=float)

    # One lane per (direction, tail horizon); ragged grids are padded.
    tail = horizons[1:]
    specs = [
        (c, True, float(horizon),
         max(60, int(np.ceil(horizon * n_steps_per_unit))))
        for c in directions for horizon in tail
    ]
    results = extremal_trajectories_batch(model, x0, specs,
                                          extremizer=extremizer)
    values = np.array([result.value for result in results])
    offsets = values.reshape(directions.shape[0], tail.shape[0]).max(axis=1)
    return TemplatePolytope(directions.copy(), offsets)
