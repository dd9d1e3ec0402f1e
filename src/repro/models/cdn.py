"""A CDN / edge-cache content-placement model with imprecise demand.

An extension model for content-delivery planning: ``N`` edge-cache
slots hold copies of a rotating catalogue.  Each slot is *hot* (holds a
currently-popular item), *warm* (holds an item whose popularity has
decayed) or *empty*.  Normalised state ``x = (h, w)`` with the empty
fraction ``e = 1 - h - w``:

- *fill*: a request for a popular item misses the cache (probability
  scaling with ``1 - h``) and is installed into an empty slot, rate
  ``theta e (1 - h)`` — the request intensity ``theta`` is the
  imprecise parameter (viral spikes, regional events);
- *demote*: hot items fall out of the trending set, rate ``gamma h``;
- *evict*: warm items are evicted to make room, rate ``mu w``.

The miss-driven fill rate ``e (1 - h)`` is quadratic in the state and
affine in ``theta``, so the Section IV machinery (bang-bang Pontryagin
bounds, corner hulls) applies directly:

.. math::
    f_h = \\theta (1 - h - w)(1 - h) - \\gamma h \\\\
    f_w = \\gamma h - \\mu w
"""

from __future__ import annotations

import numpy as np

from repro.params import Interval
from repro.population import PopulationModel, Transition

__all__ = ["make_cdn_cache_model"]


def make_cdn_cache_model(
    gamma: float = 1.0,
    mu: float = 2.0,
    theta_min: float = 1.0,
    theta_max: float = 5.0,
) -> PopulationModel:
    """Build the reduced two-dimensional cache-placement model.

    Parameters
    ----------
    gamma:
        Popularity-decay (demotion) rate of hot items.
    mu:
        Eviction rate of warm items.
    theta_min, theta_max:
        Bounds of the imprecise request intensity.
    """
    for label, value in (("gamma", gamma), ("mu", mu)):
        if value < 0:
            raise ValueError(f"rate {label} must be non-negative, got {value}")
    theta_set = Interval(theta_min, theta_max, name="request_rate")

    fill = Transition(
        "fill",
        change=[1.0, 0.0],
        rate=lambda x, th: th[0] * (1.0 - x[0] - x[1]) * (1.0 - x[0]),
    )
    demote = Transition(
        "demote",
        change=[-1.0, 1.0],
        rate=lambda x, th: gamma * x[0],
    )
    evict = Transition(
        "evict",
        change=[0.0, -1.0],
        rate=lambda x, th: mu * x[1],
    )

    def affine_drift_batch(x):
        h, w = x[:, 0], x[:, 1]
        g0 = np.stack([-gamma * h, gamma * h - mu * w], axis=1)
        fill_coeff = (1.0 - h - w) * (1.0 - h)
        big_g = np.stack([fill_coeff, np.zeros_like(fill_coeff)],
                         axis=1)[:, :, None]
        return g0, big_g

    def jacobian_batch(x, theta):
        h, w = x[:, 0], x[:, 1]
        th = theta[:, 0]
        jac = np.empty((x.shape[0], 2, 2))
        jac[:, 0, 0] = -th * ((1.0 - h) + (1.0 - h - w)) - gamma
        jac[:, 0, 1] = -th * (1.0 - h)
        jac[:, 1, 0] = gamma
        jac[:, 1, 1] = -mu
        return jac

    return PopulationModel(
        name="cdn_cache",
        state_names=("hot", "warm"),
        transitions=[fill, demote, evict],
        theta_set=theta_set,
        affine_drift_batch=affine_drift_batch,
        drift_jacobian_batch=jacobian_batch,
        state_bounds=([0.0, 0.0], [1.0, 1.0]),
        observables={
            "hit_rate": [1.0, 0.0],
            "warm": [0.0, 1.0],
            "resident": [1.0, 1.0],
        },
    )
