"""A TTL cache fleet with imprecise request intensity.

A cloud-workload extension model generalising the CDN placement model
(:mod:`repro.models.cdn`) to time-to-live semantics: ``N`` cache slots
across an edge fleet hold copies that age out rather than being
displaced only by churn.  Normalised state ``x = (f, s)`` with ``f``
the *fresh* fraction (entries within their TTL, served as hits), ``s``
the *stale* fraction (expired entries awaiting revalidation or
eviction) and ``e = 1 - f - s`` the empty fraction:

- *fill*: a request for an uncached item misses and installs a fresh
  copy, rate ``theta (1 - f - s)`` — the request intensity ``theta``
  is the imprecise parameter (uncertain popularity, viral spikes,
  regional events);
- *expire*: fresh entries pass their TTL, rate ``omega f`` (``omega``
  is the inverse TTL);
- *refresh*: a request hitting a stale entry revalidates it back to
  fresh, rate ``rho theta s`` (``rho`` is the relative hit intensity
  of aged content — the popularity tail);
- *evict*: stale entries are reaped by the LRU sweeper, rate ``mu s``.

Both request-driven rates are linear in ``theta``, so the drift stays
affine in the imprecise parameter and the whole Section IV toolbox
(bang-bang Pontryagin bounds, corner hulls) applies.  The question the
paper never posed: certified fresh-hit-rate bounds when the popularity
process is adversarial inside its interval:

.. math::
    f_f = \\theta (1 - f - s) + \\rho \\theta s - \\omega f \\\\
    f_s = \\omega f - \\rho \\theta s - \\mu s
"""

from __future__ import annotations

import numpy as np

from repro.params import Interval
from repro.population import PopulationModel, Transition

__all__ = ["make_ttl_cache_model"]


def make_ttl_cache_model(
    omega: float = 1.0,
    mu: float = 1.5,
    rho: float = 0.5,
    request_min: float = 0.5,
    request_max: float = 3.0,
) -> PopulationModel:
    """Build the two-dimensional TTL cache-fleet model.

    Parameters
    ----------
    omega:
        TTL expiry rate of fresh entries (inverse time-to-live).
    mu:
        Eviction rate of stale entries (LRU sweep pressure).
    rho:
        Relative request intensity on stale content (``rho theta`` is
        the revalidation rate per stale entry); ``rho <= 1`` models a
        decaying popularity tail.
    request_min, request_max:
        Bounds of the imprecise request intensity ``theta``.
    """
    for label, value in (("omega", omega), ("mu", mu), ("rho", rho)):
        if value < 0:
            raise ValueError(f"rate {label} must be non-negative, got {value}")
    theta_set = Interval(request_min, request_max, name="request_rate")

    fill = Transition(
        "fill",
        change=[1.0, 0.0],
        rate=lambda x, th: th[0] * (1.0 - x[0] - x[1]),
    )
    expire = Transition(
        "expire",
        change=[-1.0, 1.0],
        rate=lambda x, th: omega * x[0],
    )
    refresh = Transition(
        "refresh",
        change=[1.0, -1.0],
        rate=lambda x, th: rho * th[0] * x[1],
    )
    evict = Transition(
        "evict",
        change=[0.0, -1.0],
        rate=lambda x, th: mu * x[1],
    )

    def affine_drift_batch(x):
        f, s = x[:, 0], x[:, 1]
        g0 = np.stack([-omega * f, omega * f - mu * s], axis=1)
        big_g = np.stack([(1.0 - f - s) + rho * s, -rho * s],
                         axis=1)[:, :, None]
        return g0, big_g

    def jacobian_batch(x, theta):
        th = theta[:, 0]
        jac = np.empty((x.shape[0], 2, 2))
        jac[:, 0, 0] = -th - omega
        jac[:, 0, 1] = th * (rho - 1.0)
        jac[:, 1, 0] = omega
        jac[:, 1, 1] = -rho * th - mu
        return jac

    return PopulationModel(
        name="ttl_cache_fleet",
        state_names=("fresh", "stale"),
        transitions=[fill, expire, refresh, evict],
        theta_set=theta_set,
        affine_drift_batch=affine_drift_batch,
        drift_jacobian_batch=jacobian_batch,
        state_bounds=([0.0, 0.0], [1.0, 1.0]),
        observables={
            "hit_rate": [1.0, 0.0],   # fresh entries serve hits
            "stale": [0.0, 1.0],
            "cached": [1.0, 1.0],     # resident (fresh or stale)
        },
    )
