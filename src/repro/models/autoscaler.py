"""An autoscaling microservice pool with imprecise arrival rates.

A cloud-workload extension model: ``N`` request sources feed a pool of
elastic service replicas governed by a reactive autoscaler.  Normalised
state ``x = (q, s)`` with ``q`` the backlog density (fraction of
sources with a request in flight) and ``s`` the active-replica density:

- *arrival*: an idle source submits a request, rate ``lambda (1 - q)``
  — the per-source demand ``lambda`` is the imprecise parameter (flash
  crowds, diurnal waves, regional failover);
- *service*: active replicas drain the backlog by mass-action
  coupling, rate ``mu s q``;
- *scale-up*: the autoscaler launches replicas in proportion to the
  observed backlog pressure and the remaining headroom, rate
  ``alpha q (s_max - s)``;
- *scale-down*: replicas are reaped in proportion to the observed
  idleness, rate ``beta s (1 - q)``.

The up and down controllers react to *different* signals (backlog vs
idleness), which is the hysteresis of real autoscalers: after a demand
spike subsides the pool stays large until the backlog has drained, and
after a lull it lags the recovering load.  The imprecise-bounds
machinery answers the question the paper never posed: how far can an
adversarial in-interval arrival process over- or under-provision the
pool, and how large can the worst-case backlog get?

The drift is affine in ``theta = (lambda,)``:

.. math::
    f_q = \\lambda (1 - q) - \\mu s q \\\\
    f_s = \\alpha q (s_{max} - s) - \\beta s (1 - q)
"""

from __future__ import annotations

import numpy as np

from repro.params import Interval
from repro.population import PopulationModel, Transition

__all__ = ["make_autoscaler_model"]


def make_autoscaler_model(
    mu: float = 3.0,
    alpha: float = 2.0,
    beta: float = 1.0,
    s_max: float = 1.0,
    arrival_min: float = 0.5,
    arrival_max: float = 2.0,
) -> PopulationModel:
    """Build the two-dimensional autoscaling-pool model.

    Parameters
    ----------
    mu:
        Per-replica service rate (mass-action coupling with the backlog).
    alpha:
        Scale-up gain: launch rate per unit backlog per unit headroom.
    beta:
        Scale-down gain: reap rate per unit idleness per active replica.
    s_max:
        Normalised replica-pool ceiling (quota).
    arrival_min, arrival_max:
        Bounds of the imprecise per-source arrival rate ``lambda``.
    """
    for label, value in (("mu", mu), ("alpha", alpha), ("beta", beta)):
        if value < 0:
            raise ValueError(f"rate {label} must be non-negative, got {value}")
    if s_max <= 0:
        raise ValueError(f"pool ceiling s_max must be positive, got {s_max}")
    theta_set = Interval(arrival_min, arrival_max, name="arrival_rate")
    cap = float(s_max)

    arrival = Transition(
        "arrival",
        change=[1.0, 0.0],
        rate=lambda x, th: th[0] * (1.0 - x[0]),
    )
    service = Transition(
        "service",
        change=[-1.0, 0.0],
        rate=lambda x, th: mu * x[1] * x[0],
    )
    scale_up = Transition(
        "scale_up",
        change=[0.0, 1.0],
        rate=lambda x, th: alpha * x[0] * (cap - x[1]),
    )
    scale_down = Transition(
        "scale_down",
        change=[0.0, -1.0],
        rate=lambda x, th: beta * x[1] * (1.0 - x[0]),
    )

    def affine_drift_batch(x):
        q, s = x[:, 0], x[:, 1]
        g0 = np.stack(
            [-mu * s * q, alpha * q * (cap - s) - beta * s * (1.0 - q)],
            axis=1,
        )
        big_g = np.stack([1.0 - q, np.zeros_like(q)], axis=1)[:, :, None]
        return g0, big_g

    def jacobian_batch(x, theta):
        q, s = x[:, 0], x[:, 1]
        th = theta[:, 0]
        jac = np.empty((x.shape[0], 2, 2))
        jac[:, 0, 0] = -th - mu * s
        jac[:, 0, 1] = -mu * q
        jac[:, 1, 0] = alpha * (cap - s) + beta * s
        jac[:, 1, 1] = -alpha * q - beta * (1.0 - q)
        return jac

    return PopulationModel(
        name="autoscaler_pool",
        state_names=("q", "s"),
        transitions=[arrival, service, scale_up, scale_down],
        theta_set=theta_set,
        affine_drift_batch=affine_drift_batch,
        drift_jacobian_batch=jacobian_batch,
        state_bounds=([0.0, 0.0], [1.0, cap]),
        observables={
            "backlog": [1.0, 0.0],
            "pool": [0.0, 1.0],
            "pressure": [1.0, -1.0],  # backlog in excess of the pool
        },
    )
