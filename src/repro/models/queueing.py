"""A scaled M/M/C queue with server breakdowns and imprecise load.

An extension model for capacity planning under unreliable service: jobs
from ``N`` closed sources feed a pool of ``C = c N`` servers that fail
and get repaired.  Normalised state ``x = (q, b)`` with ``q`` the queued
job density (fraction of the ``N`` sources with a job waiting) and ``b``
the broken-server density (so ``c - b`` is the operational density):

- *arrival*: an idle source submits a job, rate ``lambda (1 - q)`` —
  the per-source demand ``lambda`` is imprecise (flash crowds, diurnal
  waves);
- *service*: operational servers drain the queue by mass-action
  coupling, rate ``mu (c - b) q``;
- *breakdown*: operational servers fail, rate ``gamma (c - b)`` — the
  failure rate ``gamma`` is also imprecise (correlated faults, attacks);
- *repair*: broken servers are restored, rate ``rho b``.

The drift is affine in ``theta = (lambda, gamma)`` over a box, the same
structure as the paper's GPS example (Section VI), so the whole
Section IV toolbox applies:

.. math::
    f_q = \\lambda (1 - q) - \\mu (c - b) q \\\\
    f_b = \\gamma (c - b) - \\rho b
"""

from __future__ import annotations

import numpy as np

from repro.params import Box
from repro.population import PopulationModel, Transition

__all__ = ["make_repairable_queue_model"]


def make_repairable_queue_model(
    mu: float = 4.0,
    rho: float = 2.0,
    capacity: float = 0.5,
    arrival_bounds=(0.5, 1.5),
    breakdown_bounds=(0.2, 1.0),
) -> PopulationModel:
    """Build the repairable-queue model with imprecise demand and faults.

    Parameters
    ----------
    mu:
        Per-server service rate (mass-action coupling with the queue).
    rho:
        Repair rate of broken servers.
    capacity:
        Normalised server pool size ``c`` (servers per job source).
    arrival_bounds:
        Interval of the imprecise per-source arrival rate ``lambda``.
    breakdown_bounds:
        Interval of the imprecise server failure rate ``gamma``.
    """
    if mu <= 0 or rho <= 0:
        raise ValueError("service and repair rates must be positive")
    if capacity <= 0:
        raise ValueError("normalised capacity must be positive")
    (l_lo, l_hi) = (float(arrival_bounds[0]), float(arrival_bounds[1]))
    (g_lo, g_hi) = (float(breakdown_bounds[0]), float(breakdown_bounds[1]))
    theta_set = Box([("lambda", l_lo, l_hi), ("gamma", g_lo, g_hi)])
    c = float(capacity)

    arrival = Transition(
        "arrival",
        change=[1.0, 0.0],
        rate=lambda x, th: th[0] * (1.0 - x[0]),
    )
    service = Transition(
        "service",
        change=[-1.0, 0.0],
        rate=lambda x, th: mu * (c - x[1]) * x[0],
    )
    breakdown = Transition(
        "breakdown",
        change=[0.0, 1.0],
        rate=lambda x, th: th[1] * (c - x[1]),
    )
    repair = Transition(
        "repair",
        change=[0.0, -1.0],
        rate=lambda x, th: rho * x[1],
    )

    def affine_drift_batch(x):
        q, b_ = x[:, 0], x[:, 1]
        n = x.shape[0]
        g0 = np.stack([-mu * (c - b_) * q, -rho * b_], axis=1)
        big_g = np.zeros((n, 2, 2))
        big_g[:, 0, 0] = 1.0 - q
        big_g[:, 1, 1] = c - b_
        return g0, big_g

    def jacobian_batch(x, theta):
        q, b = x[:, 0], x[:, 1]
        lam, gam = theta[:, 0], theta[:, 1]
        jac = np.zeros((x.shape[0], 2, 2))
        jac[:, 0, 0] = -lam - mu * (c - b)
        jac[:, 0, 1] = mu * q
        jac[:, 1, 1] = -gam - rho
        return jac

    return PopulationModel(
        name="repairable_queue",
        state_names=("q", "b"),
        transitions=[arrival, service, breakdown, repair],
        theta_set=theta_set,
        affine_drift_batch=affine_drift_batch,
        drift_jacobian_batch=jacobian_batch,
        state_bounds=([0.0, 0.0], [1.0, c]),
        observables={
            "queue": [1.0, 0.0],
            "broken": [0.0, 1.0],
            "operational": [0.0, -1.0],  # c - b up to the constant c
        },
    )
