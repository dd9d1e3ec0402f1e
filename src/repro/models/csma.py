"""A CSMA wireless-contention cell with imprecise load and aggressiveness.

A cloud/edge-workload extension model: ``N`` stations share one radio
channel under carrier-sense multiple access.  Normalised state
``x = (b, t)`` with ``b`` the backlogged (contending) fraction, ``t``
the transmitting fraction and ``1 - b - t`` the idle fraction:

- *wake*: an idle station queues a frame, rate ``lambda (1 - b - t)``
  — the offered load ``lambda`` is imprecise (bursty IoT uplinks,
  mobility);
- *grab*: a backlogged station senses the channel free and starts
  transmitting, rate ``beta b (1 - t)`` — the airtime factor
  ``1 - t`` is the mean-field carrier-sense blocking, and the attempt
  rate ``beta`` is imprecise too (fading, hidden terminals, adaptive
  back-off all modulate the effective aggressiveness);
- *finish*: a transmission completes, rate ``mu t``.

The drift is affine in ``theta = (lambda, beta)`` over a box — the same
two-parameter structure as the paper's GPS example — so the Section IV
machinery applies directly.  The questions the paper never posed:
certified worst/best-case channel utilisation and backlog when both the
load and the contention behaviour are adversarial:

.. math::
    f_b = \\lambda (1 - b - t) - \\beta b (1 - t) \\\\
    f_t = \\beta b (1 - t) - \\mu t
"""

from __future__ import annotations

import numpy as np

from repro.params import Box
from repro.population import PopulationModel, Transition

__all__ = ["make_csma_model"]


def make_csma_model(
    mu: float = 2.0,
    arrival_bounds=(0.3, 1.2),
    attempt_bounds=(1.0, 4.0),
) -> PopulationModel:
    """Build the two-dimensional CSMA contention model.

    Parameters
    ----------
    mu:
        Transmission completion rate (inverse mean frame airtime).
    arrival_bounds:
        Interval of the imprecise per-station offered load ``lambda``.
    attempt_bounds:
        Interval of the imprecise channel-attempt rate ``beta``.
    """
    if mu <= 0:
        raise ValueError(f"completion rate mu must be positive, got {mu}")
    (l_lo, l_hi) = (float(arrival_bounds[0]), float(arrival_bounds[1]))
    (a_lo, a_hi) = (float(attempt_bounds[0]), float(attempt_bounds[1]))
    theta_set = Box([("lambda", l_lo, l_hi), ("beta", a_lo, a_hi)])

    wake = Transition(
        "wake",
        change=[1.0, 0.0],
        rate=lambda x, th: th[0] * (1.0 - x[0] - x[1]),
    )
    grab = Transition(
        "grab",
        change=[-1.0, 1.0],
        rate=lambda x, th: th[1] * x[0] * (1.0 - x[1]),
    )
    finish = Transition(
        "finish",
        change=[0.0, -1.0],
        rate=lambda x, th: mu * x[1],
    )

    def affine_drift_batch(x):
        b, t = x[:, 0], x[:, 1]
        n = x.shape[0]
        g0 = np.stack([np.zeros(n), -mu * t], axis=1)
        big_g = np.zeros((n, 2, 2))
        big_g[:, 0, 0] = 1.0 - b - t
        big_g[:, 0, 1] = -b * (1.0 - t)
        big_g[:, 1, 1] = b * (1.0 - t)
        return g0, big_g

    def jacobian_batch(x, theta):
        b, t = x[:, 0], x[:, 1]
        lam, beta = theta[:, 0], theta[:, 1]
        jac = np.empty((x.shape[0], 2, 2))
        jac[:, 0, 0] = -lam - beta * (1.0 - t)
        jac[:, 0, 1] = -lam + beta * b
        jac[:, 1, 0] = beta * (1.0 - t)
        jac[:, 1, 1] = -beta * b - mu
        return jac

    return PopulationModel(
        name="csma_contention",
        state_names=("backlog", "air"),
        transitions=[wake, grab, finish],
        theta_set=theta_set,
        affine_drift_batch=affine_drift_batch,
        drift_jacobian_batch=jacobian_batch,
        state_bounds=([0.0, 0.0], [1.0, 1.0]),
        observables={
            "backlogged": [1.0, 0.0],
            "throughput": [0.0, 1.0],  # airtime fraction ~ goodput
            "active": [1.0, 1.0],
        },
    )
