"""The generalised-processor-sharing (GPS) network of Section VI.

A closed tandem network: ``N`` applications, split into two classes of
fixed fractions ``n_1 + n_2 = 1``, send jobs to one shared machine of
capacity ``C = c N``.  The machine serves queued jobs with a GPS
discipline: class ``i`` receives a fraction
``phi_i K_i / (phi_1 K_1 + phi_2 K_2)`` of the capacity, where ``K_i`` is
its queue length and ``phi_i`` its weight.  Job sizes of class ``i`` are
exponential with mean ``1 / mu_i``.

Two job-creation scenarios are modelled (Section VI-A):

- **Poisson**: an application that received its completed job waits an
  exponential time of mean ``1 / lambda'_i`` and sends the next job.
  State per class: the queued fraction only.
- **MAP** (Markov arrival process): the application first waits an
  exponential time of mean ``1 / a_i`` to become *active*, then sends the
  job after a further exponential time of mean ``1 / lambda_i``.  State
  per class: queued and idle fractions (active is the complement).

The imprecise parameters are the per-class sending rates
``lambda_i in [lambda_i_min, lambda_i_max]``.  For a fair comparison the
paper couples the two scenarios by matching mean inter-job times:
``1 / lambda'_i = 1 / a_i + 1 / lambda_i`` (:func:`poisson_rate_from_map`).

State normalisation: the model state stores ``q_i = K_i / N`` (fractions
of the *total* population), which keeps unit jump vectors on the count
lattice.  The per-class queue fraction the paper plots is
``Q_i = q_i / n_i``; it is exposed as the linear observables ``"Q1"`` and
``"Q2"``.

Paper parameter values (Section VI-C): ``mu = (5, 1)``,
``phi = (1, 1)``, ``lambda_1 in [1, 7]``, ``lambda_2 in [2, 3]``,
``a = (1, 2)``, initial ``Q_1(0) = Q_2(0) = 0.1``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.params import Box
from repro.population import PopulationModel, Transition

__all__ = [
    "GPS_PAPER_PARAMS",
    "poisson_rate_from_map",
    "make_gps_poisson_model",
    "make_gps_map_model",
    "gps_initial_state_poisson",
    "gps_initial_state_map",
]

#: The exact parameters used in Section VI-C of the paper.
GPS_PAPER_PARAMS = {
    "mu": (5.0, 1.0),
    "phi": (1.0, 1.0),
    "lambda_bounds": ((1.0, 7.0), (2.0, 3.0)),
    "activation": (1.0, 2.0),
    "q0_class_fraction": (0.1, 0.1),
    "horizon": 5.0,
}

#: Denominator floor guarding the GPS share at an empty system.  When both
#: queues are exactly empty no job is in service, so the service rate is
#: zero; the floor makes that limit explicit instead of dividing by zero.
_DENOMINATOR_FLOOR = 1e-12

#: Larger floor used in the *Jacobians* only.  The share's derivatives
#: scale as 1/den^2 and make the costate equation arbitrarily stiff near
#: an empty system; flooring the denominator there regularises the
#: Pontryagin search direction without touching the drift itself (bound
#: values always come from exact forward integration of the drift).
_JACOBIAN_FLOOR = 1e-4


def poisson_rate_from_map(activation_rate: float, send_rate: float) -> float:
    """Poisson sending rate with the same mean inter-job time as a MAP stage.

    The MAP application waits ``Exp(a)`` then ``Exp(lambda)``; the matched
    Poisson application waits a single exponential of the same mean:
    ``1 / lambda' = 1 / a + 1 / lambda``.
    """
    if activation_rate <= 0 or send_rate <= 0:
        raise ValueError("rates must be positive")
    return 1.0 / (1.0 / activation_rate + 1.0 / send_rate)


def _check_common(mu, phi, fractions, capacity):
    mu = tuple(float(v) for v in mu)
    phi = tuple(float(v) for v in phi)
    fractions = tuple(float(v) for v in fractions)
    if len(mu) != 2 or len(phi) != 2 or len(fractions) != 2:
        raise ValueError("mu, phi and fractions must each have two entries")
    if min(mu) <= 0 or min(phi) <= 0:
        raise ValueError("service rates and GPS weights must be positive")
    if min(fractions) <= 0 or abs(sum(fractions) - 1.0) > 1e-12:
        raise ValueError("class fractions must be positive and sum to 1")
    if capacity <= 0:
        raise ValueError("normalised capacity must be positive")
    return mu, phi, fractions, float(capacity)


def _gps_share_rate_batch(q1, q2, mu_i, phi_i, q_i, phi, capacity):
    """Density-scaled GPS service rate of one class at queue state (q1, q2).

    Elementwise over parallel queue-state vectors (scalars give a 0-d
    array).  Queue values are clamped at zero before forming the share:
    the GPS share is only defined on the admissible orthant, and the
    clamped extension keeps the drift bounded (``<= c mu_i``) when
    fixed-step integrators overshoot the boundary by a step — the raw
    extension has a pole at ``phi . q = 0`` that destabilises forward
    sweeps.  Where the clamped denominator is at most
    :data:`_DENOMINATOR_FLOOR` no job is in service and the rate is
    zero; the floor only replaces the denominator there, so every other
    element is the plain quotient.
    """
    q1 = np.maximum(q1, 0.0)
    q2 = np.maximum(q2, 0.0)
    q_i = np.maximum(q_i, 0.0)
    denominator = phi[0] * q1 + phi[1] * q2
    safe = np.maximum(denominator, _DENOMINATOR_FLOOR)
    return np.where(
        denominator <= _DENOMINATOR_FLOOR,
        0.0,
        capacity * mu_i * phi_i * q_i / safe,
    )


def make_gps_poisson_model(
    mu: Sequence[float] = GPS_PAPER_PARAMS["mu"],
    phi: Sequence[float] = GPS_PAPER_PARAMS["phi"],
    lambda_bounds: Sequence[Tuple[float, float]] = None,
    fractions: Sequence[float] = (0.5, 0.5),
    capacity: float = 0.5,
) -> PopulationModel:
    """Build the Poisson-arrivals GPS model (state ``(q1, q2)``).

    ``lambda_bounds`` are the bounds of the *Poisson* sending rates
    ``lambda'_i``.  When omitted they are derived from the paper's MAP
    parameters through :func:`poisson_rate_from_map`, exactly as
    Section VI-C does.

    Drift (per class ``i``, with ``Q_i = q_i / n_i``):

    .. math::
        \\dot q_i = \\lambda'_i (n_i - q_i)
                    - c \\mu_i \\phi_i q_i / (\\phi_1 q_1 + \\phi_2 q_2)
    """
    mu, phi, fractions, capacity = _check_common(mu, phi, fractions, capacity)
    if lambda_bounds is None:
        lambda_bounds = tuple(
            (
                poisson_rate_from_map(a_i, lo),
                poisson_rate_from_map(a_i, hi),
            )
            for a_i, (lo, hi) in zip(
                GPS_PAPER_PARAMS["activation"], GPS_PAPER_PARAMS["lambda_bounds"]
            )
        )
    (lo1, hi1), (lo2, hi2) = lambda_bounds
    theta_set = Box([("lambda1", lo1, hi1), ("lambda2", lo2, hi2)])
    n1, n2 = fractions

    creation_1 = Transition(
        "creation_1",
        change=[1.0, 0.0],
        rate=lambda x, th: th[0] * np.maximum(n1 - x[0], 0.0),
    )
    creation_2 = Transition(
        "creation_2",
        change=[0.0, 1.0],
        rate=lambda x, th: th[1] * np.maximum(n2 - x[1], 0.0),
    )
    service_1 = Transition(
        "service_1",
        change=[-1.0, 0.0],
        rate=lambda x, th: _gps_share_rate_batch(
            x[0], x[1], mu[0], phi[0], x[0], phi, capacity
        ),
    )
    service_2 = Transition(
        "service_2",
        change=[0.0, -1.0],
        rate=lambda x, th: _gps_share_rate_batch(
            x[0], x[1], mu[1], phi[1], x[1], phi, capacity
        ),
    )

    def affine_drift_batch(x):
        q1, q2 = x[:, 0], x[:, 1]
        n = x.shape[0]
        s1 = _gps_share_rate_batch(q1, q2, mu[0], phi[0], q1, phi, capacity)
        s2 = _gps_share_rate_batch(q1, q2, mu[1], phi[1], q2, phi, capacity)
        g0 = np.stack([-s1, -s2], axis=1)
        big_g = np.zeros((n, 2, 2))
        big_g[:, 0, 0] = np.maximum(n1 - q1, 0.0)
        big_g[:, 1, 1] = np.maximum(n2 - q2, 0.0)
        return g0, big_g

    def jacobian_batch(x, theta):
        q1 = np.maximum(x[:, 0], 0.0)
        q2 = np.maximum(x[:, 1], 0.0)
        lam1, lam2 = theta[:, 0], theta[:, 1]
        den = np.maximum(phi[0] * q1 + phi[1] * q2, _JACOBIAN_FLOOR)
        den2 = den ** 2
        jac = np.empty((x.shape[0], 2, 2))
        jac[:, 0, 0] = -lam1 - capacity * mu[0] * phi[0] * (den - q1 * phi[0]) / den2
        jac[:, 0, 1] = capacity * mu[0] * phi[0] * q1 * phi[1] / den2
        jac[:, 1, 0] = capacity * mu[1] * phi[1] * q2 * phi[0] / den2
        jac[:, 1, 1] = -lam2 - capacity * mu[1] * phi[1] * (den - q2 * phi[1]) / den2
        return jac

    return PopulationModel(
        name="gps_poisson",
        state_names=("q1", "q2"),
        transitions=[creation_1, creation_2, service_1, service_2],
        theta_set=theta_set,
        affine_drift_batch=affine_drift_batch,
        drift_jacobian_batch=jacobian_batch,
        state_bounds=([0.0, 0.0], [n1, n2]),
        observables={
            "Q1": [1.0 / n1, 0.0],
            "Q2": [0.0, 1.0 / n2],
            "Qtotal": [1.0 / n1, 1.0 / n2],
        },
    )


def make_gps_map_model(
    mu: Sequence[float] = GPS_PAPER_PARAMS["mu"],
    phi: Sequence[float] = GPS_PAPER_PARAMS["phi"],
    lambda_bounds: Sequence[Tuple[float, float]] = GPS_PAPER_PARAMS["lambda_bounds"],
    activation: Sequence[float] = GPS_PAPER_PARAMS["activation"],
    fractions: Sequence[float] = (0.5, 0.5),
    capacity: float = 0.5,
) -> PopulationModel:
    """Build the MAP-arrivals GPS model (state ``(q1, e1, q2, e2)``).

    Per class ``i``: ``q_i`` queued fraction, ``e_i`` idle fraction and
    ``alpha_i = n_i - q_i - e_i`` active fraction (all of the total
    population).  Events: *send* (active -> queued, rate
    ``lambda_i alpha_i``), *service* (queued -> idle, GPS rate) and
    *activate* (idle -> active, rate ``a_i e_i``).  The imprecise
    parameters are the sending rates ``lambda_i``.
    """
    mu, phi, fractions, capacity = _check_common(mu, phi, fractions, capacity)
    activation = tuple(float(v) for v in activation)
    if len(activation) != 2 or min(activation) <= 0:
        raise ValueError("activation must hold two positive rates")
    (lo1, hi1), (lo2, hi2) = lambda_bounds
    theta_set = Box([("lambda1", lo1, hi1), ("lambda2", lo2, hi2)])
    n1, n2 = fractions

    def active(x, class_index: int):
        if class_index == 0:
            return np.maximum(n1 - x[0] - x[1], 0.0)
        return np.maximum(n2 - x[2] - x[3], 0.0)

    send_1 = Transition(
        "send_1",
        change=[1.0, 0.0, 0.0, 0.0],
        rate=lambda x, th: th[0] * active(x, 0),
    )
    send_2 = Transition(
        "send_2",
        change=[0.0, 0.0, 1.0, 0.0],
        rate=lambda x, th: th[1] * active(x, 1),
    )
    service_1 = Transition(
        "service_1",
        change=[-1.0, 1.0, 0.0, 0.0],
        rate=lambda x, th: _gps_share_rate_batch(
            x[0], x[2], mu[0], phi[0], x[0], phi, capacity
        ),
    )
    service_2 = Transition(
        "service_2",
        change=[0.0, 0.0, -1.0, 1.0],
        rate=lambda x, th: _gps_share_rate_batch(
            x[0], x[2], mu[1], phi[1], x[2], phi, capacity
        ),
    )
    activate_1 = Transition(
        "activate_1",
        change=[0.0, -1.0, 0.0, 0.0],
        rate=lambda x, th: activation[0] * x[1],
    )
    activate_2 = Transition(
        "activate_2",
        change=[0.0, 0.0, 0.0, -1.0],
        rate=lambda x, th: activation[1] * x[3],
    )

    def affine_drift_batch(x):
        q1, e1, q2, e2 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
        n = x.shape[0]
        s1 = _gps_share_rate_batch(q1, q2, mu[0], phi[0], q1, phi, capacity)
        s2 = _gps_share_rate_batch(q1, q2, mu[1], phi[1], q2, phi, capacity)
        g0 = np.stack(
            [
                -s1,
                s1 - activation[0] * e1,
                -s2,
                s2 - activation[1] * e2,
            ],
            axis=1,
        )
        big_g = np.zeros((n, 4, 2))
        big_g[:, 0, 0] = np.maximum(n1 - q1 - e1, 0.0)
        big_g[:, 2, 1] = np.maximum(n2 - q2 - e2, 0.0)
        return g0, big_g

    def jacobian_batch(x, theta):
        q1 = np.maximum(x[:, 0], 0.0)
        q2 = np.maximum(x[:, 2], 0.0)
        lam1, lam2 = theta[:, 0], theta[:, 1]
        den = np.maximum(phi[0] * q1 + phi[1] * q2, _JACOBIAN_FLOOR)
        den2 = den ** 2
        ds1_dq1 = capacity * mu[0] * phi[0] * (den - q1 * phi[0]) / den2
        ds1_dq2 = -capacity * mu[0] * phi[0] * q1 * phi[1] / den2
        ds2_dq1 = -capacity * mu[1] * phi[1] * q2 * phi[0] / den2
        ds2_dq2 = capacity * mu[1] * phi[1] * (den - q2 * phi[1]) / den2
        jac = np.zeros((x.shape[0], 4, 4))
        jac[:, 0, 0] = -lam1 - ds1_dq1
        jac[:, 0, 1] = -lam1
        jac[:, 0, 2] = -ds1_dq2
        jac[:, 1, 0] = ds1_dq1
        jac[:, 1, 1] = -activation[0]
        jac[:, 1, 2] = ds1_dq2
        jac[:, 2, 0] = -ds2_dq1
        jac[:, 2, 2] = -lam2 - ds2_dq2
        jac[:, 2, 3] = -lam2
        jac[:, 3, 0] = ds2_dq1
        jac[:, 3, 2] = ds2_dq2
        jac[:, 3, 3] = -activation[1]
        return jac

    return PopulationModel(
        name="gps_map",
        state_names=("q1", "e1", "q2", "e2"),
        transitions=[send_1, send_2, service_1, service_2, activate_1, activate_2],
        theta_set=theta_set,
        affine_drift_batch=affine_drift_batch,
        drift_jacobian_batch=jacobian_batch,
        state_bounds=([0.0, 0.0, 0.0, 0.0], [n1, n1, n2, n2]),
        observables={
            "Q1": [1.0 / n1, 0.0, 0.0, 0.0],
            "Q2": [0.0, 0.0, 1.0 / n2, 0.0],
            "Qtotal": [1.0 / n1, 0.0, 1.0 / n2, 0.0],
            "E1": [0.0, 1.0 / n1, 0.0, 0.0],
            "E2": [0.0, 0.0, 0.0, 1.0 / n2],
        },
    )


def gps_initial_state_poisson(
    q0_class_fraction: Sequence[float] = GPS_PAPER_PARAMS["q0_class_fraction"],
    fractions: Sequence[float] = (0.5, 0.5),
) -> np.ndarray:
    """Initial ``(q1, q2)`` matching the paper's ``Q_i(0) = 0.1``."""
    big_q = np.asarray(q0_class_fraction, dtype=float)
    n = np.asarray(fractions, dtype=float)
    return big_q * n


def gps_initial_state_map(
    q0_class_fraction: Sequence[float] = GPS_PAPER_PARAMS["q0_class_fraction"],
    e0_class_fraction: Sequence[float] = (0.0, 0.0),
    fractions: Sequence[float] = (0.5, 0.5),
) -> np.ndarray:
    """Initial ``(q1, e1, q2, e2)`` for the MAP model.

    The paper fixes only ``Q_i(0) = 0.1``; the idle fractions default to
    zero (all non-queued applications start active), which is the
    least-delay initialisation.
    """
    big_q = np.asarray(q0_class_fraction, dtype=float)
    big_e = np.asarray(e0_class_fraction, dtype=float)
    n = np.asarray(fractions, dtype=float)
    return np.array([big_q[0] * n[0], big_e[0] * n[0], big_q[1] * n[1], big_e[1] * n[1]])
