"""The SIR epidemic model of Section V.

A population of ``N`` nodes, each susceptible (S), infected (I) or
recovered (R).  Events (Section V-A):

- *infection*: a susceptible node is infected from an external source at
  rate ``a`` or by contact with infected nodes at rate ``theta * X_I``;
  aggregate density rate ``a X_S + theta X_S X_I``;
- *recovery*: infected nodes recover at rate ``b`` (density ``b X_I``);
- *loss of immunity*: recovered nodes become susceptible again at rate
  ``c`` (density ``c X_R``).

The contact rate ``theta`` is the imprecise parameter, varying in
``[theta_min, theta_max]``.  Because ``X_S + X_I + X_R = 1`` the model is
two-dimensional; :func:`make_sir_model` builds the reduced ``(S, I)``
model whose drift is Eq. (11) of the paper, and
:func:`make_sir_full_model` keeps the full three compartments (Eq. 10).

Paper parameter values (Section V-A): ``a = 0.1``, ``b = 5``, ``c = 1``,
``theta in [1, 10]``, initial state ``(S, I, R) = (0.7, 0.3, 0)``.
"""

from __future__ import annotations

import numpy as np

from repro.params import Interval
from repro.population import PopulationModel, Transition

__all__ = ["SIR_PAPER_PARAMS", "make_sir_model", "make_sir_full_model"]

#: The exact parameters used throughout Section V of the paper.
SIR_PAPER_PARAMS = {
    "a": 0.1,
    "b": 5.0,
    "c": 1.0,
    "theta_min": 1.0,
    "theta_max": 10.0,
    "x0_full": (0.7, 0.3, 0.0),
    "x0": (0.7, 0.3),
}


def make_sir_model(
    a: float = 0.1,
    b: float = 5.0,
    c: float = 1.0,
    theta_min: float = 1.0,
    theta_max: float = 10.0,
) -> PopulationModel:
    """Build the reduced two-dimensional SIR model (Eq. 11).

    State ``x = (X_S, X_I)`` with ``X_R = 1 - X_S - X_I`` substituted:

    .. math::
        f_S = c - (a + c) X_S - c X_I - \\theta X_S X_I \\\\
        f_I = a X_S + \\theta X_S X_I - b X_I

    The drift is affine in ``theta`` with
    ``G(x) = (-X_S X_I, +X_S X_I)^T``, which is the structure exploited by
    the bang-bang Pontryagin maximiser and the corner-based hull.
    """
    for label, value in (("a", a), ("b", b), ("c", c)):
        if value < 0:
            raise ValueError(f"rate {label} must be non-negative, got {value}")
    theta_set = Interval(theta_min, theta_max, name="contact_rate")

    infection = Transition(
        "infection",
        change=[-1.0, 1.0],
        rate=lambda x, th: a * x[0] + th[0] * x[0] * x[1],
    )
    recovery = Transition(
        "recovery",
        change=[0.0, -1.0],
        rate=lambda x, th: b * x[1],
    )
    immunity_loss = Transition(
        "immunity_loss",
        change=[1.0, 0.0],
        rate=lambda x, th: c * (1.0 - x[0] - x[1]),
    )

    def affine_drift_batch(x):
        # Filled column-by-column (not np.stack): this decomposition is
        # the innermost call of every hull RHS evaluation.
        s, i = x[:, 0], x[:, 1]
        g0 = np.empty_like(x)
        g0[:, 0] = c - (a + c) * s - c * i
        g0[:, 1] = a * s - b * i
        si = s * i
        big_g = np.empty((x.shape[0], 2, 1))
        big_g[:, 0, 0] = -si
        big_g[:, 1, 0] = si
        return g0, big_g

    def jacobian_batch(x, theta):
        s, i = x[:, 0], x[:, 1]
        th = theta[:, 0]
        jac = np.empty((x.shape[0], 2, 2))
        jac[:, 0, 0] = -(a + c) - th * i
        jac[:, 0, 1] = -c - th * s
        jac[:, 1, 0] = a + th * i
        jac[:, 1, 1] = th * s - b
        return jac

    return PopulationModel(
        name="sir_reduced",
        state_names=("S", "I"),
        transitions=[infection, recovery, immunity_loss],
        theta_set=theta_set,
        affine_drift_batch=affine_drift_batch,
        drift_jacobian_batch=jacobian_batch,
        state_bounds=([0.0, 0.0], [1.0, 1.0]),
        observables={
            "S": [1.0, 0.0],
            "I": [0.0, 1.0],
            # X_R = 1 - S - I is affine, not linear; use `sir_recovered`.
        },
    )


def sir_recovered(x) -> float:
    """The recovered proportion ``X_R = 1 - X_S - X_I`` of the reduced model."""
    return 1.0 - float(x[0]) - float(x[1])


def make_sir_full_model(
    a: float = 0.1,
    b: float = 5.0,
    c: float = 1.0,
    theta_min: float = 1.0,
    theta_max: float = 10.0,
) -> PopulationModel:
    """Build the full three-dimensional SIR model (Eq. 10).

    State ``x = (X_S, X_I, X_R)`` on the unit simplex.  The conservation
    ``X_S + X_I + X_R = 1`` is declared and exploited by the tests; the
    reduced model of :func:`make_sir_model` is the projection used by the
    numerics.
    """
    theta_set = Interval(theta_min, theta_max, name="contact_rate")

    infection = Transition(
        "infection",
        change=[-1.0, 1.0, 0.0],
        rate=lambda x, th: a * x[0] + th[0] * x[0] * x[1],
    )
    recovery = Transition(
        "recovery",
        change=[0.0, -1.0, 1.0],
        rate=lambda x, th: b * x[1],
    )
    immunity_loss = Transition(
        "immunity_loss",
        change=[1.0, 0.0, -1.0],
        rate=lambda x, th: c * x[2],
    )

    def affine_drift_batch(x):
        s, i, r = x[:, 0], x[:, 1], x[:, 2]
        g0 = np.stack([c * r - a * s, a * s - b * i, b * i - c * r], axis=1)
        si = s * i
        big_g = np.stack([-si, si, np.zeros_like(si)], axis=1)[:, :, None]
        return g0, big_g

    def jacobian_batch(x, theta):
        s, i = x[:, 0], x[:, 1]
        th = theta[:, 0]
        jac = np.zeros((x.shape[0], 3, 3))
        jac[:, 0, 0] = -a - th * i
        jac[:, 0, 1] = -th * s
        jac[:, 0, 2] = c
        jac[:, 1, 0] = a + th * i
        jac[:, 1, 1] = th * s - b
        jac[:, 2, 1] = b
        jac[:, 2, 2] = -c
        return jac

    return PopulationModel(
        name="sir_full",
        state_names=("S", "I", "R"),
        transitions=[infection, recovery, immunity_loss],
        theta_set=theta_set,
        affine_drift_batch=affine_drift_batch,
        drift_jacobian_batch=jacobian_batch,
        state_bounds=([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
        conservations=[([1.0, 1.0, 1.0], 1.0)],
        observables={
            "S": [1.0, 0.0, 0.0],
            "I": [0.0, 1.0, 0.0],
            "R": [0.0, 0.0, 1.0],
        },
    )
