"""A push–pull gossip / malware-spread model with an imprecise push rate.

An extension population model in the paper's spirit (the introduction
motivates the framework with "a patching (or vaccination) strategy to
counteract an epidemic"): the classical Maki–Thompson rumour dynamics
with re-susceptibility.  ``N`` nodes are *ignorant* (X), *spreaders* (Y)
or *stiflers* (Z = 1 - X - Y):

- *push*: a spreader contacts an ignorant node and converts it,
  aggregate density rate ``theta X Y`` — the contact (push) rate
  ``theta`` is the imprecise parameter, varying in
  ``[theta_min, theta_max]``;
- *stifle*: a spreader contacting an already-informed node (spreader or
  stifler) loses interest, rate ``k Y (Y + Z) = k Y (1 - X)``;
- *forget*: stiflers decay back to ignorance (content churn), rate
  ``delta Z``.

The forgetting loop keeps the dynamics recurrent, so the model has a
non-trivial Birkhoff centre like the paper's SIR example, while the
stifling term ``Y (1 - X)`` gives it a nonlinearity the SIR family does
not exercise.

Reduced state ``x = (X, Y)``:

.. math::
    f_X = \\delta (1 - X - Y) - \\theta X Y \\\\
    f_Y = \\theta X Y - k Y (1 - X)
"""

from __future__ import annotations

import numpy as np

from repro.params import Interval
from repro.population import PopulationModel, Transition

__all__ = ["make_gossip_model"]


def make_gossip_model(
    k: float = 1.0,
    delta: float = 0.5,
    theta_min: float = 2.0,
    theta_max: float = 4.0,
) -> PopulationModel:
    """Build the reduced two-dimensional gossip model.

    Parameters
    ----------
    k:
        Stifling rate (spreader meets informed node).
    delta:
        Forgetting rate (stifler becomes ignorant again).
    theta_min, theta_max:
        Bounds of the imprecise push (contact) rate.
    """
    for label, value in (("k", k), ("delta", delta)):
        if value < 0:
            raise ValueError(f"rate {label} must be non-negative, got {value}")
    theta_set = Interval(theta_min, theta_max, name="push_rate")

    push = Transition(
        "push",
        change=[-1.0, 1.0],
        rate=lambda x, th: th[0] * x[0] * x[1],
    )
    stifle = Transition(
        "stifle",
        change=[0.0, -1.0],
        rate=lambda x, th: k * x[1] * (1.0 - x[0]),
    )
    forget = Transition(
        "forget",
        change=[1.0, 0.0],
        rate=lambda x, th: delta * (1.0 - x[0] - x[1]),
    )

    def affine_drift_batch(x):
        ig, sp = x[:, 0], x[:, 1]
        g0 = np.stack(
            [delta * (1.0 - ig - sp), -k * sp * (1.0 - ig)], axis=1
        )
        igsp = ig * sp
        big_g = np.stack([-igsp, igsp], axis=1)[:, :, None]
        return g0, big_g

    def jacobian_batch(x, theta):
        ig, sp = x[:, 0], x[:, 1]
        th = theta[:, 0]
        jac = np.empty((x.shape[0], 2, 2))
        jac[:, 0, 0] = -delta - th * sp
        jac[:, 0, 1] = -delta - th * ig
        jac[:, 1, 0] = th * sp + k * sp
        jac[:, 1, 1] = th * ig - k * (1.0 - ig)
        return jac

    return PopulationModel(
        name="gossip_push_pull",
        state_names=("X", "Y"),
        transitions=[push, stifle, forget],
        theta_set=theta_set,
        affine_drift_batch=affine_drift_batch,
        drift_jacobian_batch=jacobian_batch,
        state_bounds=([0.0, 0.0], [1.0, 1.0]),
        observables={
            "ignorant": [1.0, 0.0],
            "spreaders": [0.0, 1.0],
        },
    )
