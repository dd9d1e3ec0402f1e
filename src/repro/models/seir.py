"""A SEIR epidemic extension model.

Not part of the paper's evaluation; included to exercise the library on a
three-dimensional system (the paper's numerics are all at most 2-D on the
imprecise side) and to support the epidemic-response example.  The model
adds an *exposed* compartment to the SIR dynamics of Section V:
a contact infects a susceptible node into the exposed (latent) state,
which becomes infectious at rate ``sigma``.

Reduced state ``(S, E, I)`` with ``R = 1 - S - E - I``:

.. math::
    \\dot S = c (1 - S - E - I) - a S - \\theta S I \\\\
    \\dot E = a S + \\theta S I - \\sigma E \\\\
    \\dot I = \\sigma E - b I

where ``theta in [theta_min, theta_max]`` is the imprecise contact rate.
"""

from __future__ import annotations

import numpy as np

from repro.params import Interval
from repro.population import PopulationModel, Transition

__all__ = ["make_seir_model"]


def make_seir_model(
    a: float = 0.1,
    b: float = 5.0,
    c: float = 1.0,
    sigma: float = 2.0,
    theta_min: float = 1.0,
    theta_max: float = 10.0,
) -> PopulationModel:
    """Build the reduced three-dimensional SEIR model.

    Parameters mirror :func:`repro.models.sir.make_sir_model` with the
    extra incubation rate ``sigma``.
    """
    for label, value in (("a", a), ("b", b), ("c", c), ("sigma", sigma)):
        if value < 0:
            raise ValueError(f"rate {label} must be non-negative, got {value}")
    theta_set = Interval(theta_min, theta_max, name="contact_rate")

    exposure = Transition(
        "exposure",
        change=[-1.0, 1.0, 0.0],
        rate=lambda x, th: a * x[0] + th[0] * x[0] * x[2],
    )
    incubation = Transition(
        "incubation",
        change=[0.0, -1.0, 1.0],
        rate=lambda x, th: sigma * x[1],
    )
    recovery = Transition(
        "recovery",
        change=[0.0, 0.0, -1.0],
        rate=lambda x, th: b * x[2],
    )
    immunity_loss = Transition(
        "immunity_loss",
        change=[1.0, 0.0, 0.0],
        rate=lambda x, th: c * (1.0 - x[0] - x[1] - x[2]),
    )

    def affine_drift_batch(x):
        s, e, i = x[:, 0], x[:, 1], x[:, 2]
        g0 = np.stack(
            [
                c * (1.0 - s - e - i) - a * s,
                a * s - sigma * e,
                sigma * e - b * i,
            ],
            axis=1,
        )
        si = s * i
        big_g = np.stack([-si, si, np.zeros_like(si)], axis=1)[:, :, None]
        return g0, big_g

    def jacobian_batch(x, theta):
        s, i = x[:, 0], x[:, 2]
        th = theta[:, 0]
        jac = np.zeros((x.shape[0], 3, 3))
        jac[:, 0, 0] = -c - a - th * i
        jac[:, 0, 1] = -c
        jac[:, 0, 2] = -c - th * s
        jac[:, 1, 0] = a + th * i
        jac[:, 1, 1] = -sigma
        jac[:, 1, 2] = th * s
        jac[:, 2, 1] = sigma
        jac[:, 2, 2] = -b
        return jac

    return PopulationModel(
        name="seir_reduced",
        state_names=("S", "E", "I"),
        transitions=[exposure, incubation, recovery, immunity_loss],
        theta_set=theta_set,
        affine_drift_batch=affine_drift_batch,
        drift_jacobian_batch=jacobian_batch,
        state_bounds=([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
        observables={
            "S": [1.0, 0.0, 0.0],
            "E": [0.0, 1.0, 0.0],
            "I": [0.0, 0.0, 1.0],
        },
    )
