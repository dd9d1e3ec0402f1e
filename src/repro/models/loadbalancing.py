"""Power-of-two-choices load balancing with an imprecise arrival rate.

An extension model addressing the paper's closing remark ("we will …
test the approach on larger models, to properly understand its
scalability"): the classical supermarket model is the canonical
mean-field system whose state dimension is a free knob, so it is the
natural scalability probe for the bound machinery.

``n`` identical servers; jobs arrive at total rate ``N * lambda(t)``
with ``lambda(t)`` imprecise in an interval; each job samples ``d``
servers uniformly (``d = 2`` by default) and joins the shortest of them;
service is exponential at rate ``mu``.  In the standard *tail*
coordinates ``x_k = fraction of servers with at least k jobs``
(``k = 1..K``, truncated at buffer ``K``), the mean-field drift is

.. math::
    \\dot x_k = \\lambda (x_{k-1}^d - x_k^d) - \\mu (x_k - x_{k+1}),

with ``x_0 = 1`` and ``x_{K+1} = 0``.  The drift is affine in
``lambda`` with coefficient vector ``(x_{k-1}^d - x_k^d)_k``, so the
whole Section IV toolbox applies at any truncation depth ``K``.
"""

from __future__ import annotations

import numpy as np

from repro.params import Interval
from repro.population import PopulationModel, Transition

__all__ = ["make_power_of_d_model"]


def make_power_of_d_model(
    buffer_depth: int = 10,
    choices: int = 2,
    mu: float = 1.0,
    arrival_bounds=(0.7, 0.95),
) -> PopulationModel:
    """Build the truncated power-of-``d``-choices model.

    Parameters
    ----------
    buffer_depth:
        Truncation level ``K``; the state is ``(x_1, ..., x_K)``.
    choices:
        Number of sampled servers per arrival (``d >= 1``; ``d = 1`` is
        random routing, ``d = 2`` the classical supermarket model).
    mu:
        Service rate.
    arrival_bounds:
        The imprecise arrival-rate interval (load per server); keep the
        upper bound below ``mu`` for a stable system.
    """
    if buffer_depth < 1:
        raise ValueError("buffer_depth must be >= 1")
    if choices < 1:
        raise ValueError("choices must be >= 1")
    if mu <= 0:
        raise ValueError("mu must be positive")
    lo, hi = float(arrival_bounds[0]), float(arrival_bounds[1])
    theta_set = Interval(lo, hi, name="arrival_rate")
    dim = int(buffer_depth)
    d = int(choices)

    def tail(x, k: int):
        """``x_k`` with the boundary conventions ``x_0 = 1``, ``x_{K+1} = 0``.

        Works coordinate-wise on both a single state vector and the
        coordinate-major ``(d, n)`` batches of the vectorized engine, so
        the rates below vectorize transparently.
        """
        if k <= 0:
            return 1.0
        if k > dim:
            return 0.0
        return x[k - 1]

    transitions = []
    for k in range(1, dim + 1):
        arrival_change = np.zeros(dim)
        arrival_change[k - 1] = 1.0
        # Arrival raising a level-(k-1) server to level k: happens when
        # the shortest sampled server has exactly k-1 jobs.
        transitions.append(
            Transition(
                f"arrival_to_{k}",
                change=arrival_change,
                rate=(lambda kk: (
                    lambda x, th: th[0]
                    * np.maximum(tail(x, kk - 1) ** d - tail(x, kk) ** d, 0.0)
                ))(k),
            )
        )
        service_change = np.zeros(dim)
        service_change[k - 1] = -1.0
        transitions.append(
            Transition(
                f"service_from_{k}",
                change=service_change,
                rate=(lambda kk: (
                    lambda x, th: mu
                    * np.maximum(tail(x, kk) - tail(x, kk + 1), 0.0)
                ))(k),
            )
        )

    def affine_drift_batch(x):
        n = x.shape[0]
        # Columns of `padded` are the tails x_0 .. x_{K+1} with the
        # boundary conventions x_0 = 1, x_{K+1} = 0 baked in.
        padded = np.concatenate([np.ones((n, 1)), x, np.zeros((n, 1))], axis=1)
        g0 = -mu * np.maximum(padded[:, 1:dim + 1] - padded[:, 2:dim + 2], 0.0)
        coeff = np.maximum(
            padded[:, 0:dim] ** d - padded[:, 1:dim + 1] ** d, 0.0
        )
        return g0, coeff[:, :, None]

    def jacobian_batch(x, theta):
        lam = theta[:, 0]
        jac = np.zeros((x.shape[0], dim, dim))
        for k in range(1, dim + 1):
            row = k - 1
            if k - 1 >= 1:
                jac[:, row, k - 2] += lam * d * x[:, k - 2] ** (d - 1)
            jac[:, row, k - 1] += -lam * d * x[:, k - 1] ** (d - 1) - mu
            if k + 1 <= dim:
                jac[:, row, k] += mu
        return jac

    return PopulationModel(
        name=f"power_of_{d}_choices",
        state_names=tuple(f"x{k}" for k in range(1, dim + 1)),
        transitions=transitions,
        theta_set=theta_set,
        affine_drift_batch=affine_drift_batch,
        drift_jacobian_batch=jacobian_batch,
        state_bounds=(np.zeros(dim), np.ones(dim)),
        observables={
            "busy_fraction": np.eye(dim)[0],
            "mean_queue_length": np.ones(dim),
        },
    )
