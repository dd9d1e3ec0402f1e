"""Numerical calculus helpers for population models."""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "numeric_jacobian",
    "check_affine_decomposition",
]


def numeric_jacobian(f: Callable, x, eps: float = 1e-7) -> np.ndarray:
    """Central finite-difference Jacobian of ``f`` at ``x``.

    ``f`` maps an ``(d,)`` vector to an ``(m,)`` vector; the result has
    shape ``(m, d)``.  Used as the fallback for the Pontryagin costate
    equation when a model does not provide an analytic Jacobian.
    """
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    jac = np.empty((f0.shape[0], x.shape[0]))
    for j in range(x.shape[0]):
        step = eps * max(1.0, abs(float(x[j])))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        jac[:, j] = (np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (
            2.0 * step
        )
    return jac


def check_affine_decomposition(model, x, rng=None, n_samples: int = 16,
                               tol: float = 1e-8) -> bool:
    """Verify that a model's declared affine decomposition matches its drift.

    Draws ``n_samples`` parameters from ``model.theta_set`` and checks
    ``drift(x, theta) == g0(x) + G(x) @ theta`` to within ``tol``, where
    ``(g0, G)`` is the one-row view of the declared
    ``affine_drift_batch``.  Raises ``AssertionError`` with a diagnostic
    on mismatch — including the mismatch the model's own first-call
    check reports at the centre of ``Theta`` — and returns ``True``
    otherwise.  Used by the model test-suites: a wrong affine
    decomposition silently corrupts every bound computed from it.
    """
    if not model.is_affine:
        raise ValueError(f"model {model.name!r} declares no affine decomposition")
    if rng is None:
        rng = np.random.default_rng(0)
    x = np.asarray(x, dtype=float)
    try:
        g0, big_g = model.affine_parts(x)
    except ValueError as exc:
        raise AssertionError(str(exc)) from exc
    thetas = model.theta_set.sample(rng, n_samples)
    for theta in thetas:
        direct = model.drift(x, theta)
        reconstructed = g0 + big_g @ theta
        err = float(np.max(np.abs(direct - reconstructed)))
        if err > tol:
            raise AssertionError(
                f"model {model.name!r}: affine decomposition mismatch at "
                f"x={x.tolist()}, theta={theta.tolist()}: error {err:.3e}"
            )
    return True
