"""Numerical calculus helpers for population models."""

from __future__ import annotations

import numpy as np

__all__ = ["check_affine_decomposition"]


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
