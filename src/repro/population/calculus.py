"""Numerical calculus helpers for population models."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import telemetry

__all__ = [
    "numeric_jacobian",
    "check_affine_decomposition",
    "validated_batch_eval",
]


def validated_batch_eval(batch_fn: Callable, scalar_fn: Callable, n: int,
                         status, can_validate: bool, clamp: bool = True):
    """Evaluate a user rate function over a batch with lazy validation.

    Shared heuristic behind
    :meth:`~repro.population.PopulationModel.transition_rates_batch`,
    :meth:`~repro.population.PopulationModel.drift_batch` and the
    random-jump policy lane: user rate functions are written against
    scalar coordinates, so the batched (coordinate-major) call is only
    trusted after it has reproduced the per-row scalar evaluation once.

    Parameters
    ----------
    batch_fn:
        Zero-argument thunk invoking the user function on the
        coordinate-major batch; its result should be ``(n,)``.
    scalar_fn:
        Zero-argument thunk evaluating the same rows one-by-one through
        the scalar path (always correct, already clamped when ``clamp``).
    n:
        Number of batch rows.
    status:
        Tri-state verdict so far: ``True`` (validated), ``False``
        (fall back forever), ``None`` (unknown).
    can_validate:
        Whether this batch can discriminate a broken vectorization —
        callers pass ``True`` only for batches of two or more *distinct*
        rows.  On an all-identical batch, normalisation-invariant
        pooling mistakes (``np.mean`` over all rows) coincide with the
        correct value, so validating there would wrongly bless them.
    clamp:
        Clamp batched values non-negative (the SSA rate convention).
        Drift evaluations pass ``False``: the drift uses the *raw* rates
        so it stays smooth across the state-space boundary, and the
        scalar reference path is then expected to be unclamped too.

    Returns
    -------
    ``(values, new_status)`` — ``values`` of shape ``(n,)`` (clamped
    non-negative when ``clamp``), and the updated tri-state (``None``
    means "still unknown", i.e. validation was deferred).
    """
    if status is False or (status is None and not can_validate):
        return scalar_fn(), status
    try:
        raw = np.asarray(batch_fn(), dtype=float)
        # 0-d results are ambiguous (a constant, or a full reduction
        # such as np.sum pooling every row); both take the fallback.
        if raw.ndim == 0 or raw.shape != (n,):
            raise ValueError("batched rate has wrong shape")
    except Exception:
        # The user function cannot take arrays (or pooled them): fall
        # back to the scalar path forever, stamping the rejection so an
        # unexpectedly slow run is diagnosable from the metrics.
        telemetry.inc("calculus.batch_rejections")
        return scalar_fn(), False
    values = np.maximum(raw, 0.0) if clamp else raw
    if status is None:
        scalar = scalar_fn()
        if not np.allclose(values, scalar, rtol=1e-9, atol=1e-12,
                           equal_nan=True):
            return scalar, False
        return values, True
    return values, True


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
