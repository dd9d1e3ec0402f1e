"""Uncertain-scenario envelopes by parameter sweeps.

In the *uncertain* scenario the parameter is constant in time, so by
Corollary 1 the limiting behaviours are exactly the solutions of the ODE
family ``x' = f(x, theta)`` for ``theta in Theta``.  The envelope

.. math::
    x^{uncertain}_i(t) = \\max_{\\theta} x^{\\theta}_i(t)

is computed here by "numerical exploration of all the parameters theta"
(Section V-B of the paper): integrate the ODE on a grid of ``Theta`` and
take pointwise extrema.  The returned :class:`UncertainEnvelope` records
which constant parameter attains each bound at each time, which is what
lets Figure 1 say *the imprecise maximum exceeds the uncertain maximum
attained by any constant parameter*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.ode import dopri_batch, rk4_step

__all__ = ["UncertainEnvelope", "uncertain_envelope"]


@dataclass
class UncertainEnvelope:
    """Pointwise extrema of linear observables over constant parameters.

    Attributes
    ----------
    times:
        Shared time grid, shape ``(n,)``.
    lower, upper:
        Per-observable bound series, each shape ``(n,)``.
    argmin_theta, argmax_theta:
        The constant parameter attaining each bound at each time,
        shape ``(n, theta_dim)``.
    thetas:
        The swept parameter grid, shape ``(m, theta_dim)``.
    """

    times: np.ndarray
    lower: Dict[str, np.ndarray] = field(default_factory=dict)
    upper: Dict[str, np.ndarray] = field(default_factory=dict)
    argmin_theta: Dict[str, np.ndarray] = field(default_factory=dict)
    argmax_theta: Dict[str, np.ndarray] = field(default_factory=dict)
    thetas: Optional[np.ndarray] = None

    @property
    def observable_names(self):
        return sorted(self.lower)

    def width(self, name: str) -> np.ndarray:
        """Envelope width ``upper - lower`` of one observable."""
        return self.upper[name] - self.lower[name]

    def final_bounds(self, name: str):
        """``(lower, upper)`` of one observable at the last time point."""
        return float(self.lower[name][-1]), float(self.upper[name][-1])


def _resolve_weights(model, observables) -> Dict[str, np.ndarray]:
    """Build the ``name -> weight-vector`` map for the requested observables."""
    if observables is None:
        if model.observables:
            return {k: np.asarray(v, float) for k, v in model.observables.items()}
        return {
            name: np.eye(model.dim)[i] for i, name in enumerate(model.state_names)
        }
    weights = {}
    for entry in observables:
        if isinstance(entry, str):
            if entry in model.observables:
                weights[entry] = np.asarray(model.observables[entry], float)
            elif entry in model.state_names:
                weights[entry] = np.eye(model.dim)[model.state_names.index(entry)]
            else:
                raise KeyError(
                    f"unknown observable {entry!r}; model offers "
                    f"{sorted(model.observables) + list(model.state_names)}"
                )
        else:
            name, vector = entry
            vector = np.asarray(vector, dtype=float)
            if vector.shape != (model.dim,):
                raise ValueError(f"observable {name!r}: weight shape {vector.shape}")
            weights[str(name)] = vector
    return weights


def _rk4_sweep_batch(model, x0, rk4_grid, thetas) -> np.ndarray:
    """Advance every constant-theta lane through one shared RK4 grid.

    Returns the state stack of shape ``(m, n_grid, d)``.  Each RK4 step
    is a single :meth:`drift_batch` evaluation over the ``(m, d)`` state
    matrix — the per-lane arithmetic is element-wise identical to a
    one-theta RK4 integration, so lanes match it bit for bit.
    """
    thetas = np.asarray(thetas, dtype=float)
    m = thetas.shape[0]
    x = np.broadcast_to(np.asarray(x0, dtype=float), (m, model.dim)).copy()
    states = np.empty((m, rk4_grid.shape[0], model.dim))
    states[:, 0, :] = x

    def field(t, state_stack):
        return model.drift_batch(state_stack, thetas)

    for i in range(rk4_grid.shape[0] - 1):
        dt = rk4_grid[i + 1] - rk4_grid[i]
        x = rk4_step(field, rk4_grid[i], x, dt)
        states[:, i + 1, :] = x
    return states


def uncertain_envelope(
    model,
    x0,
    t_eval,
    resolution: int = 15,
    observables: Optional[Sequence] = None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    integrator: str = "adaptive",
    rk4_steps: int = 400,
) -> UncertainEnvelope:
    with telemetry.span("envelope.sweep", integrator=integrator,
                        resolution=resolution) as sp:
        env = _uncertain_envelope_impl(
            model, x0, t_eval, resolution=resolution,
            observables=observables, rtol=rtol, atol=atol,
            integrator=integrator, rk4_steps=rk4_steps,
        )
        sp.set("thetas", env.thetas.shape[0])
    telemetry.inc("envelope.theta_solves", env.thetas.shape[0])
    return env


def _uncertain_envelope_impl(
    model,
    x0,
    t_eval,
    resolution: int = 15,
    observables: Optional[Sequence] = None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    integrator: str = "adaptive",
    rk4_steps: int = 400,
) -> UncertainEnvelope:
    """Sweep constant parameters and envelope the observables.

    Parameters
    ----------
    model:
        The population model (provides drift and ``Theta``).
    x0:
        Initial state of the mean-field ODEs.
    t_eval:
        Time grid for the envelope.
    resolution:
        Grid points per parameter axis; the sweep also always includes
        the corners of ``Theta``.  Cost grows as ``resolution ** dim``.
    observables:
        Which linear observables to envelope: names of model observables
        or state coordinates, or ``(name, weights)`` pairs.  Defaults to
        the model's declared observables (or raw coordinates).
    integrator:
        ``"adaptive"`` (Dormand–Prince 5(4) with error control, the
        accurate default) or ``"rk4"`` (fixed-grid classical RK4 with
        ``rk4_steps`` steps).
        Models with *discontinuous* boundary rates — the bike-sharing
        station, whose drift slides on the occupancy boundary — defeat
        adaptive error control (the step size collapses on the sliding
        surface and the solve never returns); the fixed-step integrator
        crosses the discontinuity with bounded chatter instead, exactly
        as the Pontryagin forward sweeps do.

    All thetas advance simultaneously.  With the ``rk4`` integrator
    every RK4 stage is one :meth:`drift_batch` call over the whole
    theta grid.  With the ``adaptive`` integrator the grid goes through
    :func:`~repro.ode.dopri_batch`: every lane keeps its *own* adaptive
    step size and error control inside one vectorized solver loop (the
    Dormand–Prince 5(4) pair of scipy's ``RK45``), at the distinct
    times of ``t_eval``; a repeated time reads its time's sample, as on
    the ``rk4`` grid.  A degenerate horizon (``t_eval[0] == t_eval[-1]``)
    returns the constant ``x0`` envelope.
    """
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1 or t_eval.shape[0] < 1:
        raise ValueError("t_eval must be a non-empty 1-D array")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    weights = _resolve_weights(model, observables)

    thetas = np.vstack([model.theta_set.grid(resolution), model.theta_set.corners()])
    # De-duplicate rows (corners usually coincide with grid extremes).
    thetas = np.unique(thetas, axis=0)

    n_t = t_eval.shape[0]
    values = {name: np.empty((thetas.shape[0], n_t)) for name in weights}
    t_span = (float(t_eval[0]), float(t_eval[-1]))
    if integrator not in ("adaptive", "rk4"):
        raise ValueError(f"unknown integrator {integrator!r}")
    descending = t_span[0] > t_span[1]
    rk4_grid = None
    if integrator == "rk4" and t_span[0] != t_span[1]:
        rk4_grid = np.union1d(
            np.linspace(t_span[0], t_span[1], int(rk4_steps) + 1), t_eval
        )
        if descending:
            # union1d re-sorts ascending; restore the caller's direction
            # so the fixed grid integrates backward from x0 at
            # t_eval[0], exactly as the adaptive path does.
            rk4_grid = rk4_grid[::-1]
    if t_span[0] == t_span[1]:
        # Degenerate horizon: every lane stays at x0.
        states = np.asarray(x0, float)[None, :].repeat(n_t, axis=0)
        for name, w in weights.items():
            values[name][:] = states @ w
    elif rk4_grid is not None:
        # t_eval points are grid members by construction, so selecting
        # them exactly reproduces what np.interp returns at grid nodes.
        ascending = rk4_grid[::-1] if descending else rk4_grid
        pick = np.searchsorted(ascending, t_eval)
        if descending:
            pick = rk4_grid.shape[0] - 1 - pick
        states_stack = _rk4_sweep_batch(model, x0, rk4_grid,
                                        thetas)[:, pick, :]
        for name, w in weights.items():
            values[name] = states_stack @ w
    else:
        m = thetas.shape[0]
        x0_stack = np.broadcast_to(np.asarray(x0, dtype=float),
                                   (m, model.dim))

        def field(t, state_stack, theta_stack):
            return model.drift_batch(state_stack, theta_stack)

        # dopri_batch takes strictly monotone times: solve at the
        # distinct ones, then index each entry of t_eval back to its
        # sample.
        fresh = np.concatenate(([True], np.diff(t_eval) != 0))
        sol = dopri_batch(field, x0_stack, t_span, t_eval=t_eval[fresh],
                          rtol=rtol, atol=atol, lane_args=thetas)
        for name, w in weights.items():
            values[name] = (sol.states @ w)[:, np.cumsum(fresh) - 1]

    result = UncertainEnvelope(times=t_eval.copy(), thetas=thetas)
    for name in weights:
        arr = values[name]
        k_min = np.argmin(arr, axis=0)
        k_max = np.argmax(arr, axis=0)
        result.lower[name] = arr[k_min, np.arange(n_t)]
        result.upper[name] = arr[k_max, np.arange(n_t)]
        result.argmin_theta[name] = thetas[k_min]
        result.argmax_theta[name] = thetas[k_max]
    return result


uncertain_envelope.__doc__ = _uncertain_envelope_impl.__doc__
