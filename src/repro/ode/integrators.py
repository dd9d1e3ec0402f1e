"""Fixed-grid RK4, the one-lane adaptive solve, and fixed-point location."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Trajectory",
    "rk4_step",
    "rk4_integrate",
    "solve_ode",
    "find_fixed_point",
]

#: Residual level below which an unconverged settle is still *usable* —
#: the iterate is near an equilibrium but the requested tolerance was
#: missed.  Above it the settle is considered to have found nothing.
_SETTLE_ACCEPT_RESIDUAL = 1e-5


def _check_settle_time(settle_time) -> None:
    """Reject a settle time that is not finite and positive.

    A settle integrates forward; a negative one would integrate backward
    and read as a limit cycle, a zero one as no settle at all.
    """
    if not (np.isfinite(settle_time) and settle_time > 0):
        raise ValueError(
            f"settle_time must be finite and positive, got {settle_time}")


@dataclass
class Trajectory:
    """A time-indexed solution of an ODE (or one solution of an inclusion).

    Attributes
    ----------
    times:
        Monotone 1-D array of time points, shape ``(n,)``.
    states:
        State at each time point, shape ``(n, d)``.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim == 1:
            self.states = self.states[:, None]
        if self.times.ndim != 1:
            raise ValueError("times must be 1-D")
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError(
                f"states has {self.states.shape[0]} rows for "
                f"{self.times.shape[0]} time points"
            )

    @property
    def dim(self) -> int:
        """State dimension."""
        return self.states.shape[1]

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1].copy()

    def __len__(self) -> int:
        return self.times.shape[0]

    def __call__(self, t) -> np.ndarray:
        """Linear interpolation of the state at time(s) ``t``.

        Works for decreasing-time trajectories too (backward costate
        solves produce them): the interpolation runs on the reversed
        view, so queries are answered in the trajectory's own time
        coordinates.  All dimensions are gathered in one vectorized
        ``searchsorted`` pass (out-of-range queries clamp to the
        endpoint states, matching ``np.interp``).
        """
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        times, states = self.times, self.states
        if times.shape[0] > 1 and times[0] > times[-1]:
            # np.interp-style gathers need increasing abscissae; a
            # backward solve's trajectory is interpolated on its
            # reversed view (same polyline, same values).
            times = times[::-1]
            states = states[::-1]
        if times.shape[0] == 1:
            out = np.broadcast_to(states[0], (t_arr.shape[0], self.dim)).copy()
        else:
            t_clip = np.clip(t_arr, times[0], times[-1])
            idx = np.clip(np.searchsorted(times, t_clip, side="right") - 1,
                          0, times.shape[0] - 2)
            t0 = times[idx]
            span = times[idx + 1] - t0
            # Duplicate consecutive times (a zero-span lane's [t0, t0]
            # grid) must not divide to NaN; np.interp resolves such ties
            # to the right-hand sample, so weight 1 matches it.
            w = np.ones_like(span)
            np.divide(t_clip - t0, span, out=w, where=span != 0.0)
            out = states[idx] + w[:, None] * (states[idx + 1] - states[idx])
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out

    def component(self, index: int) -> np.ndarray:
        """The time series of one coordinate, shape ``(n,)``."""
        return self.states[:, index].copy()

    def restricted(self, t_start: float, t_end: float) -> "Trajectory":
        """Sub-trajectory with ``t_start <= t <= t_end`` (inclusive)."""
        mask = (self.times >= t_start) & (self.times <= t_end)
        if not mask.any():
            raise ValueError("no samples in the requested window")
        return Trajectory(self.times[mask], self.states[mask])

    def reversed_time(self) -> "Trajectory":
        """Reverse the trajectory so times increase (for backward solves)."""
        return Trajectory(self.times[::-1].copy(), self.states[::-1].copy())


def rk4_step(f: Callable, t: float, x: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge–Kutta 4 step for ``x' = f(t, x)``."""
    k1 = f(t, x)
    k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = f(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _validate_grid(t_grid: np.ndarray) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.shape[0] < 2:
        raise ValueError("t_grid must be a 1-D array with at least 2 points")
    steps = np.diff(t_grid)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError("t_grid must be strictly monotone")
    return t_grid


def rk4_integrate(f: Callable, x0, t_grid) -> Trajectory:
    """Integrate ``x' = f(t, x)`` on a fixed grid with RK4.

    The grid may be decreasing, in which case the integration runs
    backward in time — this is how the Pontryagin costate equation is
    solved.
    """
    t_grid = _validate_grid(t_grid)
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((t_grid.shape[0], x.shape[0]))
    states[0] = x
    for i in range(t_grid.shape[0] - 1):
        dt = t_grid[i + 1] - t_grid[i]
        x = rk4_step(f, t_grid[i], x, dt)
        states[i + 1] = x
    return Trajectory(t_grid.copy(), states)


def solve_ode(
    f: Callable,
    x0,
    t_span,
    t_eval=None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> Trajectory:
    """Adaptive integration of ``x' = f(t, x)``: one lane of ``dopri_batch``.

    Runs the library's Dormand–Prince 5(4) integrator
    (:func:`~repro.ode.dopri_batch`) on the single IVP and returns a
    :class:`Trajectory` sampled at ``t_eval`` when given, otherwise at
    the integrator's own accepted steps.  A non-finite ``t_span`` or
    ``t_eval``, or a ``t_eval`` that is unsorted or leaves ``t_span``,
    raises ``ValueError``; a failed integration (the step size collapsing
    on a discontinuous or diverging field) raises ``RuntimeError``.
    """
    # repro.ode.batch imports Trajectory from this module.
    from repro.ode.batch import dopri_batch

    def lane(t, X):
        return np.asarray(f(t[0], X[0]), dtype=float).reshape(1, -1)

    x0 = np.asarray(x0, dtype=float)
    return dopri_batch(lane, x0[None, :], t_span, t_eval=t_eval, rtol=rtol,
                       atol=atol).lane(0)


def find_fixed_point(
    f: Callable,
    x0,
    settle_time: float = 200.0,
    tol: float = 1e-10,
    max_rounds: int = 6,
) -> np.ndarray:
    """Locate a stable equilibrium of ``x' = f(x)`` reachable from ``x0``.

    Integrates for ``settle_time`` (finite and positive, else
    ``ValueError``) through :func:`solve_ode`, repeatedly until
    ``|f(x)|`` is below ``tol`` or ``max_rounds`` is exhausted, and
    returns the last end state: there is no root-finding polish.  The
    drift ``f`` here takes only the state (time-autonomous), matching the
    uncertain mean-field ODEs ``x' = f(x, theta)`` for a frozen
    ``theta``.

    Raises ``RuntimeError`` when no equilibrium is approached, which is the
    signal used by callers to fall back to limit-cycle handling.  A settle
    that exhausts its rounds with a residual *above* ``tol`` but below the
    acceptance level ``1e-5`` is returned (it is near an equilibrium) with
    a ``RuntimeWarning`` reporting the achieved residual, so callers are
    never handed a silently-degraded fixed point.
    """
    _check_settle_time(settle_time)
    x = np.asarray(x0, dtype=float).copy()
    wrapped = lambda t, y: f(y)  # noqa: E731 - tiny adapter
    for _ in range(max_rounds):
        traj = solve_ode(wrapped, x, (0.0, settle_time), rtol=1e-10, atol=1e-12)
        x = traj.final_state
        residual = float(np.linalg.norm(f(x)))
        if residual < tol:
            break
    else:
        # Recomputed here so max_rounds=0 judges the *actual* residual
        # at x0, not a sentinel.
        residual = float(np.linalg.norm(f(x)))
        if residual > _SETTLE_ACCEPT_RESIDUAL:
            raise RuntimeError(
                "no fixed point approached after "
                f"{max_rounds * settle_time:.0f} time units "
                f"(|f| = {residual:.2e}); "
                "the dynamics may have a limit cycle"
            )
        if residual >= tol:
            warnings.warn(
                f"find_fixed_point stopped with residual |f| = "
                f"{residual:.2e} > tol = {tol:.2e} after {max_rounds} "
                "rounds; the returned point is near an equilibrium but "
                "did not reach the requested tolerance",
                RuntimeWarning,
                stacklevel=2,
            )
    return x
