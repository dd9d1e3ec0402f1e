"""Batched ODE kernels: lockstep RK4, adaptive Dormand–Prince, fixed points.

Every bound in the paper is produced by integrating small-dimension ODEs
*many* times: one forward/backward RK4 pair per Pontryagin sweep lane,
one adaptive solve per constant ``theta`` of an uncertain envelope, one
settle per parameter of a steady-state scan.  The scalar RK4 loop in
:mod:`repro.ode.integrators` advances one IVP at a time through a Python
loop, so those workloads pay the interpreter once per lane per step.
This module advances an entire *stack* of trajectories as a single array
program:

- :func:`rk4_integrate_batch` / :func:`rk4_integrate_controlled_batch` —
  lockstep fixed-grid RK4 over an ``(n_lanes, d)`` state stack with
  per-lane (optionally padded) grids and per-lane piecewise-constant
  controls.  The per-lane arithmetic is the *same expression* as the
  scalar kernels, so each lane is bit-identical to a scalar
  :func:`~repro.ode.rk4_integrate` run with the matching row field.
- :func:`dopri_batch` — the library's one adaptive integrator: a
  Dormand–Prince 5(4) pair with per-lane error norms, PI step-size
  control, lane retirement at per-lane end times and cubic-Hermite dense
  output.  A stack of ``m`` IVPs is one vectorized solver loop, and
  :func:`~repro.ode.solve_ode` is its one-lane view.
- :func:`find_fixed_point_batch` — settles a stack of initial points (or
  one point under a stack of parameters) to equilibria at once, with the
  settle rounds of :func:`~repro.ode.find_fixed_point`.

Lane retirement semantics: a lane whose grid (or end time) is exhausted
stops updating — its state is frozen at its own final value while the
remaining lanes keep stepping, so heterogeneous horizons batch into one
call without perturbing each other.  The two lockstep RK4 kernels share
one step loop, and it stops at the longest live lane: a call runs
``lane_steps.max()`` steps, however wide its padded grid, and writes each
lane's frozen final state into the padded tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.ode.integrators import (
    _SETTLE_ACCEPT_RESIDUAL,
    Trajectory,
    _check_settle_time,
)

__all__ = [
    "TrajectoryBatch",
    "FixedPointBatch",
    "pad_grids",
    "rk4_integrate_batch",
    "rk4_integrate_controlled_batch",
    "dopri_batch",
    "find_fixed_point_batch",
]


# ----------------------------------------------------------------------
# Containers
# ----------------------------------------------------------------------

@dataclass
class TrajectoryBatch:
    """A stack of time-indexed ODE solutions advanced in lockstep.

    Attributes
    ----------
    times:
        Per-lane time grids, shape ``(n_lanes, n_points)``.  Rows may be
        padded past a lane's own end by repeating its final time.
    states:
        State stacks, shape ``(n_lanes, n_points, d)``.  Padded columns
        hold the lane's frozen final state.
    lane_steps:
        Number of *steps* each lane actually took, shape ``(n_lanes,)``;
        lane ``l`` has ``lane_steps[l] + 1`` valid points.
    stats:
        Optional integrator diagnostics (adaptive runs record function
        evaluations and per-lane accepted/rejected step counts).
    """

    times: np.ndarray
    states: np.ndarray
    lane_steps: np.ndarray
    stats: Optional[dict] = field(default=None, repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.lane_steps = np.asarray(self.lane_steps, dtype=int)
        if self.times.ndim != 2 or self.states.ndim != 3:
            raise ValueError("times must be (L, n) and states (L, n, d)")
        if self.states.shape[:2] != self.times.shape:
            raise ValueError(
                f"states leading shape {self.states.shape[:2]} must match "
                f"times shape {self.times.shape}"
            )
        if self.lane_steps.shape != (self.times.shape[0],):
            raise ValueError("lane_steps must have one entry per lane")

    @property
    def n_lanes(self) -> int:
        return self.times.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def __len__(self) -> int:
        return self.n_lanes

    @property
    def final_times(self) -> np.ndarray:
        """Each lane's own end time, shape ``(n_lanes,)``."""
        return self.times[np.arange(self.n_lanes), self.lane_steps]

    @property
    def final_states(self) -> np.ndarray:
        """Each lane's state at its own end time, shape ``(n_lanes, d)``."""
        return self.states[np.arange(self.n_lanes), self.lane_steps].copy()

    def lane(self, index: int) -> Trajectory:
        """One lane as a scalar :class:`Trajectory` (padding trimmed)."""
        stop = int(self.lane_steps[index]) + 1
        return Trajectory(
            self.times[index, :stop].copy(), self.states[index, :stop].copy()
        )


@dataclass
class FixedPointBatch:
    """Equilibria of a stack of settles, with per-lane diagnostics.

    Attributes
    ----------
    points:
        The located equilibria, shape ``(n_lanes, d)``.
    residuals:
        Achieved ``|f(x*)|`` per lane.
    converged:
        Whether each lane's residual met the requested tolerance.
    rounds:
        Settle rounds executed (shared; lanes retire as they converge).
    """

    points: np.ndarray
    residuals: np.ndarray
    converged: np.ndarray
    rounds: int

    def __len__(self) -> int:
        return self.points.shape[0]


# ----------------------------------------------------------------------
# Fixed-grid lockstep RK4
# ----------------------------------------------------------------------

def pad_grids(grids: Sequence[np.ndarray]):
    """Stack ragged per-lane grids into a padded ``(L, n_max)`` array.

    Each grid is padded by repeating its final time, which is exactly
    the frozen-lane convention of the batch kernels.  Returns
    ``(t_grid, lane_steps)`` ready for :func:`rk4_integrate_batch`.
    """
    arrays = [np.asarray(g, dtype=float) for g in grids]
    if not arrays:
        raise ValueError("need at least one grid")
    n_max = max(a.shape[0] for a in arrays)
    t_grid = np.empty((len(arrays), n_max))
    lane_steps = np.empty(len(arrays), dtype=int)
    for l, a in enumerate(arrays):
        if a.ndim != 1 or a.shape[0] < 2:
            raise ValueError("each grid must be 1-D with at least 2 points")
        t_grid[l, : a.shape[0]] = a
        t_grid[l, a.shape[0]:] = a[-1]
        lane_steps[l] = a.shape[0] - 1
    return t_grid, lane_steps


def _prepare_batch_grid(x0, t_grid, lane_steps):
    """Normalise ``(x0, t_grid, lane_steps)`` for the lockstep kernels."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = x0[None, :]
    if x0.ndim != 2:
        raise ValueError("x0 must be an (n_lanes, d) stack")
    t_grid = np.asarray(t_grid, dtype=float)
    shared = t_grid.ndim == 1
    if shared:
        if t_grid.shape[0] < 2:
            raise ValueError("t_grid must have at least 2 points")
        n_points = t_grid.shape[0]
    else:
        if t_grid.ndim != 2 or t_grid.shape[0] != x0.shape[0]:
            raise ValueError(
                "per-lane t_grid must be (n_lanes, n_points) with one row "
                "per lane"
            )
        n_points = t_grid.shape[1]
        if n_points < 2:
            raise ValueError("t_grid must have at least 2 points")
    if lane_steps is None:
        lane_steps = np.full(x0.shape[0], n_points - 1, dtype=int)
    else:
        lane_steps = np.asarray(lane_steps, dtype=int)
        if lane_steps.shape != (x0.shape[0],):
            raise ValueError("lane_steps must have one entry per lane")
        if np.any(lane_steps < 1) or np.any(lane_steps > n_points - 1):
            raise ValueError(
                f"lane_steps must lie in [1, {n_points - 1}]"
            )
    # Validate per-lane monotonicity over the live region, one
    # vectorized pass (these kernels sit in iteration loops, so a
    # per-lane Python loop here would tax every sweep).
    rows = t_grid[None, :] if shared else t_grid
    live = (np.arange(n_points - 1)[None, :]
            < (lane_steps.max() if shared else lane_steps)[..., None])
    diffs = np.diff(rows, axis=1)
    ascending = np.all((diffs > 0) | ~live, axis=1)
    descending = np.all((diffs < 0) | ~live, axis=1)
    if not np.all(ascending | descending):
        raise ValueError("each lane's grid must be strictly monotone")
    return x0, t_grid, shared, lane_steps, n_points


def _rk4_lockstep(f: Callable, x0, t_grid, shared, lane_steps, n_points,
                  ctrl=None) -> TrajectoryBatch:
    """The step loop of both lockstep RK4 kernels.

    Steps only as far as the longest live lane (``lane_steps.max()``
    steps), then copies every lane's frozen final state into the padded
    tail.  The step geometry — stage times, ``dt``, ``0.5 * dt`` and
    ``dt / 6`` — is built once as step-major tables from the same
    elementwise expressions the stages would evaluate, so each lane runs
    the :func:`~repro.ode.rk4_step` arithmetic bit for bit.  With
    ``ctrl`` (``(n_lanes, n_points - 1, p)``) the field is called as
    ``f(t, X, U)`` with one control row per lane per step.
    """
    L, d = x0.shape
    n_run = int(lane_steps.max())
    if shared:
        t0 = t_grid[:n_run]
        dt = t_grid[1:n_run + 1] - t0
    else:
        t0 = np.ascontiguousarray(t_grid[:, :n_run].T)
        dt = t_grid[:, 1:n_run + 1].T - t0
    t_half, t1 = t0 + 0.5 * dt, t0 + dt
    # Per-lane steps scale each lane's state row: (n_lanes, 1) columns.
    dtc = dt if shared else dt[:, :, None]
    half, sixth = 0.5 * dtc, dtc / 6.0
    all_live = bool(np.all(lane_steps == n_run))
    live = (np.arange(n_run)[:, None] < lane_steps)[:, :, None]
    x = x0.copy()
    states = np.empty((L, n_points, d))
    states[:, 0] = x
    u = ()
    for i in range(n_run):
        if ctrl is not None:
            u = (ctrl[:, i],)
        h = half[i]
        k1 = f(t0[i], x, *u)
        k2 = f(t_half[i], x + h * k1, *u)
        k3 = f(t_half[i], x + h * k2, *u)
        k4 = f(t1[i], x + dtc[i] * k3, *u)
        stepped = x + sixth[i] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = stepped if all_live else np.where(live[i], stepped, x)
        states[:, i + 1] = x
    states[:, n_run + 1:] = x[:, None]
    times = np.broadcast_to(t_grid, (L, n_points)).copy() if shared else t_grid.copy()
    return TrajectoryBatch(times=times, states=states, lane_steps=lane_steps)


def _rk4_integrate_batch_impl(f: Callable, x0, t_grid,
                              lane_steps=None) -> TrajectoryBatch:
    """Lockstep fixed-grid RK4 over a stack of IVPs.

    Parameters
    ----------
    f:
        Batched field ``f(t, X) -> (n_lanes, d)``.  With a shared grid
        ``t`` is a scalar; with per-lane grids it is an ``(n_lanes,)``
        vector of per-lane stage times.
    x0:
        Initial state stack ``(n_lanes, d)``.
    t_grid:
        Shared grid ``(n,)`` or per-lane grids ``(n_lanes, n)`` (padded
        rows repeat the lane's final time; see :func:`pad_grids`).
        Grids may be decreasing (backward costate solves).
    lane_steps:
        Optional per-lane live step counts; lanes freeze at their own
        final state once exhausted.

    Each lane's update is the exact :func:`~repro.ode.rk4_step`
    expression, so lane ``l`` reproduces the scalar integrator run on
    row ``l`` bit for bit.
    """
    return _rk4_lockstep(f, *_prepare_batch_grid(x0, t_grid, lane_steps))


def _rk4_integrate_controlled_batch_impl(f: Callable, x0, t_grid, controls,
                                         lane_steps=None) -> TrajectoryBatch:
    """Lockstep controlled RK4: ``x' = f(t, x, u)`` per lane.

    ``controls`` holds one control row per lane per grid *interval*,
    shape ``(n_lanes, n_points - 1, p)``; the control is held constant
    across each step (the bang-bang signals of the Pontryagin
    maximiser), and each lane runs the :func:`~repro.ode.rk4_step`
    stage arithmetic.  ``f(t, X, U)`` receives the per-lane state and
    control stacks.
    """
    x0, t_grid, shared, lane_steps, n_points = _prepare_batch_grid(
        x0, t_grid, lane_steps
    )
    ctrl = np.asarray(controls, dtype=float)
    if ctrl.ndim == 2:
        ctrl = ctrl[:, :, None]
    if ctrl.shape[:2] != (x0.shape[0], n_points - 1):
        raise ValueError(
            f"controls must be (n_lanes, {n_points - 1}, p); "
            f"got {ctrl.shape}"
        )
    return _rk4_lockstep(f, x0, t_grid, shared, lane_steps, n_points, ctrl)


def _record_lockstep(kind: str, batch: TrajectoryBatch) -> TrajectoryBatch:
    """Promote a lockstep kernel's work onto the telemetry registry."""
    if telemetry.enabled():
        n_points = batch.times.shape[1]
        telemetry.inc(f"ode.{kind}.lanes", batch.n_lanes)
        telemetry.inc(f"ode.{kind}.steps", int(batch.lane_steps.sum()))
        # Lockstep kernels evaluate all four stages on the full stack
        # up to the longest lane's last step, retired lanes included.
        telemetry.inc(f"ode.{kind}.rhs_evals",
                      4 * int(batch.lane_steps.max()))
        retired = int(np.count_nonzero(batch.lane_steps < n_points - 1))
        if retired:
            telemetry.inc(f"ode.{kind}.lane_retirements", retired)
    return batch


def rk4_integrate_batch(f: Callable, x0, t_grid,
                        lane_steps=None) -> TrajectoryBatch:
    with telemetry.span("ode.rk4_batch"):
        batch = _rk4_integrate_batch_impl(f, x0, t_grid, lane_steps)
    return _record_lockstep("rk4", batch)


rk4_integrate_batch.__doc__ = _rk4_integrate_batch_impl.__doc__


def rk4_integrate_controlled_batch(f: Callable, x0, t_grid, controls,
                                   lane_steps=None) -> TrajectoryBatch:
    with telemetry.span("ode.rk4_controlled_batch"):
        batch = _rk4_integrate_controlled_batch_impl(
            f, x0, t_grid, controls, lane_steps
        )
    return _record_lockstep("rk4", batch)


rk4_integrate_controlled_batch.__doc__ = \
    _rk4_integrate_controlled_batch_impl.__doc__


# ----------------------------------------------------------------------
# Adaptive Dormand–Prince 5(4) with lane-parallel step control
# ----------------------------------------------------------------------

#: Dormand–Prince 5(4) tableau (identical to scipy's RK45).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_DP_A = [
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
#: Fifth-minus-fourth-order weights (the embedded error estimate); the
#: seventh entry weights the FSAL stage.
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                  -17253 / 339200, 22 / 525, -1 / 40])

#: PI step controller exponents (Hairer–Nørsett–Wanner II.4 for DOPRI5).
_PI_BETA = 0.04
_PI_ALPHA = 0.2 - 0.75 * _PI_BETA


#: The tableau rows as ``(1, s)`` matrices, the shape
#: :func:`_dp_stage_sum` multiplies.
_DP_A_ROWS = [a.reshape(1, -1) for a in _DP_A]
_DP_B_ROW = _DP_B.reshape(1, -1)
_DP_E_ROW = _DP_E.reshape(1, -1)


def _rms_norm(v: np.ndarray) -> np.ndarray:
    """Row-wise RMS norm, shape ``(n,)`` for ``(n, d)`` input.

    ``np.mean``'s own arithmetic — one ``add.reduce`` over the row, then
    a division by the count — without its Python-level wrapper.
    """
    return np.sqrt(np.add.reduce(v * v, axis=1) / v.shape[1])


def _dp_stage_sum(row: np.ndarray, stages: np.ndarray, n: int,
                  d: int) -> np.ndarray:
    """Tableau-weighted stage sum ``sum_j row[0, j] * stage_j``, ``(n, d)``.

    ``row`` is a ``(1, s)`` tableau row and ``stages`` the first ``s``
    stages as one ``(s, n*d)`` matrix.  This is the one ``np.dot`` that
    ``np.tensordot(coeffs, stages, axes=(0, 0))`` makes, without its
    axis bookkeeping, so the result is the same bit for bit.
    """
    return np.dot(row, stages).reshape(n, d)


def _subset_args(lane_args, idx):
    """Row-subset per-lane auxiliary data (array or tuple of arrays)."""
    if lane_args is None:
        return None
    if isinstance(lane_args, tuple):
        return tuple(a[idx] for a in lane_args)
    return lane_args[idx]


def _lane_field(f, lane_args, idx):
    """The field ``(t, X) -> dX`` of the lanes ``idx``.

    With ``lane_args`` the lanes' rows are cut once here and passed as
    ``f``'s third argument on every call.
    """
    if lane_args is None:
        return f
    args = _subset_args(lane_args, idx)
    return lambda t, X: f(t, X, args)


def _initial_steps(f, t0, y0, f0, direction, rtol, atol, h_abs_max):
    """Vectorized analogue of scipy's ``_select_initial_step`` per lane."""
    scale = atol + rtol * np.abs(y0)
    d0 = _rms_norm(y0 / scale)
    d1 = _rms_norm(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-300))
    y1 = y0 + (h0 * direction)[:, None] * f0
    f1 = f(t0 + h0 * direction, y1)
    d2 = _rms_norm((f1 - f0) / scale) / h0
    dmax = np.maximum(d1, d2)
    h1 = np.where(
        dmax <= 1e-15,
        np.maximum(1e-6, h0 * 1e-3),
        (0.01 / np.maximum(dmax, 1e-300)) ** 0.2,
    )
    return np.minimum(np.minimum(100.0 * h0, h1), h_abs_max)


def _hermite_fill(out, lane_ids, i0, i1, s_eval, s_old, s_new, y_old, y_new,
                  f_old, f_new, dt):
    """Cubic-Hermite dense output over one batch of accepted steps.

    Fills ``out[lane, j]`` for every evaluation index ``j`` with
    ``s_old < s_eval[j] <= s_new`` of each accepted lane, all lanes and
    points in one flat vectorized pass.
    """
    counts = i1 - i0
    total = int(counts.sum())
    if total == 0:
        return
    rep = np.repeat(np.arange(lane_ids.shape[0]), counts)
    pos = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    idx = i0[rep] + pos
    theta = (s_eval[idx] - s_old[rep]) / (s_new - s_old)[rep]
    th = theta[:, None]
    y0r, y1r = y_old[rep], y_new[rep]
    dtr = dt[rep][:, None]
    diff = y1r - y0r
    out[lane_ids[rep], idx] = (
        (1.0 - th) * y0r
        + th * y1r
        + th * (th - 1.0) * (
            (1.0 - 2.0 * th) * diff
            + (th - 1.0) * dtr * f_old[rep]
            + th * dtr * f_new[rep]
        )
    )


def _dopri_batch_impl(
    f: Callable,
    x0,
    t_span,
    t_eval=None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    max_step: float = np.inf,
    max_steps: int = 1_000_000,
    safety: float = 0.9,
    min_factor: float = 0.2,
    max_factor: float = 10.0,
    lane_args=None,
    retire_failed_lanes: bool = False,
) -> TrajectoryBatch:
    """Adaptive Dormand–Prince 5(4) integration of a stack of IVPs.

    Parameters
    ----------
    f:
        Batched field ``f(t, X) -> (n_active, d)`` where ``t`` is an
        ``(n_active,)`` vector of per-lane times (lanes run at their own
        adaptive step sizes) and ``X`` the matching state stack.  Lanes
        *retire* as they finish, so ``f`` sees shrinking sub-stacks —
        per-lane constants (a frozen ``theta`` per lane) belong in
        ``lane_args``, not in a closure over the full stack.
    x0:
        Initial state stack ``(n_lanes, d)`` (a single state integrates
        as one lane).
    lane_args:
        Optional per-lane auxiliary data — an array with leading
        dimension ``n_lanes``, or a tuple of such arrays.  The matching
        row subset for the currently-active lanes is passed as a third
        argument: ``f(t, X, A)``.
    t_span:
        ``(t0, t1)`` with a shared ``t0``; ``t1`` may be an
        ``(n_lanes,)`` array of per-lane end times (all on the same side
        of ``t0``).  Lanes *retire* — stop consuming steps and function
        evaluations — as they reach their own end time.
    t_eval:
        Optional shared output grid: finite, strictly monotone in the
        integration direction, and between ``t0`` and the farthest end
        time (anything else raises ``ValueError``).  Samples are
        produced by cubic-Hermite dense output from the accepted steps,
        so accuracy does not depend on where the solver happened to
        step.  Evaluation points beyond a lane's own end time hold that
        lane's final state.  When omitted, the result records each
        lane's accepted steps.
    rtol, atol:
        Per-lane error control: a step is accepted when the RMS of the
        scaled 5(4) error estimate is below one.  Step sizes follow a
        PI controller (Hairer's DOPRI5 coefficients), clamped to
        ``[min_factor, max_factor]`` growth with ``safety``.
    max_step, max_steps:
        Step magnitude cap and a global iteration guard.
    retire_failed_lanes:
        Opt-in graceful degradation: a lane whose step size collapses
        below round-off or whose error estimate goes non-finite (NaN /
        overflowing state) is *retired* with a diagnostic record in
        ``stats["lane_failures"]`` — frozen at its last accepted state
        — instead of aborting the whole batch with ``RuntimeError``.
        Surviving lanes keep their own step sequences (retirement works
        exactly like reaching an end time; only the usual sub-ULP
        BLAS reduction-order sensitivity to the active-stack shape
        remains), and with no failures the flag is bit-identical to the
        default path.  Lanes still stepping when ``max_steps`` iterations
        are spent retire as well (``"max-steps"``), the way DOPRI5's
        step limit ends with the solution so far; without the flag the
        guard raises.

    Returns
    -------
    A :class:`TrajectoryBatch`.  With ``t_eval`` the batch records the
    *sampled* trajectory — its ``final_times`` / ``final_states`` refer
    to the last sample, which precedes a lane's end time when ``t_eval``
    stops short of it; the integration endpoints are always available
    as ``stats["final_states"]``.  Without ``t_eval`` lane ``l`` holds
    ``t0`` and its ``n_accepted[l]`` accepted steps (at least one
    column past ``t0``; padded with its final time and state), so a
    retired lane ends at its last accepted step.  ``stats`` also
    records ``nfev`` plus
    per-lane accepted/rejected step counts, and (with
    ``retire_failed_lanes``) the ``lane_failures`` diagnostics — one
    ``{"lane", "reason", "t", "accepted", "rejected"}`` dict per
    retired lane.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = x0[None, :]
    L, d = x0.shape
    t0 = float(t_span[0])
    t_end = np.broadcast_to(np.asarray(t_span[1], dtype=float), (L,)).astype(float)
    # A NaN never trips the step-size guards (every comparison is
    # False), so it would spin to the max_steps guard.
    if not np.all(np.isfinite(x0)):
        raise ValueError("dopri_batch: x0 must be finite")
    if not (np.isfinite(t0) and np.all(np.isfinite(t_end))):
        raise ValueError(f"dopri_batch: t_span must be finite, got {t_span}")
    spans = t_end - t0
    nonzero = spans[spans != 0.0]
    if nonzero.size and not (np.all(nonzero > 0) or np.all(nonzero < 0)):
        raise ValueError("all lane end times must lie on the same side of t0")
    direction = 1.0 if (nonzero.size == 0 or nonzero[0] > 0) else -1.0

    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1 or t_eval.shape[0] < 1:
            raise ValueError("t_eval must be a non-empty 1-D array")
        if not np.all(np.isfinite(t_eval)):
            raise ValueError(f"t_eval must be finite, got {t_eval.tolist()}")
        s_eval = direction * t_eval
        if np.any(np.diff(s_eval) <= 0):
            raise ValueError("t_eval must be strictly monotone in the "
                             "integration direction")
        s_far = float(np.max(direction * t_end))
        if s_eval[0] < direction * t0 or s_eval[-1] > s_far:
            # Dense output exists only over the integrated span; a point
            # outside it would be labelled with a state of another time.
            raise ValueError(
                f"t_eval must lie between t0 = {t0} and the farthest end "
                f"time {direction * s_far}, got {t_eval.tolist()}"
            )
        n_out = t_eval.shape[0]
        out = np.empty((L, n_out, d))
        # Points at or before t0 clamp to the initial state.
        n_init = int(np.searchsorted(s_eval, direction * t0, side="right"))
        if n_init:
            out[:, :n_init] = x0[:, None, :]
    else:
        out = None

    t = np.full(L, t0)
    y = x0.copy()
    n_accepted = np.zeros(L, dtype=int)
    n_rejected = np.zeros(L, dtype=int)
    filled = np.full(L, 0 if out is None else n_init, dtype=int)
    # Without t_eval: (lanes, their step numbers, times, states) of each
    # iteration's accepted steps, scattered into place at the end.
    steps: list = []

    act = np.nonzero(spans != 0.0)[0]
    fx = _lane_field(f, lane_args, act)
    final_y = x0.copy()
    if out is not None and act.size < L:
        # Zero-span lanes never step: their whole output row is x0.
        idle = np.setdiff1d(np.arange(L), act)
        out[idle] = x0[idle, None, :]
        filled[idle] = n_out
    nfev = 0
    if act.size:
        f0 = fx(t[act], y[act])
        nfev += 2 * act.size  # f0 plus the Euler probe in _initial_steps
        h = np.zeros(L)
        h[act] = _initial_steps(
            fx, t[act], y[act], f0,
            np.full(act.size, direction), rtol, atol,
            min(max_step, float(np.max(np.abs(spans)))),
        )
        fcur = np.zeros((L, d))
        fcur[act] = f0
    err_prev = np.ones(L)

    lane_failures: list = []

    def retire(dead, reason):
        """Freeze failed lanes at their last accepted state + diagnose."""
        for lane in dead:
            final_y[lane] = y[lane]
            if out is not None and filled[lane] < n_out:
                out[lane, filled[lane]:] = y[lane]
                filled[lane] = n_out
            lane_failures.append({
                "lane": int(lane),
                "reason": reason,
                "t": float(t[lane]),
                "accepted": int(n_accepted[lane]),
                "rejected": int(n_rejected[lane]),
            })

    # The loop runs on small stacks, where numpy's per-call overhead is
    # the cost, so it keeps its calls few: the tableau rows are
    # pre-shaped, the lane arguments are cut once per active set, and
    # while every lane is active (and, below, every lane accepted) the
    # stacks are used in place of gathers.  Each accepted step runs the
    # same arithmetic either way.
    field_of = (act, fx)
    iterations = 0
    while act.size:
        iterations += 1
        if iterations > max_steps:
            if retire_failed_lanes:
                retire(act, "max-steps")
                break
            raise RuntimeError(
                f"dopri_batch exceeded {max_steps} iterations; the step "
                "size may have collapsed on a discontinuity (use the "
                "fixed-grid rk4 kernels for sliding-boundary models)"
            )
        if field_of[0] is not act:
            field_of = (act, _lane_field(f, lane_args, act))
        fa = field_of[1]
        n = act.size
        if n == L:
            ta, ya, ka, h_prev = t, y, fcur, h
            ends, errp = t_end, err_prev
        else:
            ta, ya, ka, h_prev = t[act], y[act], fcur[act], h[act]
            ends, errp = t_end[act], err_prev[act]
        remaining = np.abs(ends - ta)
        h_act = np.minimum(np.minimum(h_prev, max_step), remaining)
        last = h_act >= remaining * (1.0 - 1e-12)
        tiny = 1e-14 * np.maximum(1.0, np.abs(ta))
        # A finishing lane may legitimately take a sub-round-off step to
        # land exactly on its end time; only a *non-final* step this
        # small means the controller has collapsed on a discontinuity.
        underflow = h_act < tiny
        if underflow.any():
            underflow &= ~last
        if underflow.any():
            if not retire_failed_lanes:
                raise RuntimeError(
                    "dopri_batch step size collapsed below round-off; the "
                    "right-hand side is likely discontinuous at the current "
                    "state (use the fixed-grid rk4 kernels instead)"
                )
            dead = act[underflow]
            retire(dead, "step-underflow")
            act = act[~np.isin(act, dead)]
            continue
        h_signed = direction * h_act
        h_col = h_signed[:, None]
        t_stage = ta + _DP_C[1:6, None] * h_signed

        K = np.empty((7, n, d))
        K_rows = K.reshape(7, n * d)
        K[0] = ka
        for i in range(1, 6):
            incr = _dp_stage_sum(_DP_A_ROWS[i - 1], K_rows[:i], n, d)
            K[i] = fa(t_stage[i - 1], ya + h_col * incr)
        y_new = ya + h_col * _dp_stage_sum(_DP_B_ROW, K_rows[:6], n, d)
        t_new = np.where(last, ends, ta + h_signed)
        K[6] = fa(t_new, y_new)
        nfev += 6 * n

        err_vec = h_col * _dp_stage_sum(_DP_E_ROW, K_rows, n, d)
        scale = atol + rtol * np.maximum(np.abs(ya), np.abs(y_new))
        err = _rms_norm(err_vec / scale)
        # Lane *values* of the non-finite lanes, captured before the
        # done-removal below mutates ``act`` — they are removed (and
        # retired) only at the end of the iteration.
        failed = None
        bad = ~np.isfinite(err)
        if bad.any():
            err[bad] = np.inf
            if retire_failed_lanes:
                failed = act[bad]
        accept = err <= 1.0

        # PI controller: accepted lanes grow by the error history pair,
        # rejected lanes shrink on the current error alone.  A zero error
        # takes the largest growth, so its infinite power is never formed.
        scaled = safety * np.where(err > 0.0, err, 1.0) ** (-_PI_ALPHA)
        grow = np.where(err == 0.0, max_factor, scaled * errp ** _PI_BETA)
        grow = np.minimum(np.maximum(grow, min_factor), max_factor)

        if accept.all():
            acc, acc_idx = slice(None), act
        else:
            rej = ~accept
            rej_idx = act[rej]
            h[rej_idx] = h_act[rej] * np.minimum(
                np.maximum(scaled[rej], min_factor), 1.0)
            n_rejected[rej_idx] += 1
            acc, acc_idx = accept, act[accept]

        if acc_idx.size:
            t_acc, y_acc = t_new[acc], y_new[acc]
            if out is not None:
                s_old = direction * ta[acc]
                s_new = direction * t_acc
                i0 = np.searchsorted(s_eval, s_old, side="right")
                i1 = np.searchsorted(s_eval, s_new, side="right")
                _hermite_fill(
                    out, acc_idx, i0, i1, s_eval, s_old, s_new,
                    ya[acc], y_acc, K[0][acc], K[6][acc], t_acc - ta[acc],
                )
                filled[acc_idx] = i1
            t[acc_idx] = t_acc
            y[acc_idx] = y_acc
            fcur[acc_idx] = K[6][acc]
            err_prev[acc_idx] = np.maximum(err[acc], 1e-10)
            h[acc_idx] = h_act[acc] * grow[acc]
            n_accepted[acc_idx] += 1
            if out is None:
                steps.append((acc_idx, n_accepted[acc_idx], t_acc, y_acc))

            done = acc_idx[last[acc]]
            if done.size:
                final_y[done] = y[done]
                if out is not None:
                    # Remaining evaluation points clamp to the final state.
                    for l in done:
                        if filled[l] < n_out:
                            out[l, filled[l]:] = y[l]
                            filled[l] = n_out
                keep = np.ones(act.size, dtype=bool)
                keep[np.isin(act, done)] = False
                act = act[keep]

        if failed is not None:
            # A non-finite error estimate cannot recover by shrinking
            # the step (the state itself is NaN/inf): retire the lane
            # at its last accepted state instead of spinning it down to
            # the underflow guard.
            retire(failed, "non-finite-state")
            act = act[~np.isin(act, failed)]

    if out is not None:
        times = np.broadcast_to(t_eval, (L, t_eval.shape[0])).copy()
        states = out
        lane_steps = np.full(L, t_eval.shape[0] - 1, dtype=int)
    else:
        # Every column starts as the lane's last accepted time and state
        # (its padding); a lane that never stepped (zero span, or retired
        # on its first step) records [t0, t0].
        lane_steps = np.maximum(n_accepted, 1)
        n_cols = int(lane_steps.max()) + 1
        times = np.repeat(t[:, None], n_cols, axis=1)
        states = np.repeat(y[:, None, :], n_cols, axis=1)
        times[:, 0] = t0
        states[:, 0] = x0
        if steps:
            lanes, cols, ts, ys = (np.concatenate(part)
                                   for part in zip(*steps))
            times[lanes, cols] = ts
            states[lanes, cols] = ys
    return TrajectoryBatch(
        times=times,
        states=states,
        lane_steps=lane_steps,
        stats={
            "nfev": int(nfev),
            "n_accepted": n_accepted,
            "n_rejected": n_rejected,
            "final_states": final_y,
            "lane_failures": lane_failures,
        },
    )


def dopri_batch(
    f: Callable,
    x0,
    t_span,
    t_eval=None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    max_step: float = np.inf,
    max_steps: int = 1_000_000,
    safety: float = 0.9,
    min_factor: float = 0.2,
    max_factor: float = 10.0,
    lane_args=None,
    retire_failed_lanes: bool = False,
) -> TrajectoryBatch:
    with telemetry.span("ode.dopri_batch") as sp:
        batch = _dopri_batch_impl(
            f, x0, t_span, t_eval,
            rtol=rtol, atol=atol, max_step=max_step, max_steps=max_steps,
            safety=safety, min_factor=min_factor, max_factor=max_factor,
            lane_args=lane_args, retire_failed_lanes=retire_failed_lanes,
        )
        sp.set("lanes", batch.n_lanes)
    if telemetry.enabled():
        stats = batch.stats
        telemetry.inc("ode.dopri.lanes", batch.n_lanes)
        telemetry.inc("ode.dopri.rhs_evals", stats["nfev"])
        telemetry.inc("ode.dopri.steps_accepted",
                      int(np.sum(stats["n_accepted"])))
        telemetry.inc("ode.dopri.steps_rejected",
                      int(np.sum(stats["n_rejected"])))
        # Lanes that reached their end time while others were still
        # stepping (heterogeneous horizons / stiffness): the retirement
        # machinery actually saved work on these.
        accepted = np.asarray(stats["n_accepted"])
        if accepted.size:
            retired = int(np.count_nonzero(accepted < accepted.max()))
            if retired:
                telemetry.inc("ode.dopri.lane_retirements", retired)
        if stats["lane_failures"]:
            telemetry.inc("resilience.ode.lane_failures",
                          len(stats["lane_failures"]))
    return batch


dopri_batch.__doc__ = _dopri_batch_impl.__doc__


# ----------------------------------------------------------------------
# Batched fixed-point location
# ----------------------------------------------------------------------

def find_fixed_point_batch(
    f: Callable,
    x0,
    settle_time: float = 200.0,
    tol: float = 1e-10,
    max_rounds: int = 6,
    lane_args=None,
) -> FixedPointBatch:
    """Settle a stack of initial points to stable equilibria at once.

    The batched analogue of :func:`~repro.ode.find_fixed_point`: every
    lane integrates the autonomous field for ``settle_time`` through
    :func:`dopri_batch` (one solver loop for the whole stack), lanes
    whose residual ``|f(x)|`` drops below ``tol`` retire, and the rest
    repeat for up to ``max_rounds``.  Each point is the last settle's
    end state as it stands: there is no root-finding polish, and
    ``residuals`` / ``converged`` report what the settle reached.

    Parameters
    ----------
    f:
        Batched autonomous drift ``X -> (n_lanes, d)``; with
        ``lane_args`` the signature is ``f(X, A)`` where ``A`` is the
        matching row subset (lanes retire as they converge, so ``f``
        sees shrinking sub-stacks — per-lane constants belong in
        ``lane_args``).  E.g. settle one initial point under a stack of
        frozen parameters with ``f = lambda X, th:
        model.drift_batch(X, th)`` and ``lane_args=thetas``.
    x0:
        Initial stack ``(n_lanes, d)``.
    settle_time:
        Integration time of one round; must be finite and positive
        (``ValueError`` otherwise).
    lane_args:
        Optional per-lane auxiliary data (array with leading dimension
        ``n_lanes``, or a tuple of such arrays).

    Raises
    ------
    RuntimeError
        When any lane fails to approach an equilibrium (residual above
        ``1e-5`` after all rounds) — the same limit-cycle signal the
        scalar routine raises.  Lanes that end between ``tol`` and the
        acceptance level are reported via their ``residuals`` /
        ``converged`` diagnostics instead of a warning per lane.
    """
    _check_settle_time(settle_time)
    x = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    L = x.shape[0]
    if lane_args is None:
        f_at = lambda Y, idx: np.asarray(f(Y), dtype=float)  # noqa: E731
    else:
        f_at = lambda Y, idx: np.asarray(  # noqa: E731
            f(Y, _subset_args(lane_args, idx)), dtype=float
        )

    act = np.arange(L)
    residuals = np.linalg.norm(f_at(x, act), axis=1)
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        sol = dopri_batch(
            lambda t, Y, A=None: f_at(Y, A), x[act], (0.0, settle_time),
            rtol=1e-10, atol=1e-12, lane_args=act,
        )
        x[act] = sol.final_states
        residuals[act] = np.linalg.norm(f_at(x[act], act), axis=1)
        act = act[residuals[act] >= tol]
        if act.size == 0:
            break
    if act.size and np.any(residuals[act] > _SETTLE_ACCEPT_RESIDUAL):
        worst = float(np.max(residuals[act]))
        raise RuntimeError(
            f"{int(np.sum(residuals > _SETTLE_ACCEPT_RESIDUAL))} of {L} "
            f"lanes approached no fixed point after "
            f"{max_rounds * settle_time:.0f} time units "
            f"(worst |f| = {worst:.2e}); the dynamics may have a limit cycle"
        )
    return FixedPointBatch(
        points=x,
        residuals=residuals,
        converged=residuals < tol,
        rounds=rounds,
    )
