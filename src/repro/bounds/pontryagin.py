"""Reachability bounds via Pontryagin's maximum principle (Section IV-C).

The extreme value of a linear functional ``c . x(T)`` over the solutions
of the mean-field inclusion is an optimal-control problem: choose the
measurable signal ``theta(t) in Theta`` maximising ``c . x(T)`` subject to
``x' = f(x, theta)``.  Pontryagin's principle gives necessary conditions
(Eqs. 7–9 of the paper): along an optimal trajectory there is a costate
``p`` with

.. math::
    \\dot x = f(x, \\theta), \\qquad
    \\theta(t) \\in \\arg\\max_\\theta \\; p \\cdot f(x, \\theta), \\qquad
    \\dot p = -\\Big(\\frac{\\partial f}{\\partial x}\\Big)^T p,
    \\qquad p(T) = c.

(The paper states the terminal condition as ``p_i(T) = -1`` with the same
argmax; that sign convention pairs with a minimum-principle reading — we
use the standard maximum-principle convention above, and obtain minima by
negating ``c``.)

:func:`extremal_trajectories_batch` solves these conditions with the
fixed-point (forward–backward sweep) iteration the paper describes:
integrate the state forward under the current control, the costate
backward along the stored state, re-maximise the Hamiltonian pointwise,
repeat until the control stabilises — for a whole set of problems at
once, each one a lane of the batched RK4 kernels.  The costate equation
is linear along the frozen state and control: a population model folds
each backward step's four RK4 stages into one transfer matrix, so a
step is one small matrix–vector product, and the master equation of a
finite chain runs the stages through its sparse vector–Jacobian hook
instead of a dense Jacobian.  Each iteration makes one forward call,
and it also carries the lanes that are finishing (the
final pass under a fixed-point control) or projecting (the pass under
the bang-bang projection of a lane's best iterate).  For the
affine-in-theta models the Hamiltonian maximiser is bang-bang, so the
iteration converges in a handful of sweeps; the convergence test
combines control stability with objective stability to tolerate
chattering on the measure-zero switching set.  It is the only sweep in
the library: :func:`extremal_trajectory` is a one-lane view of it (plus
a warm-start control signal), which is how the robust-design loop and
the exact Kolmogorov reward bounds of :mod:`repro.ctmc` run.

:func:`pontryagin_transient_bounds` evaluates the bounds over a grid of
horizons (the curves of Figures 1 and 7), running every (observable,
side, horizon) sweep as one lane of :func:`extremal_trajectories_batch`;
:func:`switching_times_from_costate` reads the bang-bang switches of
Figure 2 off the costate.  The convex template polyhedron of the remark
in Section IV-C is :func:`repro.bounds.template_reachable_bounds`.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.inclusion import DriftExtremizer
from repro.ode import pad_grids, rk4_integrate_controlled_batch

__all__ = [
    "PontryaginResult",
    "TransientBounds",
    "extremal_trajectory",
    "extremal_trajectories_batch",
    "pontryagin_transient_bounds",
]


@dataclass
class PontryaginResult:
    """An extremal trajectory produced by the forward–backward sweep.

    Attributes
    ----------
    times:
        The shared time grid, shape ``(n,)``.
    states, costates:
        State and costate along the grid, shape ``(n, d)``.
    controls:
        Piecewise-constant parameter signal, one row per grid *interval*,
        shape ``(n - 1, p)``.
    direction:
        The template direction ``c`` of the objective ``c . x(T)``.
    maximize:
        Whether the objective was maximised (else minimised).
    value:
        The achieved objective ``c . x(T)``.
    converged, iterations:
        Sweep diagnostics.
    """

    times: np.ndarray
    states: np.ndarray
    costates: np.ndarray
    controls: np.ndarray
    direction: np.ndarray
    maximize: bool
    value: float
    converged: bool
    iterations: int

    def control_at(self, t: float) -> np.ndarray:
        """The parameter applied at time ``t`` (left-continuous lookup).

        ``controls[i]`` is in force on the grid interval
        ``(times[i], times[i + 1]]``, so querying exactly at a grid
        point returns the control that *was driving the state into it*
        — the left limit, matching the piecewise-constant-control
        convention documented here.  (Interior queries are unaffected;
        queries at or before ``times[0]`` clamp to the first interval.)
        """
        index = int(np.searchsorted(self.times, t, side="left") - 1)
        index = min(max(index, 0), self.controls.shape[0] - 1)
        return self.controls[index].copy()


def _checked_problem(x0, direction, horizon, n_steps, dim):
    """``(x0, direction)`` as arrays, after rejecting a malformed sweep.

    Non-finite inputs are rejected explicitly: ``nan <= 0`` and
    ``nan != 0`` are both False, so they would otherwise slip past the
    range checks and come back as a NaN bound.  So is an ``x0`` of the
    wrong shape, which the lane stack would otherwise broadcast (a
    scalar to every coordinate) or fail on with a bare numpy error.
    """
    x0 = np.asarray(x0, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if not (horizon > 0 and np.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    if x0.shape != (dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({dim},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    if direction.shape != (dim,):
        raise ValueError(
            f"direction has shape {direction.shape}, expected ({dim},)"
        )
    if not np.all(np.isfinite(direction)):
        raise ValueError(f"direction must be finite, got {direction.tolist()}")
    if not np.any(direction != 0.0):
        raise ValueError("direction must be non-zero")
    return x0, direction


def extremal_trajectory(
    model,
    x0,
    horizon: float,
    direction,
    maximize: bool = True,
    n_steps: int = 400,
    max_iter: int = 100,
    tol: float = 1e-7,
    value_tol: float = 1e-6,
    value_patience: int = 3,
    chatter_intervals: int = 2,
    extremizer: Optional[DriftExtremizer] = None,
    initial_controls: Optional[np.ndarray] = None,
) -> PontryaginResult:
    """Compute the trajectory extremising ``direction . x(T)``.

    A one-lane view of :func:`extremal_trajectories_batch`: the sweep
    runs as the single lane ``(direction, maximize, horizon, n_steps)``
    of the lane engine.

    Parameters
    ----------
    model:
        Population model (drift, Jacobian, ``Theta``).
    x0:
        Initial state.
    horizon:
        Terminal time ``T > 0``.
    direction:
        Template direction ``c`` (e.g. a coordinate axis for the
        ``x_I^max`` curves of Figure 1, or an observable weight vector).
    maximize:
        Maximise when ``True``, minimise when ``False``.
    n_steps:
        RK4 grid intervals shared by state, costate and control.
    max_iter, tol, value_tol, value_patience, chatter_intervals:
        Sweep termination: stop when the control signal changed (by
        more than ``tol``) on at most ``chatter_intervals`` grid
        intervals (a bang-bang switch boundary hopping between
        neighbouring cells is a discretisation artefact, not
        non-convergence), or when the objective moved by less than
        ``value_tol`` (relative) for ``value_patience`` consecutive
        sweeps.
    extremizer:
        Optional pre-built Hamiltonian maximiser; the re-maximisation of
        step (8) is one
        :meth:`~repro.inclusion.DriftExtremizer.maximize_direction_batch`
        call per sweep (all ``n_steps`` grid intervals at once).
    initial_controls:
        Warm-start control signal, shape ``(n_steps, p)``: it seeds the
        lane's control stack.  Defaults to the centre of ``Theta`` on
        every interval.
    """
    return _extremal_trajectories_batch_impl(
        model, x0, [(direction, maximize, horizon, n_steps)],
        max_iter=max_iter, tol=tol, value_tol=value_tol,
        value_patience=value_patience, chatter_intervals=chatter_intervals,
        extremizer=extremizer,
        initial_controls=None if initial_controls is None
        else [initial_controls],
    )[0]


#: Byte budget of one block of the population-model costate sweep: the
#: three Jacobian stacks of a block of lockstep steps plus the two work
#: stacks its transfer matrices are built in, five ``d x d`` matrices
#: per lane and step.  Every catalog lane set fits in one block (2.8 MB
#: at most), so the sweep makes one ``jacobian_x_batch`` call.
_JACOBIAN_BLOCK_BYTES = 4 << 20


def _costate_sweep_batch(model, T, steps, states, controls, C, w_mid,
                         idx_right):
    """Backward costate integration for a whole lane set at once.

    The costate equation ``p' = -J(x, u)^T p`` is linear, and during one
    backward sweep the state trajectory and control signal are *frozen*:
    per interval ``j`` the RK4 stages read ``J(x(T[j+1]), u)`` (the node
    entered backward), ``J(x_mid, u_j)`` (the half step, twice) and
    ``J(x(T[j]), u_j)``.  No stage loop runs over dense Jacobians:

    - A population model (dense, small ``d``) folds a step's four
      stages into one ``d x d`` transfer matrix, so a lockstep step is
      one costate product, ``p <- M p``.  With
      ``B_1, B_2, B_3`` the ``-J^T`` of the three stage points and ``dt``
      negative (backward in time), the RK4 stage algebra applied to the
      identity gives ``K_1 = B_1``, ``K_2 = B_2 (I + dt/2 K_1)``,
      ``K_3 = B_2 (I + dt/2 K_2)``, ``K_4 = B_3 (I + dt K_3)`` and
      ``M = I + dt/6 (K_1 + 2 K_2 + 2 K_3 + K_4)``.  The Jacobians of a
      block of steps come from one batched
      :meth:`~repro.population.PopulationModel.jacobian_x_batch` call
      over every lane, and the block's ``M`` are built in place from
      them by three batched matmuls; a block holds as many steps as fit
      in :data:`_JACOBIAN_BLOCK_BYTES`.
    - A model that declares ``vjp_batch(x, theta, lam)``, the product
      ``J(x, theta)^T lam`` per row, runs the four stage products through
      it on step-major stage rows gathered once per sweep.  The master
      equation (:class:`~repro.ctmc.KolmogorovSystem`) does, because its
      dense ``d x d`` Jacobian is too large to build.

    The step geometry is built once, as step-major tables.  A lane whose
    grid is exhausted keeps stepping on its first interval, and those
    steps are never stored: the costate of every step is kept in a
    step-major trail, and the live steps are scattered onto the grid
    once at the end.  Returns the costate stack in forward orientation,
    ``(L, n+1, d)``.
    """
    L, n_plus_1, d = states.shape
    n_sweep = int(steps.max())
    lanes = np.arange(L)
    x_left = states[:, :-1]
    x_right = states[:, 1:]
    x_mid = x_left + w_mid[:, :, None] * (x_right - x_left)
    u_right = controls[lanes[:, None], idx_right]
    # Step i enters interval steps - 1 - i of each lane (interval 0 once
    # the lane has run out); dt is negative: backward in time.
    step_index = np.arange(n_sweep)[:, None]
    live = step_index < steps
    entered = np.maximum(steps - 1 - step_index, 0)
    dt = (T[lanes, entered] - T[lanes, entered + 1])[:, :, None]

    trail = np.empty((n_sweep, L, 1, d))
    vjp = getattr(model, "vjp_batch", None)
    if vjp is not None:
        # (n_sweep, L, k) rows of every stage point, step-major.
        x_r, x_m, x_l, u_r, u_j = (
            arr[lanes, entered]
            for arr in (x_right, x_mid, x_left, u_right, controls)
        )
        # The stage slopes are -vjp(...); their signs ride on the step
        # sizes (negation is exact, so no bit depends on where it sits).
        half, sixth = 0.5 * dt, dt / 6.0
        p = C.copy()
        for i in range(n_sweep):
            k1 = vjp(x_r[i], u_r[i], p)
            k2 = vjp(x_m[i], u_j[i], p - half[i] * k1)
            k3 = vjp(x_m[i], u_j[i], p - half[i] * k2)
            k4 = vjp(x_l[i], u_j[i], p - dt[i] * k3)
            p = p - sixth[i] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            trail[i, :, 0] = p
    else:
        # Costates as (L, 1, d) rows: p^T <- p^T M^T is one matmul
        # into the trail.
        p = C[:, None, :].copy()
        eye = np.eye(d)
        block = max(1, _JACOBIAN_BLOCK_BYTES
                    // (5 * L * d * d * states.itemsize))
        for i0 in range(0, n_sweep, block):
            i1 = min(i0 + block, n_sweep)
            window = entered[i0:i1]
            rows = lambda arr: arr[lanes, window].reshape(-1, arr.shape[2])  # noqa: E731
            a = model.jacobian_x_batch(
                np.concatenate([rows(x_right), rows(x_mid), rows(x_left)]),
                np.concatenate([rows(u_right), rows(controls),
                                rows(controls)]),
            ).reshape(3, i1 - i0, L, d, d)
            # a holds -J, the transposes of the stage matrices B, so
            # every product is a left multiplication and the block
            # builds M^T in a[0]: K_1^T = -J_1, K_2^T = (I + dt/2 K_1^T)
            # (-J_2), ...  Two work stacks, w and k, are reused.
            np.negative(a, out=a)
            a1, a2, a3 = a
            h, full = 0.5 * dt[i0:i1, :, :, None], dt[i0:i1, :, :, None]
            w = h * a1
            w += eye
            k = np.matmul(w, a2)                  # K_2^T
            np.multiply(h, k, out=w)
            w += eye
            k *= 2.0
            a1 += k
            np.matmul(w, a2, out=k)               # K_3^T
            np.multiply(full, k, out=w)
            w += eye
            k *= 2.0
            a1 += k
            np.matmul(w, a3, out=k)               # K_4^T
            a1 += k
            a1 *= full / 6.0
            a1 += eye                             # M^T
            del w, k
            for c, i in enumerate(range(i0, i1)):
                p = np.matmul(p, a1[c], out=trail[i])
            # Free this block before the next is built: two live blocks
            # would double the budget.
            del a, a1, a2, a3
    costates = np.tile(C[:, None, :], (1, n_plus_1, 1))
    step_of, lane_of = np.nonzero(live)
    costates[lane_of, entered[step_of, lane_of]] = trail[step_of, lane_of, 0]
    return costates


def extremal_trajectories_batch(
    model,
    x0,
    specs: Sequence,
    max_iter: int = 100,
    tol: float = 1e-7,
    value_tol: float = 1e-6,
    value_patience: int = 3,
    chatter_intervals: int = 2,
    extremizer: Optional[DriftExtremizer] = None,
    deadline_seconds: Optional[float] = None,
) -> List[PontryaginResult]:
    with telemetry.span("pontryagin.sweep", lanes=len(specs)):
        return _extremal_trajectories_batch_impl(
            model, x0, specs,
            max_iter=max_iter, tol=tol, value_tol=value_tol,
            value_patience=value_patience,
            chatter_intervals=chatter_intervals, extremizer=extremizer,
            deadline_seconds=deadline_seconds,
        )


def _extremal_trajectories_batch_impl(
    model,
    x0,
    specs: Sequence,
    max_iter: int = 100,
    tol: float = 1e-7,
    value_tol: float = 1e-6,
    value_patience: int = 3,
    chatter_intervals: int = 2,
    extremizer: Optional[DriftExtremizer] = None,
    deadline_seconds: Optional[float] = None,
    initial_controls: Optional[Sequence] = None,
) -> List[PontryaginResult]:
    """Run many forward–backward sweeps as one lane-parallel batch.

    Each spec is a ``(direction, maximize, horizon, n_steps)`` tuple
    describing one extremal-trajectory problem; all of them advance in
    lockstep through the batched RK4 kernels: per iteration the forward
    state sweep is *one* :func:`~repro.ode.rk4_integrate_controlled_batch`
    call, the backward costate sweep one lockstep recursion with one
    costate product per step (:func:`_costate_sweep_batch`: per-step RK4
    transfer matrices built from a block of steps per
    :meth:`~repro.population.PopulationModel.jacobian_x_batch` call, or
    the model's sparse ``vjp_batch`` hook), and the
    Hamiltonian re-maximisation one extremiser call over every active
    lane's every grid interval.  Per-lane convergence masks let converged
    lanes retire — they stop consuming forward/backward work — while the
    rest keep sweeping.

    Per lane the sweep integrates the state forward under the current
    control, the costate backward along the stored state, and
    re-maximises the Hamiltonian pointwise.  Full-replacement updates can
    2-cycle around a bang-bang switch; ``Theta`` is convex, so a lane
    whose objective regresses (by more than ``value_tol``) halves its
    relaxation step (down to 0.05) and blends its controls instead.  A
    lane stops when its control changed (by more than ``tol``) on at
    most ``chatter_intervals`` grid intervals — then one final forward
    pass runs under the fixed-point control — or when its objective
    moved by at most ``value_tol`` (relative) for ``value_patience``
    consecutive sweeps.  Each lane keeps its best iterate, and the
    result projects it back to the pointwise Hamiltonian maximiser —
    the PMP-consistent bang-bang signal — whenever that loses no value.

    Neither the final pass nor the projection pass is a forward call of
    its own: each lane moves through the states active → finishing →
    projecting → done, and the iteration's one forward call carries the
    active lanes under their current controls, the finishing lanes under
    their fixed-point controls and the projecting lanes under the
    projection of their best iterate.  A lane at a fixed point finishes
    in the next call; a lane whose best iterate is final (after its
    final pass, on value patience, or when ``max_iter`` or the deadline
    stops the sweep) projects in the call after that, and drain turns
    run the pending passes once no lane is active.  Lanes are
    independent rows of every kernel call, so the schedule returns the
    same bits as separate fixed-point and projection passes.

    ``max_iter < 1``, a negative or non-finite ``tol`` / ``value_tol``
    and ``value_patience < 1`` raise ``ValueError``: each would return
    a bound that is not an extremum, marked converged.

    ``deadline_seconds`` is a wall-clock budget for graceful
    degradation: when the sweep loop exceeds it, iteration stops and
    every still-active lane reports its best-so-far value with
    ``converged=False`` (the first iteration always completes, so a
    best iterate exists, and the final bang-bang projection pass still
    runs).  Deadline hits stamp
    ``resilience.pontryagin.deadline_hits``.

    ``initial_controls`` (one ``(n_max, p)`` signal per lane) replaces
    the centre-of-``Theta`` cold start; it is the warm start of
    :func:`extremal_trajectory`.
    """
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    # An iteration count (TypeError on a float, as range() raised).
    operator.index(max_iter)
    for name, value in (("tol", tol), ("value_tol", value_tol)):
        if not (np.isfinite(value) and value >= 0.0):
            raise ValueError(
                f"{name} must be finite and non-negative, got {value}"
            )
    if not value_patience >= 1:
        raise ValueError(f"value_patience must be >= 1, got {value_patience}")
    if not specs:
        return []
    extremizer = extremizer or DriftExtremizer(model)
    L = len(specs)
    d, p = model.dim, model.theta_dim

    directions = np.empty((L, d))
    maximize = np.empty(L, dtype=bool)
    grids = []
    for l, (direction, is_max, horizon, n_steps) in enumerate(specs):
        x0, directions[l] = _checked_problem(x0, direction, horizon,
                                             n_steps, d)
        maximize[l] = bool(is_max)
        grids.append(np.linspace(0.0, float(horizon), int(n_steps) + 1))
    # Internally every lane maximises c . x(T).
    C = np.where(maximize[:, None], directions, -directions)
    T, steps = pad_grids(grids)
    n_max = T.shape[1] - 1
    lanes_all = np.arange(L)
    interval_live = np.arange(n_max)[None, :] < steps[:, None]
    # Stage geometry of the backward sweeps (fixed across iterations):
    # the mid-stage interpolation weight per interval, and the control
    # interval the node-entry stage reads (the piecewise-constant lookup
    # clips at the terminal interval).
    span = T[:, 1:] - T[:, :-1]
    t_mid = T[:, 1:] + 0.5 * (T[:, :-1] - T[:, 1:])
    with np.errstate(invalid="ignore", divide="ignore"):
        w_mid = np.where(span != 0.0, (t_mid - T[:, :-1]) / span, 0.5)
    idx_right = np.minimum(np.arange(1, n_max + 1)[None, :],
                           (steps - 1)[:, None])

    if initial_controls is None:
        controls = np.tile(model.theta_set.center(), (L, n_max, 1))
    else:
        controls = np.array(initial_controls, dtype=float)
        if controls.ndim == 2:
            controls = controls[:, :, None]
        if controls.shape != (L, n_max, p):
            raise ValueError(
                f"initial_controls has shape {controls.shape[1:]}, "
                f"expected ({n_max}, {p})"
            )
    x0_stack = np.broadcast_to(x0, (L, d)).copy()

    def dynamics(t, X, U):
        return model.drift_batch(X, U)

    # Per-lane sweep state.
    best_value = np.full(L, -np.inf)
    best_states = np.zeros((L, n_max + 1, d))
    best_costates = np.tile(C[:, None, :], (1, n_max + 1, 1))
    best_controls = controls.copy()
    projected = np.empty_like(controls)
    value_prev = np.zeros(L)
    has_prev = np.zeros(L, dtype=bool)
    stable = np.zeros(L, dtype=int)
    relaxation = np.ones(L)
    converged = np.zeros(L, dtype=bool)
    iterations = np.zeros(L, dtype=int)
    costates = np.tile(C[:, None, :], (1, n_max + 1, 1))

    # Hoisted live handles (None when disabled): the lane sweep stamps
    # metrics per iteration, so the registry lookup happens once here.
    iter_counter = telemetry.live_counter("pontryagin.iterations")
    relax_counter = telemetry.live_counter("pontryagin.relaxation_events")
    residual_hist = telemetry.live_histogram("pontryagin.value_residual")
    deadline_counter = telemetry.live_counter(
        "resilience.pontryagin.deadline_hits"
    )

    # Lanes move active -> (finishing ->) projecting -> done; each turn
    # runs one forward pass over all three groups.
    no_lanes = lanes_all[:0]
    active, finishing, projecting = lanes_all, no_lanes, no_lanes
    sweep_start = time.perf_counter()
    it = 0
    while active.size or finishing.size or projecting.size:
        it += 1
        a, fin, proj = active, finishing, projecting
        if a.size:
            iterations[a] = it
            if iter_counter is not None:
                iter_counter.inc(int(a.size))
        # (7) forward state sweep: the active lanes under their current
        # controls, the finishing lanes under their fixed-point controls
        # (the final pass) and the projecting lanes under the pointwise
        # Hamiltonian maximiser of their best iterate.
        rows = np.concatenate([a, fin, proj])
        n_a, n_af = a.size, a.size + fin.size
        fwd = rk4_integrate_controlled_batch(
            dynamics, x0_stack[rows], T[rows],
            np.concatenate([controls[rows[:n_af]], projected[proj]]),
            lane_steps=steps[rows],
        )
        row_values = np.einsum("ld,ld->l", C[rows], fwd.final_states)
        finished = [fin]
        active = finishing = no_lanes

        if a.size:
            value = row_values[:n_a]
            states_a = fwd.states[:n_a]
            improved = value > best_value[a]
            upd = a[improved]
            best_value[upd] = value[improved]
            best_states[upd] = states_a[improved]
            best_costates[upd] = costates[upd]
            best_controls[upd] = controls[upd]

            # (9) backward costate sweep along the stored states.
            costates_a = _costate_sweep_batch(
                model, T[a], steps[a], states_a, controls[a], C[a],
                w_mid[a], idx_right[a],
            )
            costates[a] = costates_a

            # (8) pointwise Hamiltonian maximisation, all lanes and
            # intervals in one batched call.
            thetas_flat, _ = extremizer.maximize_direction_batch(
                states_a[:, :-1].reshape(-1, d),
                costates_a[:, :-1].reshape(-1, d),
            )
            target = thetas_flat.reshape(a.size, n_max, p)

            changed = (
                np.any(np.abs(target - controls[a]) > tol, axis=2)
                & interval_live[a]
            )
            n_changed = np.count_nonzero(changed, axis=1)
            fixed_point = n_changed <= chatter_intervals
            # A fixed point runs one final pass under its controls next.
            finishing = a[fixed_point]
            controls[finishing] = target[fixed_point]
            converged[finishing] = True

            cont = ~fixed_point
            if np.any(cont):
                ac = a[cont]
                v = value[cont]
                regressed = has_prev[ac] & (v < value_prev[ac] - value_tol)
                relaxation[ac[regressed]] = np.maximum(
                    0.5 * relaxation[ac[regressed]], 0.05
                )
                if relax_counter is not None:
                    n_regressed = int(np.count_nonzero(regressed))
                    if n_regressed:
                        relax_counter.inc(n_regressed)
                if residual_hist is not None:
                    residual_hist.observe_many(
                        np.abs(v - value_prev[ac])[has_prev[ac]]
                    )
                settled = has_prev[ac] & (
                    np.abs(v - value_prev[ac])
                    <= value_tol * np.maximum(1.0, np.abs(v))
                )
                stable[ac[settled]] += 1
                stable[ac[~settled]] = 0
                patience_hit = stable[ac] >= value_patience
                converged[ac[patience_hit]] = True
                finished.append(ac[patience_hit])
                value_prev[ac] = v
                has_prev[ac] = True
                step_lanes = ~patience_hit
                active = ac[step_lanes]
                controls[active] = controls[active] \
                    + relaxation[active][:, None, None] \
                    * (target[cont][step_lanes] - controls[active])

        if fin.size:
            fin_value = row_values[n_a:n_af]
            better = fin_value >= best_value[fin]
            upd = fin[better]
            best_value[upd] = fin_value[better]
            best_states[upd] = fwd.states[n_a:n_af][better]
            best_costates[upd] = costates[upd]
            best_controls[upd] = controls[upd]

        if proj.size:
            # Keep the projection whenever it loses no value.
            proj_value = row_values[n_af:]
            values = best_value[proj]
            keep = proj_value >= values - value_tol * np.maximum(
                1.0, np.abs(values))
            kept = proj[keep]
            best_states[kept] = fwd.states[n_af:][keep]
            best_controls[kept] = projected[kept]
            best_value[proj] = np.where(
                keep, np.maximum(values, proj_value), values)

        if active.size:
            # Past max_iter, or past the wall-clock budget (graceful
            # degradation, checked only after a full iteration so every
            # lane has a finite best value), the active lanes stop and
            # project their best iterate.
            timed_out = (it < max_iter and deadline_seconds is not None
                         and time.perf_counter() - sweep_start
                         > deadline_seconds)
            if timed_out and deadline_counter is not None:
                deadline_counter.inc()
            if it >= max_iter or timed_out:
                finished.append(active)
                active = no_lanes

        # Project each lane whose best iterate is final back to the
        # pointwise Hamiltonian maximiser: the PMP-consistent bang-bang
        # signal its projection pass runs under next turn.
        projecting = np.concatenate(finished)
        if projecting.size:
            thetas_flat, _ = extremizer.maximize_direction_batch(
                best_states[projecting, :-1].reshape(-1, d),
                best_costates[projecting, :-1].reshape(-1, d),
            )
            projected[projecting] = thetas_flat.reshape(
                projecting.size, n_max, p)

    results = []
    for l in range(L):
        stop = int(steps[l]) + 1
        results.append(
            PontryaginResult(
                times=T[l, :stop].copy(),
                states=best_states[l, :stop].copy(),
                costates=best_costates[l, :stop].copy(),
                controls=best_controls[l, : stop - 1].copy(),
                direction=directions[l].copy(),
                maximize=bool(maximize[l]),
                value=float(best_value[l] if maximize[l] else -best_value[l]),
                converged=bool(converged[l]),
                iterations=int(iterations[l]),
            )
        )
    return results


extremal_trajectories_batch.__doc__ = _extremal_trajectories_batch_impl.__doc__


@dataclass
class TransientBounds:
    """Min/max of observables at a grid of horizons (Figures 1 and 7).

    ``lower[name][k]`` and ``upper[name][k]`` bound the observable at
    ``horizons[k]`` over all solutions of the imprecise inclusion.

    ``converged`` is ``False`` when a ``deadline_seconds`` budget
    stopped the computation early: the recorded bounds are then the
    best iterates so far (still conservative directions of search, but
    not fixed points).  Sides left out of ``sides`` stay NaN.
    """

    horizons: np.ndarray
    lower: Dict[str, np.ndarray] = field(default_factory=dict)
    upper: Dict[str, np.ndarray] = field(default_factory=dict)
    lower_results: Dict[str, List[PontryaginResult]] = field(default_factory=dict)
    upper_results: Dict[str, List[PontryaginResult]] = field(default_factory=dict)
    converged: bool = True

    @property
    def observable_names(self):
        return sorted(self.lower)

    def width(self, name: str) -> np.ndarray:
        return self.upper[name] - self.lower[name]

    def final_bounds(self, name: str) -> Tuple[float, float]:
        return float(self.lower[name][-1]), float(self.upper[name][-1])


def _resolve_directions(model, observables) -> Dict[str, np.ndarray]:
    if observables is None:
        if model.observables:
            return {k: np.asarray(v, float) for k, v in model.observables.items()}
        return {
            name: np.eye(model.dim)[i] for i, name in enumerate(model.state_names)
        }
    directions = {}
    for entry in observables:
        if isinstance(entry, str):
            if entry in model.observables:
                directions[entry] = np.asarray(model.observables[entry], float)
            elif entry in model.state_names:
                directions[entry] = np.eye(model.dim)[model.state_names.index(entry)]
            else:
                raise KeyError(f"unknown observable {entry!r}")
        else:
            name, vector = entry
            directions[str(name)] = np.asarray(vector, dtype=float)
    return directions


def pontryagin_transient_bounds(
    model,
    x0,
    horizons,
    observables: Optional[Sequence] = None,
    steps_per_unit: float = 100.0,
    min_steps: int = 60,
    max_iter: int = 100,
    tol: float = 1e-7,
    extremizer: Optional[DriftExtremizer] = None,
    keep_results: bool = False,
    sides: Sequence[str] = ("lower", "upper"),
    deadline_seconds: Optional[float] = None,
) -> TransientBounds:
    with telemetry.span("pontryagin.bounds",
                        horizons=np.asarray(horizons).size):
        return _pontryagin_transient_bounds_impl(
            model, x0, horizons, observables=observables,
            steps_per_unit=steps_per_unit, min_steps=min_steps,
            max_iter=max_iter, tol=tol, extremizer=extremizer,
            keep_results=keep_results, sides=sides,
            deadline_seconds=deadline_seconds,
        )


def _pontryagin_transient_bounds_impl(
    model,
    x0,
    horizons,
    observables: Optional[Sequence] = None,
    steps_per_unit: float = 100.0,
    min_steps: int = 60,
    max_iter: int = 100,
    tol: float = 1e-7,
    extremizer: Optional[DriftExtremizer] = None,
    keep_results: bool = False,
    sides: Sequence[str] = ("lower", "upper"),
    deadline_seconds: Optional[float] = None,
) -> TransientBounds:
    """Exact imprecise-model bounds at each horizon, per observable.

    One Pontryagin sweep per (horizon, observable, side).  This
    regenerates the ``x^{imprecise}`` curves of Figure 1 and the
    queue-length curves of Figure 7.

    ``sides`` selects which bounds to compute (``"lower"``, ``"upper"``
    or both); robust-design loops that only consume the worst case pass
    ``sides=("upper",)`` and halve the cost.  Unselected sides are left
    as NaN in the result.

    *All* (observable, side, horizon) sweeps advance simultaneously
    through :func:`extremal_trajectories_batch`: each iteration issues
    one batched forward RK4 call, one batched costate call and one
    Hamiltonian re-maximisation for the whole lane set, and converged
    lanes retire early.  Every lane cold-starts from the centre of
    ``Theta``.

    Each horizon ``T`` gets ``max(min_steps, ceil(T * steps_per_unit))``
    grid intervals; ``steps_per_unit`` must be positive and finite, and
    ``min_steps`` an integer of at least 2.

    ``deadline_seconds`` bounds the wall clock: past it, the sweep
    stops iterating and reports best-so-far values, and the returned
    :class:`TransientBounds` carries ``converged=False``.
    """
    horizons = np.asarray(horizons, dtype=float)
    if horizons.ndim != 1 or horizons.size == 0:
        raise ValueError("horizons must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(horizons)):
        raise ValueError(f"horizons must be finite, got {horizons}")
    if np.any(horizons <= 0):
        raise ValueError("all horizons must be positive (t = 0 is the initial state)")
    if np.any(np.diff(horizons) <= 0):
        raise ValueError("horizons must be strictly increasing")
    if not (steps_per_unit > 0 and np.isfinite(steps_per_unit)):
        raise ValueError(
            f"steps_per_unit must be positive and finite, got {steps_per_unit}"
        )
    if not (np.isfinite(min_steps) and min_steps >= 2
            and float(min_steps).is_integer()):
        raise ValueError(f"min_steps must be an integer >= 2, got {min_steps}")
    invalid_sides = set(sides) - {"lower", "upper"}
    if invalid_sides or not sides:
        raise ValueError(
            f"sides must be a non-empty subset of ('lower', 'upper'); "
            f"got {tuple(sides)}"
        )
    directions = _resolve_directions(model, observables)
    extremizer = extremizer or DriftExtremizer(model)
    bounds = TransientBounds(horizons=horizons.copy())
    requested = tuple(
        is_max for is_max in (False, True)
        if ("upper" if is_max else "lower") in sides
    )
    step_counts = [
        max(int(min_steps), int(np.ceil(horizon * steps_per_unit)))
        for horizon in horizons
    ]
    if keep_results:
        for name in directions:
            bounds.lower_results[name] = []
            bounds.upper_results[name] = []

    specs = []
    keys = []
    for name, c in directions.items():
        bounds.lower[name] = np.full(horizons.shape[0], np.nan)
        bounds.upper[name] = np.full(horizons.shape[0], np.nan)
        for is_max in requested:
            for k, horizon in enumerate(horizons):
                specs.append((c, is_max, float(horizon), step_counts[k]))
                keys.append((name, is_max, k))
    results = extremal_trajectories_batch(
        model, x0, specs,
        max_iter=max_iter, tol=tol, extremizer=extremizer,
        deadline_seconds=deadline_seconds,
    )
    for (name, is_max, k), result in zip(keys, results):
        target = bounds.upper if is_max else bounds.lower
        target[name][k] = result.value
        if keep_results:
            store = bounds.upper_results if is_max else bounds.lower_results
            store[name].append(result)
    if deadline_seconds is not None:
        bounds.converged = all(r.converged for r in results)
    return bounds


pontryagin_transient_bounds.__doc__ = _pontryagin_transient_bounds_impl.__doc__


def switching_function(result: PontryaginResult, model,
                       param_index: int = 0) -> np.ndarray:
    """The Hamiltonian switching function ``sigma_k(t) = p(t) . G(x(t))_k``.

    For an affine-in-theta model the Hamiltonian is
    ``p . g0(x) + sum_k theta_k sigma_k`` — the optimal ``theta_k`` sits
    at its upper bound where ``sigma_k > 0`` and its lower bound where
    ``sigma_k < 0``, and switches exactly at the zeros of ``sigma_k``.
    """
    if not model.is_affine:
        raise ValueError("switching functions require an affine-in-theta model")
    values = np.empty(result.times.shape[0])
    for i, (x, p) in enumerate(zip(result.states, result.costates)):
        _, big_g = model.affine_parts(x)
        values[i] = float(p @ big_g[:, param_index])
    return values


def switching_times_from_costate(result: PontryaginResult, model,
                                 param_index: int = 0) -> List[float]:
    """Switching times as zeros of the costate switching function.

    More robust than reading the discrete control signal: near a switch
    the control can chatter across grid cells or retain relaxation
    blending, while the switching function crosses zero once per genuine
    structural switch.  Zeros are located by linear interpolation
    between grid points.
    """
    sigma = switching_function(result, model, param_index=param_index)
    times = result.times
    roots: List[float] = []
    for i in range(sigma.shape[0] - 1):
        a, b = sigma[i], sigma[i + 1]
        if a == 0.0:
            continue
        if a * b < 0.0:
            t_root = times[i] + (times[i + 1] - times[i]) * a / (a - b)
            roots.append(float(t_root))
    return roots
