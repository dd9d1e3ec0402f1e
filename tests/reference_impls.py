"""Reference oracles for the batched kernels of the library.

The library computes every bound through one batched implementation.
The functions here are the plain, one-query-at-a-time versions of the
same computations — a rate per row and transition, a knapsack per row,
a generator assembled state by state, a sparse product per generator
part, an extremisation per query, an ODE solve per constant ``theta``,
a scalar forward–backward sweep per
Pontryagin problem (and the lane sweep with a forward call per phase and
a costate store per step), a scipy solve per Birkhoff seed or escape
trajectory, a scalar Gillespie loop per SSA run — kept only
so the tests can pin the batched kernels against an independent
computation.  Nothing under ``src/`` imports this module.

Each oracle documents what it is the reference for; the tests choose the
tolerance (exact equality where the arithmetic is the same, integrator
tolerance where the batched path shares one adaptive step sequence).
"""

import itertools
import time
from functools import cached_property
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from repro.bounds import UncertainEnvelope, pontryagin
from repro.bounds.pontryagin import (
    PontryaginResult,
    TransientBounds,
    _checked_problem,
    _resolve_directions,
)
from repro.bounds.sweep import _resolve_weights
from repro.ctmc.kolmogorov import KolmogorovSystem, _csr_transpose
from repro.geometry import ConvexPolygon, convex_hull, point_in_polygon
from repro.inclusion import DriftExtremizer
from repro.ode import (
    Trajectory,
    find_fixed_point,
    pad_grids,
    rk4_integrate,
    rk4_integrate_controlled_batch,
    solve_ode,
)
from repro.params import DiscreteSet
from repro.simulation import BatchResult, SimulationResult
from repro.steadystate import BirkhoffResult

# ----------------------------------------------------------------------
# Population rates: PopulationModel.drift_batch / transition_rates_batch
# ----------------------------------------------------------------------


def _row_stacks(model, x, theta):
    """``(n, d)`` states and ``(n, p)`` parameters, one θ row for all."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    return x, np.broadcast_to(theta, (x.shape[0], model.theta_dim))


def drift_batch(model, x, theta):
    """Drift rows as a loop over transitions of per-row raw rates.

    Each transition adds ``rate * change`` to every row in declaration
    order, starting from zero — the reference for
    :meth:`PopulationModel.drift_batch`, equal bit for bit.
    """
    x, theta = _row_stacks(model, x, theta)
    out = np.zeros((x.shape[0], model.dim))
    for tr in model.transitions:
        values = np.array([float(tr.rate(x[r], theta[r]))
                           for r in range(x.shape[0])])
        out += values[:, None] * tr.change[None, :]
    return out


def transition_rates_batch(model, x, theta):
    """Clamped rates ``(n, K)`` from one ``Transition.rate_at`` per entry.

    The reference for :meth:`PopulationModel.transition_rates_batch`,
    equal bit for bit.
    """
    x, theta = _row_stacks(model, x, theta)
    return np.array([[tr.rate_at(x[r], theta[r]) for tr in model.transitions]
                     for r in range(x.shape[0])]).reshape(
        x.shape[0], len(model.transitions))


# ----------------------------------------------------------------------
# Drift extremisation: DriftExtremizer.*_batch
# ----------------------------------------------------------------------


def maximize_direction(extremizer, x, direction):
    """``(theta*, value)`` maximising ``direction . f(x, theta)``, one query.

    Follows the extremizer's configured strategy (``affine`` bang-bang,
    ``corners`` or ``grid`` enumeration).
    """
    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)
    model = extremizer.model
    if extremizer.method == "affine":
        return _maximize_affine(extremizer, x, direction)
    if extremizer.method == "corners":
        return _maximize_enumerate(model, x, direction,
                                   model.theta_set.corners())
    return _maximize_enumerate(model, x, direction, extremizer._theta_grid())


def _maximize_affine(extremizer, x, direction):
    g0, big_g = extremizer.model.affine_parts(x)
    base = float(direction @ g0)
    coeffs = direction @ big_g
    theta_set = extremizer.model.theta_set
    if isinstance(theta_set, DiscreteSet):
        values = theta_set.values @ coeffs
        best = int(np.argmax(values))
        return theta_set.values[best].copy(), base + float(values[best])
    lowers, uppers = extremizer._box_bounds(theta_set)
    # Zero coefficients take the lower bound, as the batch kernel does.
    theta = np.where(coeffs > 0.0, uppers, lowers)
    return theta, base + float(coeffs @ theta)


def _maximize_enumerate(model, x, direction, candidates):
    values = np.array([float(direction @ model.drift(x, theta))
                       for theta in candidates])
    best = int(np.argmax(values))
    return np.asarray(candidates[best], dtype=float).copy(), float(values[best])


def maximize_direction_rows(extremizer, states, directions):
    """:func:`maximize_direction` row by row: ``(thetas, values)``."""
    pairs = [maximize_direction(extremizer, x, p)
             for x, p in zip(states, directions)]
    return (np.array([theta for theta, _ in pairs]),
            np.array([value for _, value in pairs]))


def support(extremizer, x, direction):
    return maximize_direction(extremizer, x, direction)[1]


def coordinate_range(extremizer, x, index):
    """``(min, max)`` of drift coordinate ``index`` over ``Theta``."""
    e = np.zeros(extremizer.model.dim)
    e[index] = 1.0
    return (-maximize_direction(extremizer, x, -e)[1],
            maximize_direction(extremizer, x, e)[1])


def velocity_envelope(extremizer, x):
    """Coordinate-wise bounds of ``F(x)``: one range per coordinate."""
    ranges = [coordinate_range(extremizer, x, i)
              for i in range(extremizer.model.dim)]
    return (np.array([lo for lo, _ in ranges]),
            np.array([hi for _, hi in ranges]))


# ----------------------------------------------------------------------
# Differential hull: hull_vector_field / differential_hull_bounds
# ----------------------------------------------------------------------


def hull_field(model):
    """The hull pair field, one coordinate range per slice corner."""
    d = model.dim
    extremizer = DriftExtremizer(model)

    def slice_corners(lower, upper, i, pin):
        axes = [[pin] if j == i else [lower[j], upper[j]] for j in range(d)]
        return [np.array(corner) for corner in itertools.product(*axes)]

    def field(t, z):
        lower, upper = z[:d], np.maximum(z[d:], z[:d])
        dlo, dhi = np.empty(d), np.empty(d)
        for i in range(d):
            dlo[i] = min(coordinate_range(extremizer, x, i)[0]
                         for x in slice_corners(lower, upper, i, lower[i]))
            dhi[i] = max(coordinate_range(extremizer, x, i)[1]
                         for x in slice_corners(lower, upper, i, upper[i]))
        return np.concatenate([dlo, dhi])

    return field


def hull_bounds(model, x0, t_eval, rtol=1e-7, atol=1e-9):
    """``(lower, upper)`` of the hull integrated with the reference field.

    Same scipy integrator and tolerances as the library, without the
    blow-up cut-off (the tests compare hulls before any blow-up).
    """
    x0 = np.asarray(x0, dtype=float)
    t_eval = np.asarray(t_eval, dtype=float)
    sol = solve_ivp(hull_field(model),
                    (float(t_eval[0]), float(t_eval[-1])),
                    np.concatenate([x0, x0]), t_eval=t_eval,
                    rtol=rtol, atol=atol)
    return sol.y[:model.dim].T, sol.y[model.dim:].T


# ----------------------------------------------------------------------
# Constant-theta sweeps: uncertain_envelope, uncertain_reward_envelope,
# uncertain_fixed_points
# ----------------------------------------------------------------------


def _sweep_thetas(theta_set, resolution):
    return np.unique(np.vstack([theta_set.grid(resolution),
                                theta_set.corners()]), axis=0)


def uncertain_envelope(model, x0, t_eval, resolution=15, observables=None,
                       rtol=1e-8, atol=1e-10, integrator="adaptive",
                       rk4_steps=400):
    """The envelope from one ODE solve per constant ``theta``.

    ``"adaptive"`` solves each ``theta`` with scipy's ``solve_ivp``;
    ``"rk4"`` with the scalar fixed-grid RK4 on the same grid the
    library builds, interpolated back onto ``t_eval``.
    """
    t_eval = np.asarray(t_eval, dtype=float)
    weights = _resolve_weights(model, observables)
    thetas = _sweep_thetas(model.theta_set, resolution)
    t_span = (float(t_eval[0]), float(t_eval[-1]))
    descending = t_span[0] > t_span[1]
    values = {name: np.empty((thetas.shape[0], t_eval.shape[0]))
              for name in weights}
    for k, theta in enumerate(thetas):
        if integrator == "rk4":
            grid = np.union1d(np.linspace(t_span[0], t_span[1],
                                          int(rk4_steps) + 1), t_eval)
            traj = rk4_integrate(model.vector_field(theta), x0,
                                 grid[::-1] if descending else grid)
            states = (traj.reversed_time() if descending else traj)(t_eval)
        else:
            states = solve_ode(model.vector_field(theta), x0, t_span,
                               t_eval=t_eval, rtol=rtol, atol=atol).states
        for name, w in weights.items():
            values[name][k] = states @ w
    env = UncertainEnvelope(times=t_eval.copy(), thetas=thetas)
    columns = np.arange(t_eval.shape[0])
    for name, arr in values.items():
        k_min, k_max = np.argmin(arr, axis=0), np.argmax(arr, axis=0)
        env.lower[name] = arr[k_min, columns]
        env.upper[name] = arr[k_max, columns]
        env.argmin_theta[name] = thetas[k_min]
        env.argmax_theta[name] = thetas[k_max]
    return env


def uncertain_reward_envelope(chain, reward, t_eval, p0=None, resolution=9):
    """``(lower, upper)`` of ``r . P(t)``: one master-equation solve per theta."""
    t_eval = np.asarray(t_eval, dtype=float)
    reward = np.asarray(reward, dtype=float)
    p0 = chain.initial_distribution if p0 is None else np.asarray(p0, float)
    system = KolmogorovSystem(chain)
    values = np.array([
        solve_ode(system.vector_field(theta), p0,
                  (float(t_eval[0]), float(t_eval[-1])), t_eval=t_eval,
                  rtol=1e-9, atol=1e-11).states @ reward
        for theta in _sweep_thetas(chain.model.theta_set, resolution)
    ])
    return values.min(axis=0), values.max(axis=0)


def uncertain_fixed_points(model, resolution=41, x0_guess=None,
                           settle_time=60.0):
    """Equilibria along the theta grid by warm-started continuation."""
    if x0_guess is None:
        x0_guess = (np.full(model.dim, 0.5) if model.state_lower is None
                    else 0.5 * (model.state_lower + model.state_upper))
    guess = np.asarray(x0_guess, dtype=float)
    out = []
    for theta in model.theta_set.grid(resolution):
        guess = find_fixed_point(model.drift_fn(theta), guess,
                                 settle_time=settle_time)
        out.append(guess)
    return np.array(out)


# ----------------------------------------------------------------------
# Birkhoff centre: birkhoff_centre_2d and the ConvexPolygon queries
# ----------------------------------------------------------------------


def polygon_distance(polygon, point):
    """Distance from ``point`` to a convex polygon, one edge at a time.

    The reference for :meth:`repro.geometry.ConvexPolygon.distance`: the
    ray-cast :func:`~repro.geometry.point_in_polygon` inside test, then
    the nearest projection onto each edge segment in a Python loop.
    """
    if point_in_polygon(point, polygon.vertices):
        return 0.0
    p = np.asarray(point, dtype=float)
    best = np.inf
    n = polygon.n_vertices
    for i in range(n):
        a = polygon.vertices[i]
        b = polygon.vertices[(i + 1) % n]
        ab = b - a
        denom = float(ab @ ab)
        t = 0.0 if denom == 0.0 else np.clip(float((p - a) @ ab) / denom, 0.0, 1.0)
        proj = a + t * ab
        best = min(best, float(np.hypot(*(p - proj))))
    return best


def polygon_contains(polygon, point, tol=1e-9):
    """Membership reference for :meth:`repro.geometry.ConvexPolygon.contains`."""
    if point_in_polygon(point, polygon.vertices, tol=tol):
        return True
    return polygon_distance(polygon, point) <= tol


def birkhoff_centre_2d(model, x0_guess=None, settle_time=60.0, loop_time=40.0,
                       grow_time=30.0, per_edge=2, max_rounds=120,
                       tolerance=1e-4, degenerate_diameter=1e-6,
                       extremizer=None, samples_per_trajectory=200,
                       max_escapes_per_round=24, simplify_tolerance=5e-6,
                       spatial_tolerance=1e-4):
    """The Section V-C construction, one scalar call per trajectory or point.

    The reference for :func:`repro.steadystate.birkhoff_centre_2d`: a
    scipy ``solve_ivp`` per ordered corner pair for the seed loops, one
    ``maximize_direction`` per sampled boundary point, a ``solve_ivp``
    per chosen escape, and the region re-hulled with every escape point
    (no inside-point filter).  The library's Dormand–Prince lanes agree
    with scipy to integrator tolerance, so the two constructions agree
    on the region to about ``spatial_tolerance`` but not bit for bit.
    """
    if model.dim != 2:
        raise ValueError("birkhoff_centre_2d requires a two-dimensional model")
    extremizer = extremizer or DriftExtremizer(model)
    if x0_guess is None:
        if model.state_lower is not None:
            x0_guess = 0.5 * (model.state_lower + model.state_upper)
        else:
            x0_guess = np.full(model.dim, 0.5)
    x0_guess = np.asarray(x0_guess, dtype=float)

    corners = model.theta_set.corners()
    fixed_points = []
    current_guess = x0_guess
    for theta in corners:
        fp = find_fixed_point(
            model.drift_fn(theta), current_guess, settle_time=settle_time
        )
        fixed_points.append(fp)
        current_guess = fp
    fixed_points = np.array(fixed_points)

    points = [fixed_points]
    for i in range(corners.shape[0]):
        for j in range(corners.shape[0]):
            if i == j and corners.shape[0] > 1:
                continue
            traj = solve_ode(
                model.vector_field(corners[j]),
                fixed_points[i],
                (0.0, loop_time),
                t_eval=np.linspace(0.0, loop_time, samples_per_trajectory),
            )
            points.append(traj.states)
    cloud = np.vstack(points)

    diameter = float(
        np.max(np.linalg.norm(cloud - cloud.mean(axis=0), axis=1), initial=0.0)
    )
    if diameter <= degenerate_diameter:
        return BirkhoffResult(
            polygon=None,
            points=cloud,
            corner_fixed_points=fixed_points,
            certified=True,
            degenerate=True,
            rounds=0,
            max_outward_drift=0.0,
            converged=True,
        )

    hull = convex_hull(cloud)
    if hull.shape[0] < 3:
        direction = hull[-1] - hull[0]
        normal = np.array([-direction[1], direction[0]])
        norm = np.linalg.norm(normal)
        normal = normal / norm if norm > 0 else np.array([0.0, 1.0])
        cloud = np.vstack([cloud, cloud.mean(axis=0) + 1e-8 * normal])
    polygon = ConvexPolygon(cloud)

    history = []
    certified = False
    converged = False
    max_outward = np.inf
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        boundary, normals = polygon.boundary_points(per_edge=per_edge)
        candidates = []
        max_outward = -np.inf
        for x, n in zip(boundary, normals):
            theta_star, outward = extremizer.maximize_direction(x, n)
            max_outward = max(max_outward, outward)
            if outward > tolerance:
                candidates.append((outward, x, theta_star))
        history.append(max_outward)
        if not candidates:
            certified = True
            converged = True
            break
        candidates.sort(key=lambda item: -item[0])
        escapes = []
        early = min(1.0, 0.1 * grow_time)
        t_escape = np.unique(
            np.concatenate(
                [
                    np.linspace(0.0, early, samples_per_trajectory // 2),
                    np.linspace(early, grow_time, samples_per_trajectory // 2),
                ]
            )
        )
        for _, x, theta_star in candidates[:max_escapes_per_round]:
            traj = solve_ode(
                model.vector_field(theta_star),
                x,
                (0.0, grow_time),
                t_eval=t_escape,
                rtol=1e-8,
                atol=1e-10,
            )
            escapes.append(traj.states)
        escape_cloud = np.vstack(escapes)
        gain = float(np.max(polygon.signed_margin(escape_cloud)))
        if gain <= spatial_tolerance:
            converged = True
            break
        polygon = ConvexPolygon(np.vstack([polygon.vertices, escape_cloud]))
        polygon = polygon.simplified(simplify_tolerance)

    return BirkhoffResult(
        polygon=polygon,
        points=polygon.vertices,
        corner_fixed_points=fixed_points,
        certified=certified,
        degenerate=False,
        rounds=rounds,
        max_outward_drift=float(max_outward),
        converged=converged,
        history=history,
    )


# ----------------------------------------------------------------------
# Finite chains: ImpreciseCTMC.generator and the KolmogorovSystem drift
# ----------------------------------------------------------------------


def generator(chain, theta):
    """``Q(theta)`` assembled one state at a time (CSR).

    Per state: the aggregate rates, then every transition with a
    positive rate whose jump stays in ``[0, N]``, in transition order;
    the diagonal entries follow all off-diagonal ones.
    """
    theta = np.asarray(theta, dtype=float)
    n = chain.n_states
    rows, cols, vals = [], [], []
    diagonal = np.zeros(n)
    pop = chain.population
    cap = pop.population_size
    for row in range(n):
        counts = chain.states[row]
        rates = pop.aggregate_rates(counts, theta)
        for e, tr in enumerate(chain.model.transitions):
            rate = float(rates[e])
            if rate <= 0.0:
                continue
            nxt = counts + tr.change.astype(np.int64)
            if np.any(nxt < 0) or np.any(nxt > cap):
                continue
            col = chain.index[tuple(int(v) for v in nxt)]
            rows.append(row)
            cols.append(col)
            vals.append(rate)
            diagonal[row] -= rate
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diagonal.tolist())
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _transposed_parts(chain):
    q0, parts = chain.affine_generator_parts()
    return [_csr_transpose(part) for part in [q0, *parts]]


def kolmogorov_drift_batch(chain, p, theta):
    """Master-equation drift with one sparse product per generator part."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    q0_t, *parts_t = _transposed_parts(chain)
    out = (q0_t @ p.T).T
    for k, part in enumerate(parts_t):
        out = out + theta[:, k, None] * (part @ p.T).T
    return out


class DenseKolmogorovSystem(KolmogorovSystem):
    """The master equation with its dense Jacobian ``Q(theta)^T`` per row.

    The library's adapter builds no Jacobian: the costate sweep runs on
    its sparse ``vjp_batch``.  The oracles' costate passes
    (:func:`extremal_trajectory`, :func:`costate_sweep_batch`) call
    ``jacobian_x`` / ``jacobian_x_batch``, which this subclass builds
    from the dense generator parts, one einsum against ``(1, theta)``.
    """

    @cached_property
    def _dense_parts(self):
        return self._stacked_t.toarray().reshape(-1, self.dim, self.dim)

    def jacobian_x(self, p, theta):
        return self.jacobian_x_batch(p, theta)[0]

    def jacobian_x_batch(self, p, theta):
        _, theta = self._stacks(p, theta)
        weights = np.hstack([np.ones((theta.shape[0], 1)), theta])
        return np.einsum("nk,kij->nij", weights, self._dense_parts)


def kolmogorov_affine_parts_batch(chain, p):
    """``(g0s, Gs)`` of the master equation, one product per part."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q0_t, *parts_t = _transposed_parts(chain)
    return ((q0_t @ p.T).T,
            np.stack([(part @ p.T).T for part in parts_t], axis=2))


# ----------------------------------------------------------------------
# Interval DTMCs: IntervalDTMC.extreme_rows_batch and the operators
# ----------------------------------------------------------------------


def extreme_row(dtmc, row, reward, maximize=True):
    """One row's credal-set extremiser: the greedy fractional knapsack.

    Start from the mandatory lower bounds and hand the remaining mass
    ``1 - sum(lower)`` to the coordinates with the largest (smallest)
    reward, capped at the upper bounds.
    """
    reward = np.asarray(reward, dtype=float)
    p = dtmc.lower[row].copy()
    slack = 1.0 - float(p.sum())
    for j in np.argsort(-reward if maximize else reward):
        if slack <= 0.0:
            break
        take = min(dtmc.upper[row, j] - p[j], slack)
        p[j] += take
        slack -= take
    if slack > 1e-9:
        raise RuntimeError("credal set inconsistency: mass left over")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-12:
        p = p / total
    return p


def extreme_rows(dtmc, reward, maximize=True):
    return np.array([extreme_row(dtmc, i, reward, maximize)
                     for i in range(dtmc.n_states)])


def upper_operator(dtmc, reward):
    reward = np.asarray(reward, dtype=float)
    return extreme_rows(dtmc, reward) @ reward


def lower_operator(dtmc, reward):
    return -upper_operator(dtmc, -np.asarray(reward, dtype=float))


def upper_expectation(dtmc, reward, steps):
    value = np.asarray(reward, dtype=float).copy()
    for _ in range(steps):
        value = upper_operator(dtmc, value)
    return value


def expectation_bounds(dtmc, reward, steps):
    return (-upper_expectation(dtmc, -np.asarray(reward, dtype=float), steps),
            upper_expectation(dtmc, reward, steps))


def stationary_expectation_bounds(dtmc, reward, tol=1e-10,
                                  max_iter=100_000):
    """Iterate each operator until the value vector flattens."""
    bounds = []
    for operator in (lower_operator, upper_operator):
        value = np.asarray(reward, dtype=float).copy()
        for _ in range(max_iter):
            new_value = operator(dtmc, value)
            flat = (new_value.max() - new_value.min() < tol
                    and np.max(np.abs(new_value - value)) < tol)
            value = new_value
            if flat:
                break
        else:
            raise RuntimeError("stationary iteration did not flatten")
        bounds.append(float(value.mean()))
    return bounds[0], bounds[1]


def uniformized_bounds(dtmc, reward, horizon, rate, tail_tol=1e-12):
    """Poisson-mixed step bounds of one reward, one row knapsack at a time."""
    reward = np.asarray(reward, dtype=float)
    mean = rate * horizon
    n_terms = int(np.ceil(mean + 10.0 * np.sqrt(mean + 1.0) + 10.0))
    value = np.stack([reward, -reward])
    weight = np.exp(-mean)
    accumulated = weight
    mixed = weight * value
    for k in range(1, n_terms + 1):
        value = np.stack([upper_operator(dtmc, lane) for lane in value])
        weight *= mean / k
        mixed = mixed + weight * value
        accumulated += weight
        if 1.0 - accumulated < tail_tol:
            break
    tail = max(1.0 - accumulated, 0.0)
    return (-(mixed[1] + tail * (-reward).max()),
            mixed[0] + tail * reward.max())


# ----------------------------------------------------------------------
# Controlled RK4: repro.ode.rk4_integrate_controlled_batch
# ----------------------------------------------------------------------


def rk4_integrate_controlled(f, x0, t_grid, controls):
    """Integrate ``x' = f(t, x, u)`` with a piecewise-constant control.

    ``controls`` holds one control vector per grid *interval* (shape
    ``(len(t_grid) - 1, m)`` or ``(len(t_grid) - 1,)``), held constant
    across each RK4 step; a plain loop of the ``rk4_step`` stages.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    ctrl = np.asarray(controls, dtype=float)
    if ctrl.ndim == 1:
        ctrl = ctrl[:, None]
    if ctrl.shape[0] != t_grid.shape[0] - 1:
        raise ValueError(
            f"need {t_grid.shape[0] - 1} control intervals, got {ctrl.shape[0]}"
        )
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((t_grid.shape[0], x.shape[0]))
    states[0] = x
    for i in range(t_grid.shape[0] - 1):
        t, dt, u = t_grid[i], t_grid[i + 1] - t_grid[i], ctrl[i]
        k1 = f(t, x, u)
        k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1, u)
        k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2, u)
        k4 = f(t + dt, x + dt * k3, u)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = x
    return Trajectory(t_grid.copy(), states)


# ----------------------------------------------------------------------
# Pontryagin: extremal_trajectories_batch and the warm-started ladder
# ----------------------------------------------------------------------


def extremal_trajectory(model, x0, horizon, direction, maximize=True,
                        n_steps=400, max_iter=100, tol=1e-7, value_tol=1e-6,
                        value_patience=3, chatter_intervals=2,
                        extremizer=None, initial_controls=None):
    """The forward–backward sweep of one problem, one scalar loop.

    The reference for every lane of
    :func:`repro.bounds.extremal_trajectories_batch` (and so for the
    library's ``extremal_trajectory``): a scalar controlled RK4 forward
    pass, a scalar RK4 costate pass that interpolates the stored state
    and looks up the control at each stage time, and one Hamiltonian
    re-maximisation per sweep, with the same relaxation, convergence
    and bang-bang projection rules.
    """
    x0, direction = _checked_problem(x0, direction, horizon, n_steps,
                                     model.dim)
    extremizer = extremizer or DriftExtremizer(model)
    # Internally we always maximise c . x(T).
    c = direction if maximize else -direction
    grid = np.linspace(0.0, float(horizon), n_steps + 1)

    if initial_controls is None:
        controls = np.tile(model.theta_set.center(), (n_steps, 1))
    else:
        controls = np.array(initial_controls, dtype=float)
        if controls.ndim == 1:
            controls = controls[:, None]
        if controls.shape != (n_steps, model.theta_dim):
            raise ValueError(
                f"initial_controls has shape {controls.shape}, expected "
                f"({n_steps}, {model.theta_dim})"
            )

    def dynamics(t, x, u):
        return model.drift(x, u)

    best = None
    value_prev = None
    stable_count = 0
    converged = False
    iterations = 0
    costate_states = np.tile(c, (n_steps + 1, 1))
    relaxation = 1.0

    for iterations in range(1, max_iter + 1):
        # (7) forward state sweep under the current control.
        x_traj = rk4_integrate_controlled(dynamics, x0, grid, controls)
        value = float(c @ x_traj.final_state)
        if best is None or value > best[0]:
            best = (value, x_traj.states.copy(), costate_states.copy(),
                    controls.copy())

        # (9) backward costate sweep along the stored state.
        def costate_field(t, p):
            index = int(np.searchsorted(grid, t, side="right") - 1)
            u = controls[min(max(index, 0), n_steps - 1)]
            return -model.jacobian_x(x_traj(t), u).T @ p

        p_rev = rk4_integrate(costate_field, c, grid[::-1])
        costate_states = p_rev.states[::-1].copy()

        # (8) pointwise Hamiltonian maximisation -> target control signal.
        target_controls, _ = extremizer.maximize_direction_batch(
            x_traj.states[:-1], costate_states[:-1]
        )

        changed = np.any(np.abs(target_controls - controls) > tol, axis=1)
        if int(np.count_nonzero(changed)) <= chatter_intervals:
            converged = True
            # One final forward pass under the fixed-point control.
            controls = target_controls
            x_traj = rk4_integrate_controlled(dynamics, x0, grid, controls)
            value = float(c @ x_traj.final_state)
            if value >= best[0]:
                best = (value, x_traj.states.copy(), costate_states.copy(),
                        controls.copy())
            break
        if value_prev is not None and value < value_prev - value_tol:
            relaxation = max(0.5 * relaxation, 0.05)
        if value_prev is not None and abs(value - value_prev) <= value_tol * max(
            1.0, abs(value)
        ):
            stable_count += 1
            if stable_count >= value_patience:
                converged = True
                break
        else:
            stable_count = 0
        value_prev = value
        controls = controls + relaxation * (target_controls - controls)

    value, states, costates, controls = best
    # Project back to the pointwise Hamiltonian maximiser and keep it
    # when it does not lose value.
    projected, _ = extremizer.maximize_direction_batch(
        states[:-1], costates[:-1]
    )
    x_proj = rk4_integrate_controlled(dynamics, x0, grid, projected)
    value_proj = float(c @ x_proj.final_state)
    if value_proj >= value - value_tol * max(1.0, abs(value)):
        value = max(value, value_proj)
        states = x_proj.states.copy()
        controls = projected

    return PontryaginResult(
        times=grid, states=states, costates=costates, controls=controls,
        direction=direction.copy(), maximize=maximize,
        value=value if maximize else -value, converged=converged,
        iterations=iterations,
    )


def costate_sweep_batch(model, T, steps, states, controls, C, w_mid,
                        idx_right):
    """The lane engine's backward costate sweep, one masked store a step.

    The reference for
    :func:`repro.bounds.pontryagin._costate_sweep_batch`: the same
    Jacobian blocks (under the library's ``_JACOBIAN_BLOCK_BYTES``) and
    the same four stage products, but each lockstep step works out its
    entered interval, ``dt`` and live lanes inside the loop and stores
    its live lanes' costates straight into the ``(L, n+1, d)`` stack.
    """
    L, n_plus_1, d = states.shape
    n_sweep = int(steps.max())
    lanes = np.arange(L)
    x_left = states[:, :-1]
    x_right = states[:, 1:]
    x_mid = x_left + w_mid[:, :, None] * (x_right - x_left)
    u_right = controls[lanes[:, None], idx_right]
    block = max(1, pontryagin._JACOBIAN_BLOCK_BYTES
                // (3 * L * d * d * states.itemsize))

    p = C.copy()
    costates = np.tile(C[:, None, :], (1, n_plus_1, 1))
    for i0 in range(0, n_sweep, block):
        b = min(block, n_sweep - i0)
        # Column c of lane l holds the interval lockstep step i0+b-1-c
        # enters; a lane that has run out reads interval 0 instead.
        window = np.maximum(steps[:, None] - i0 - b + np.arange(b), 0)
        rows = lambda arr: arr[lanes[:, None], window].reshape(L * b, -1)  # noqa: E731
        jacs = model.jacobian_x_batch(
            np.concatenate([rows(x_right), rows(x_mid), rows(x_left)]),
            np.concatenate([rows(u_right), rows(controls), rows(controls)]),
        ).reshape(3, L, b, d, d)
        for i in range(i0, i0 + b):
            c = i0 + b - 1 - i
            j = window[:, c]
            live = steps > i
            dt = T[lanes, j] - T[lanes, j + 1]  # negative: backward in time
            dtc = dt[:, None]
            k1 = -np.einsum("lkj,lk->lj", jacs[0, :, c], p)
            k2 = -np.einsum("lkj,lk->lj", jacs[1, :, c], p + 0.5 * dtc * k1)
            k3 = -np.einsum("lkj,lk->lj", jacs[1, :, c], p + 0.5 * dtc * k2)
            k4 = -np.einsum("lkj,lk->lj", jacs[2, :, c], p + dtc * k3)
            p_new = p + (dtc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            p = np.where(live[:, None], p_new, p)
            costates[lanes[live], j[live]] = p[live]
    return costates


#: Relative costate tolerance of the library sweep against the stage
#: loop of :func:`costate_sweep_batch`: the library folds a step's four
#: RK4 stages into one transfer matrix (population models) or sums the
#: stage products of a sparse vector–Jacobian product (master equation),
#: so its costates differ from the stage loop's in float64 rounding only.
COSTATE_RTOL = 1e-12


def assert_costates_close(got, want):
    """Costates within ``COSTATE_RTOL`` times each lane's max ``|p|``.

    Takes one lane's ``(n+1, d)`` costates or an ``(L, n+1, d)`` stack.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    got, want = got.reshape(-1, *want.shape[-2:]), \
        want.reshape(-1, *want.shape[-2:])
    gap = np.max(np.abs(got - want), axis=(1, 2))
    scale = np.max(np.abs(want), axis=(1, 2))
    assert np.all(gap <= COSTATE_RTOL * scale), (gap / scale).tolist()


def extremal_trajectories_batch(model, x0, specs, max_iter=100, tol=1e-7,
                                value_tol=1e-6, value_patience=3,
                                chatter_intervals=2, extremizer=None,
                                deadline_seconds=None,
                                initial_controls=None):
    """The lane sweep with a forward call per phase.

    The reference for the schedule of
    :func:`repro.bounds.extremal_trajectories_batch`: each iteration runs
    the active lanes' forward pass, then a separate final pass for the
    lanes that reached a fixed point, and after the loop one projection
    pass over every lane.  Same update rules (improvement, relaxation,
    patience, deadline, projection) and the same lockstep kernels, so a
    lane must agree with the library bit for bit.  The costate sweep is
    :func:`costate_sweep_batch` above.
    """
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
    C = np.where(maximize[:, None], directions, -directions)
    T, steps = pad_grids(grids)
    n_max = T.shape[1] - 1
    lanes_all = np.arange(L)
    interval_live = np.arange(n_max)[None, :] < steps[:, None]
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
    x0_stack = np.broadcast_to(x0, (L, d)).copy()

    def dynamics(t, X, U):
        return model.drift_batch(X, U)

    best_value = np.full(L, -np.inf)
    best_states = np.zeros((L, n_max + 1, d))
    best_costates = np.tile(C[:, None, :], (1, n_max + 1, 1))
    best_controls = controls.copy()
    value_prev = np.zeros(L)
    has_prev = np.zeros(L, dtype=bool)
    stable = np.zeros(L, dtype=int)
    relaxation = np.ones(L)
    converged = np.zeros(L, dtype=bool)
    iterations = np.zeros(L, dtype=int)
    costates = np.tile(C[:, None, :], (1, n_max + 1, 1))

    sweep_start = time.perf_counter()
    active = lanes_all.copy()
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        if (deadline_seconds is not None and it > 1
                and time.perf_counter() - sweep_start > deadline_seconds):
            break
        iterations[active] = it
        a = active
        fwd = rk4_integrate_controlled_batch(
            dynamics, x0_stack[a], T[a], controls[a], lane_steps=steps[a],
        )
        finals = fwd.final_states
        value = np.einsum("ld,ld->l", C[a], finals)
        improved = value > best_value[a]
        upd = a[improved]
        best_value[upd] = value[improved]
        best_states[upd] = fwd.states[improved]
        best_costates[upd] = costates[upd]
        best_controls[upd] = controls[upd]

        costates_a = costate_sweep_batch(
            model, T[a], steps[a], fwd.states, controls[a], C[a],
            w_mid[a], idx_right[a],
        )
        costates[a] = costates_a

        thetas_flat, _ = extremizer.maximize_direction_batch(
            fwd.states[:, :-1].reshape(-1, d),
            costates_a[:, :-1].reshape(-1, d),
        )
        target = thetas_flat.reshape(a.size, n_max, p)

        changed = (
            np.any(np.abs(target - controls[a]) > tol, axis=2)
            & interval_live[a]
        )
        n_changed = np.count_nonzero(changed, axis=1)
        fixed_point = n_changed <= chatter_intervals

        if np.any(fixed_point):
            # One final forward pass under the fixed-point controls.
            fin = a[fixed_point]
            controls[fin] = target[fixed_point]
            final_fwd = rk4_integrate_controlled_batch(
                dynamics, x0_stack[fin], T[fin], controls[fin],
                lane_steps=steps[fin],
            )
            fin_value = np.einsum("ld,ld->l", C[fin], final_fwd.final_states)
            better = fin_value >= best_value[fin]
            upd = fin[better]
            best_value[upd] = fin_value[better]
            best_states[upd] = final_fwd.states[better]
            best_costates[upd] = costates[upd]
            best_controls[upd] = controls[upd]
            converged[fin] = True

        cont = ~fixed_point
        if np.any(cont):
            ac = a[cont]
            v = value[cont]
            regressed = has_prev[ac] & (v < value_prev[ac] - value_tol)
            relaxation[ac[regressed]] = np.maximum(
                0.5 * relaxation[ac[regressed]], 0.05
            )
            settled = has_prev[ac] & (
                np.abs(v - value_prev[ac])
                <= value_tol * np.maximum(1.0, np.abs(v))
            )
            stable[ac[settled]] += 1
            stable[ac[~settled]] = 0
            patience_hit = stable[ac] >= value_patience
            converged[ac[patience_hit]] = True
            value_prev[ac] = v
            has_prev[ac] = True
            step_lanes = ~patience_hit
            upd = ac[step_lanes]
            controls[upd] = controls[upd] + relaxation[upd][:, None, None] * (
                target[cont][step_lanes] - controls[upd]
            )
            active = upd
        else:
            active = a[~fixed_point]

    # Projection back to the pointwise Hamiltonian maximiser: one remax
    # plus one forward pass for every lane at once.
    values = best_value.copy()
    thetas_flat, _ = extremizer.maximize_direction_batch(
        best_states[:, :-1].reshape(-1, d),
        best_costates[:, :-1].reshape(-1, d),
    )
    projected = thetas_flat.reshape(L, n_max, p)
    proj_fwd = rk4_integrate_controlled_batch(
        dynamics, x0_stack, T, projected, lane_steps=steps,
    )
    proj_value = np.einsum("ld,ld->l", C, proj_fwd.final_states)
    keep = proj_value >= values - value_tol * np.maximum(1.0, np.abs(values))
    final_states = np.where(keep[:, None, None], proj_fwd.states, best_states)
    final_controls = np.where(keep[:, None, None], projected, best_controls)
    values = np.where(keep, np.maximum(values, proj_value), values)

    results = []
    for l in range(L):
        stop = int(steps[l]) + 1
        results.append(
            PontryaginResult(
                times=T[l, :stop].copy(),
                states=final_states[l, :stop].copy(),
                costates=best_costates[l, :stop].copy(),
                controls=final_controls[l, : stop - 1].copy(),
                direction=directions[l].copy(),
                maximize=bool(maximize[l]),
                value=float(values[l] if maximize[l] else -values[l]),
                converged=bool(converged[l]),
                iterations=int(iterations[l]),
            )
        )
    return results


def resample_controls(old_grid, old_controls, new_grid):
    """Carry a piecewise-constant control onto a new grid (midpoint lookup)."""
    mids = 0.5 * (new_grid[:-1] + new_grid[1:])
    index = np.searchsorted(old_grid, mids, side="right") - 1
    return old_controls[np.clip(index, 0, old_controls.shape[0] - 1)]


def warm_started_bounds(model, x0, horizons, observables=None,
                        steps_per_unit=100.0, min_steps=60, max_iter=100,
                        tol=1e-7, sides=("lower", "upper")):
    """Sequential Pontryagin bounds over a horizon ladder.

    One scalar sweep (:func:`extremal_trajectory` above) per
    (observable, side, horizon), each horizon warm-started from the
    previous horizon's optimal control — the reference for the
    cold-started lanes of
    :func:`repro.bounds.pontryagin_transient_bounds`.
    """
    horizons = np.asarray(horizons, dtype=float)
    extremizer = DriftExtremizer(model)
    bounds = TransientBounds(horizons=horizons.copy())
    for name, c in _resolve_directions(model, observables).items():
        bounds.lower[name] = np.full(horizons.shape[0], np.nan)
        bounds.upper[name] = np.full(horizons.shape[0], np.nan)
        for is_max in (False, True):
            if ("upper" if is_max else "lower") not in sides:
                continue
            warm = None
            for k, horizon in enumerate(horizons):
                n_steps = max(min_steps, int(np.ceil(horizon * steps_per_unit)))
                initial = None if warm is None else resample_controls(
                    *warm, np.linspace(0.0, horizon, n_steps + 1))
                result = extremal_trajectory(
                    model, x0, horizon, c, maximize=is_max, n_steps=n_steps,
                    max_iter=max_iter, tol=tol, extremizer=extremizer,
                    initial_controls=initial,
                )
                warm = (result.times, result.controls)
                target = bounds.upper if is_max else bounds.lower
                target[name][k] = result.value
    return bounds


# ----------------------------------------------------------------------
# Control policies: repro.simulation's batched policy classes
# ----------------------------------------------------------------------
# The scalar policies the oracle SSA loop below queries once per event:
# each answers for one trajectory and keeps its state in scalars.  A
# one-row ensemble under the library's batched twin reproduces them bit
# for bit.


class ControlPolicy:
    """Base class: a deterministic, constant-free policy interface."""

    def reset(self, rng: np.random.Generator, x0: np.ndarray) -> None:
        """Prepare internal state for a fresh simulation run."""

    def theta(self, t: float, x: np.ndarray) -> np.ndarray:
        """The parameter in force at time ``t`` in state ``x``."""
        raise NotImplementedError

    def jump_rate(self, t: float, x: np.ndarray) -> float:
        """Rate of autonomous policy events (0 for deterministic policies)."""
        return 0.0

    def on_jump(self, t: float, x: np.ndarray, rng: np.random.Generator) -> None:
        """React to one autonomous policy event."""

    def next_switch_after(self, t: float) -> float:
        """Next deterministic discontinuity of ``theta`` strictly after ``t``."""
        return np.inf


class ConstantPolicy(ControlPolicy):
    """The uncertain scenario: a frozen parameter for the whole run."""

    def __init__(self, theta):
        self._theta = np.atleast_1d(np.asarray(theta, dtype=float))

    def theta(self, t: float, x: np.ndarray) -> np.ndarray:
        return self._theta

    def __repr__(self) -> str:
        return f"ConstantPolicy({self._theta.tolist()})"


class PiecewiseConstantPolicy(ControlPolicy):
    """A deterministic schedule of ``(start_time, theta)`` pieces."""

    def __init__(self, schedule: Sequence[Tuple[float, Sequence[float]]]):
        if not schedule:
            raise ValueError("schedule must be non-empty")
        starts = [float(s) for s, _ in schedule]
        if starts != sorted(starts):
            raise ValueError("schedule start times must be sorted")
        self._starts = np.asarray(starts)
        self._thetas = [np.atleast_1d(np.asarray(th, dtype=float)) for _, th in schedule]

    def theta(self, t: float, x: np.ndarray) -> np.ndarray:
        index = int(np.searchsorted(self._starts, t, side="right") - 1)
        index = max(index, 0)
        return self._thetas[index]

    def next_switch_after(self, t: float) -> float:
        later = self._starts[self._starts > t + 1e-15]
        return float(later[0]) if later.size else np.inf

    def __repr__(self) -> str:
        return f"PiecewiseConstantPolicy({len(self._thetas)} pieces)"


class HysteresisPolicy(ControlPolicy):
    """The paper's policy ``theta_1`` (Section V-E): threshold switching.

    Watches one state coordinate and oscillates between two parameter
    vectors: in *high* mode, switch to *low* mode when the coordinate
    drops below ``low_threshold``; in *low* mode, switch back when it
    rises above ``high_threshold``.  For the SIR example the coordinate
    is ``X_S``, the modes are ``theta_max``/``theta_min``, and the
    thresholds are 0.5 / 0.85, inducing the near-periodic oscillation of
    Figure 6(a).

    Parameters
    ----------
    theta_low, theta_high:
        Parameter vectors of the two modes.
    coordinate:
        Index of the watched state coordinate.
    low_threshold, high_threshold:
        Switching thresholds (``low_threshold < high_threshold``).
    start_high:
        Initial mode.
    """

    def __init__(self, theta_low, theta_high, coordinate: int,
                 low_threshold: float, high_threshold: float,
                 start_high: bool = True):
        if low_threshold >= high_threshold:
            raise ValueError("low_threshold must be below high_threshold")
        self._theta_low = np.atleast_1d(np.asarray(theta_low, dtype=float))
        self._theta_high = np.atleast_1d(np.asarray(theta_high, dtype=float))
        self._coordinate = int(coordinate)
        self._low_threshold = float(low_threshold)
        self._high_threshold = float(high_threshold)
        self._start_high = bool(start_high)
        self._high_mode = self._start_high

    def reset(self, rng: np.random.Generator, x0: np.ndarray) -> None:
        self._high_mode = self._start_high

    @property
    def in_high_mode(self) -> bool:
        """Whether the policy currently applies ``theta_high``."""
        return self._high_mode

    def theta(self, t: float, x: np.ndarray) -> np.ndarray:
        value = float(x[self._coordinate])
        if self._high_mode and value < self._low_threshold:
            self._high_mode = False
        elif not self._high_mode and value > self._high_threshold:
            self._high_mode = True
        return self._theta_high if self._high_mode else self._theta_low

    def __repr__(self) -> str:
        return (
            f"HysteresisPolicy(coord={self._coordinate}, "
            f"thresholds=({self._low_threshold}, {self._high_threshold}))"
        )


class RandomJumpPolicy(ControlPolicy):
    """The paper's policy ``theta_2`` (Section V-E): random re-draws.

    The parameter jumps to a fresh value at a state-dependent rate; for
    the SIR example the rate is ``5 * X_I`` and the new value is drawn
    uniformly from ``Theta``.  The jumps are autonomous events competing
    in the SSA race.

    Parameters
    ----------
    theta_set:
        The domain to sample from (usually ``model.theta_set``).
    rate_fn:
        State-dependent jump rate ``r(t, x)`` in *absolute* events per
        unit time (the paper's ``5 X_I`` is such a rate: it does not
        scale with ``N``).  The SSA adds it unscaled to the event race.
    initial:
        Starting parameter; defaults to the centre of the domain.
    """

    def __init__(self, theta_set, rate_fn: Callable, initial=None):
        self._theta_set = theta_set
        if not callable(rate_fn):
            raise TypeError("rate_fn must be callable")
        self._rate_fn = rate_fn
        if initial is None:
            self._initial = theta_set.center()
        else:
            self._initial = np.atleast_1d(np.asarray(initial, dtype=float))
            if not theta_set.contains(self._initial, tol=1e-9):
                raise ValueError("initial theta is outside the domain")
        self._current = self._initial.copy()

    def reset(self, rng: np.random.Generator, x0: np.ndarray) -> None:
        self._current = self._initial.copy()

    def theta(self, t: float, x: np.ndarray) -> np.ndarray:
        return self._current

    def jump_rate(self, t: float, x: np.ndarray) -> float:
        return max(float(self._rate_fn(t, x)), 0.0)

    def on_jump(self, t: float, x: np.ndarray, rng: np.random.Generator) -> None:
        self._current = self._theta_set.sample(rng, 1)[0]

    def __repr__(self) -> str:
        return "RandomJumpPolicy(...)"


# ----------------------------------------------------------------------
# SSA: repro.engine.simulate_ensemble (and its one-row view simulate)
# ----------------------------------------------------------------------


def simulate(population, policy, t_final, rng=None, n_samples=1000,
             t_start=0.0, max_events=50_000_000):
    """One exact SSA trajectory, the scalar Gillespie (direct-method) loop.

    The reference for one row of :func:`repro.engine.simulate_ensemble`:
    evaluate ``theta`` from the policy, then all aggregate event rates;
    draw the holding time ``~ Exp(total rate)``; if it crosses the next
    deterministic policy switch, advance to the switch and re-draw
    (exact by memorylessness); otherwise pick a model transition or a
    policy re-draw proportionally to its rate.  States are recorded on
    a fixed output grid.  A one-row ensemble driven by the same
    generator reproduces this loop bit for bit.
    """
    if t_final <= t_start:
        raise ValueError("t_final must exceed t_start")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(0))
    model = population.model

    counts = population.initial_counts.copy()
    t = float(t_start)
    policy.reset(rng, population.density(counts))

    sample_times = np.linspace(t_start, t_final, n_samples)
    states = np.empty((n_samples, model.dim))
    theta_dim = model.theta_set.dim
    thetas = np.empty((n_samples, theta_dim))
    next_sample = 0

    n_events = 0
    n_policy_jumps = 0

    def record_until(t_now, x_now, theta_now):
        """Fill output samples with the pre-jump state up to ``t_now``."""
        nonlocal next_sample
        while next_sample < n_samples and sample_times[next_sample] <= t_now:
            states[next_sample] = x_now
            thetas[next_sample] = theta_now
            next_sample += 1

    while t < t_final and n_events + n_policy_jumps < max_events:
        x = population.density(counts)
        theta = model.theta_set.project(policy.theta(t, x))
        rates = population.aggregate_rates(counts, theta)
        policy_rate = policy.jump_rate(t, x)
        total = float(np.sum(rates)) + policy_rate

        switch_at = policy.next_switch_after(t)
        if total <= 0.0:
            # Absorbed (no enabled event): jump to the next deterministic
            # policy switch, or finish.
            record_until(min(switch_at, t_final), x, theta)
            if switch_at >= t_final:
                t = t_final
                break
            t = switch_at
            continue

        dt = rng.exponential(1.0 / total)
        if t + dt > switch_at:
            # The race crosses a deterministic discontinuity of theta:
            # advance to it and restart (exact by memorylessness).
            record_until(min(switch_at, t_final), x, theta)
            t = switch_at
            continue
        if t + dt > t_final:
            record_until(t_final, x, theta)
            t = t_final
            break

        record_until(t + dt, x, theta)
        t = t + dt
        u = rng.uniform(0.0, total)
        if u < policy_rate:
            policy.on_jump(t, x, rng)
            n_policy_jumps += 1
            continue
        u -= policy_rate
        cumulative = np.cumsum(rates)
        event = int(np.searchsorted(cumulative, u, side="right"))
        event = min(event, len(rates) - 1)
        counts = counts + population.change_matrix[event]
        n_events += 1

    if n_events + n_policy_jumps >= max_events:
        raise RuntimeError(
            f"SSA exceeded max_events={max_events} before t_final "
            f"(reached t={t:.4g}); raise the cap or shorten the horizon"
        )

    # Flush any remaining samples with the terminal state.
    x = population.density(counts)
    theta = model.theta_set.project(policy.theta(t, x))
    record_until(t_final + 1e-12, x, theta)

    return SimulationResult(
        times=sample_times,
        states=states,
        thetas=thetas,
        n_events=n_events,
        n_policy_jumps=n_policy_jumps,
        population_size=population.population_size,
    )


def simulate_runs(population, policy, t_final, n_runs, seed=0,
                  n_samples=200, t_start=0.0):
    """``n_runs`` oracle SSA replications of one scalar policy (reset
    before each), replication ``r`` seeded ``seed + r``."""
    runs = [
        simulate(population, policy, t_final,
                 rng=np.random.default_rng(seed + r), n_samples=n_samples,
                 t_start=t_start)
        for r in range(n_runs)
    ]
    return BatchResult(
        times=runs[0].times.copy(),
        states=np.stack([run.states for run in runs]),
        thetas=np.stack([run.thetas for run in runs]),
        population_size=population.population_size,
        events_per_run=np.array([run.n_events for run in runs]),
        policy_jumps_per_run=np.array([run.n_policy_jumps for run in runs]),
    )
