"""Unit tests for the ODE substrate (repro.ode)."""

import numpy as np
import pytest

import reference_impls as ref
from repro.ode import (
    Trajectory,
    find_fixed_point,
    rk4_integrate,
    rk4_integrate_controlled_batch,
    rk4_step,
    solve_ode,
)


def one_lane(f, x0, grid, controls):
    """A controlled RK4 solve as the one lane of the batched kernel."""
    batch = rk4_integrate_controlled_batch(
        f, [x0], grid, np.asarray(controls, dtype=float)[None]
    )
    return batch.lane(0)


class TestTrajectory:
    def test_shapes_and_accessors(self):
        traj = Trajectory(np.linspace(0, 1, 5), np.arange(10).reshape(5, 2))
        assert traj.dim == 2
        assert len(traj) == 5
        assert traj.t0 == 0.0
        assert traj.t_final == 1.0
        np.testing.assert_allclose(traj.final_state, [8, 9])

    def test_1d_states_promoted(self):
        traj = Trajectory([0.0, 1.0], [1.0, 2.0])
        assert traj.dim == 1

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 1.0], np.zeros((3, 2)))

    def test_interpolation_scalar_and_array(self):
        traj = Trajectory([0.0, 1.0], [[0.0, 0.0], [2.0, 4.0]])
        np.testing.assert_allclose(traj(0.5), [1.0, 2.0])
        out = traj([0.25, 0.75])
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out[0], [0.5, 1.0])

    def test_component(self):
        traj = Trajectory([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(traj.component(1), [2.0, 4.0])

    def test_restricted(self):
        traj = Trajectory(np.linspace(0, 1, 11), np.zeros((11, 1)))
        sub = traj.restricted(0.3, 0.7)
        assert sub.t0 >= 0.3 and sub.t_final <= 0.7
        with pytest.raises(ValueError):
            traj.restricted(2.0, 3.0)

    def test_reversed_time(self):
        traj = Trajectory([1.0, 0.0], [[1.0], [0.0]])
        rev = traj.reversed_time()
        assert rev.times[0] == 0.0 and rev.times[-1] == 1.0

    def test_interpolation_matches_interp_on_ascending_grid(self, rng):
        times = np.sort(rng.uniform(0.0, 5.0, 9))
        states = rng.normal(size=(9, 3))
        traj = Trajectory(times, states)
        queries = np.concatenate([[times[0] - 1.0, times[-1] + 1.0],
                                  rng.uniform(0.0, 5.0, 20), times])
        out = traj(queries)
        for j in range(3):
            np.testing.assert_allclose(
                out[:, j], np.interp(queries, times, states[:, j]),
                rtol=0, atol=1e-13,
            )

    def test_decreasing_time_interpolation(self):
        # Regression: backward costate solves produce decreasing-time
        # trajectories; np.interp silently returns garbage for
        # decreasing xp, so evaluation must run on the reversed view.
        traj = Trajectory([2.0, 1.0, 0.0], [[4.0, 0.0], [1.0, 1.0],
                                            [0.0, 2.0]])
        np.testing.assert_allclose(traj(1.5), [2.5, 0.5])
        np.testing.assert_allclose(traj(0.5), [0.5, 1.5])
        # Matches the explicitly-reversed trajectory everywhere.
        rev = traj.reversed_time()
        queries = np.linspace(-0.5, 2.5, 13)
        np.testing.assert_allclose(traj(queries), rev(queries),
                                   rtol=0, atol=1e-14)

    def test_decreasing_time_clamps_to_endpoints(self):
        traj = Trajectory([1.0, 0.0], [[5.0], [3.0]])
        np.testing.assert_allclose(traj(2.0), [5.0])
        np.testing.assert_allclose(traj(-1.0), [3.0])

    def test_scalar_query_returns_vector(self):
        traj = Trajectory([0.0, 1.0], [[0.0, 1.0], [2.0, 3.0]])
        out = traj(0.5)
        assert out.shape == (2,)

    def test_duplicate_times_resolve_like_interp(self):
        # Regression: a zero-span lane's [t0, t0] grid must not divide
        # to NaN; ties resolve to the right-hand sample, as np.interp
        # does.
        traj = Trajectory([0.0, 0.0], [[1.0], [2.0]])
        np.testing.assert_allclose(traj(0.0), [2.0])
        stepped = Trajectory([0.0, 1.0, 1.0, 2.0],
                             [[0.0], [1.0], [5.0], [6.0]])
        np.testing.assert_allclose(
            stepped([0.5, 1.0, 1.5]).ravel(),
            np.interp([0.5, 1.0, 1.5], stepped.times, stepped.states[:, 0]),
        )


class TestRK4:
    def test_step_exact_for_cubic(self):
        # RK4 integrates polynomials of degree <= 3 in t exactly.
        f = lambda t, x: np.array([3 * t**2])
        out = rk4_step(f, 0.0, np.array([0.0]), 1.0)
        np.testing.assert_allclose(out, [1.0], atol=1e-14)

    def test_exponential_accuracy(self):
        f = lambda t, x: -x
        traj = rk4_integrate(f, [1.0], np.linspace(0, 1, 101))
        assert traj.final_state[0] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_backward_integration(self):
        f = lambda t, x: -x
        fwd = rk4_integrate(f, [1.0], np.linspace(0, 1, 101))
        back = rk4_integrate(f, fwd.final_state, np.linspace(1, 0, 101))
        assert back.final_state[0] == pytest.approx(1.0, abs=1e-9)

    def test_convergence_order(self):
        # Halving the step should reduce the error by ~2^4.
        f = lambda t, x: np.array([x[0] * np.cos(t)])
        exact = np.exp(np.sin(2.0))
        errors = []
        for n in (20, 40):
            traj = rk4_integrate(f, [1.0], np.linspace(0, 2, n + 1))
            errors.append(abs(traj.final_state[0] - exact))
        order = np.log2(errors[0] / errors[1])
        assert order > 3.5

    def test_grid_validation(self):
        f = lambda t, x: x
        with pytest.raises(ValueError):
            rk4_integrate(f, [1.0], [0.0])
        with pytest.raises(ValueError):
            rk4_integrate(f, [1.0], [0.0, 1.0, 0.5])


class TestControlledRK4:
    def test_piecewise_control_applied(self):
        # x' = u with u = 1 then u = -1: triangle wave.
        f = lambda t, x, u: u[:, :1]
        grid = np.linspace(0, 2, 201)
        controls = np.where(grid[:-1] < 1.0, 1.0, -1.0)
        traj = one_lane(f, [0.0], grid, controls)
        assert traj(1.0)[0] == pytest.approx(1.0, abs=1e-9)
        assert traj.final_state[0] == pytest.approx(0.0, abs=1e-9)

    def test_vector_controls(self):
        f = lambda t, x, u: u
        grid = np.linspace(0, 1, 11)
        controls = np.tile([1.0, 2.0], (10, 1))
        traj = one_lane(f, [0.0, 0.0], grid, controls)
        np.testing.assert_allclose(traj.final_state, [1.0, 2.0], atol=1e-12)

    def test_control_length_validated(self):
        f = lambda t, x, u: x
        with pytest.raises(ValueError):
            one_lane(f, [1.0], np.linspace(0, 1, 11), np.zeros(5))


class TestSolveOde:
    def test_matches_analytic(self):
        traj = solve_ode(lambda t, x: -x, [1.0], (0.0, 2.0))
        assert traj.final_state[0] == pytest.approx(np.exp(-2.0), rel=1e-6)

    def test_t_eval_respected(self):
        t_eval = np.linspace(0, 1, 7)
        traj = solve_ode(lambda t, x: -x, [1.0], (0.0, 1.0), t_eval=t_eval)
        np.testing.assert_allclose(traj.times, t_eval)

    def test_matches_rk4(self):
        f = lambda t, x: np.array([x[1], -x[0]])
        a = solve_ode(f, [1.0, 0.0], (0.0, 3.0), rtol=1e-10, atol=1e-12)
        b = rk4_integrate(f, [1.0, 0.0], np.linspace(0, 3, 3001))
        np.testing.assert_allclose(a.final_state, b.final_state, atol=1e-7)

    @pytest.mark.parametrize("t_span", [(0.0, np.nan), (np.nan, 1.0),
                                        (0.0, np.inf)],
                             ids=["nan-end", "nan-start", "inf-end"])
    def test_non_finite_t_span_rejected(self, t_span):
        # Regression: solve_ivp never returned on these end times.
        with pytest.raises(ValueError, match="t_span must be finite"):
            solve_ode(lambda t, x: -x, [1.0], t_span)

    def test_non_finite_t_eval_rejected(self):
        # Regression: a NaN sample came back as a one-point trajectory
        # whose "final state" was x0.
        with pytest.raises(ValueError, match="t_eval must be finite"):
            solve_ode(lambda t, x: -x, [1.0], (0.0, 1.0),
                      t_eval=[0.0, np.nan, 1.0])

    def test_fixed_point_rejects_nan_settle_time(self):
        with pytest.raises(ValueError, match="finite"):
            find_fixed_point(lambda x: -x, np.array([1.0]),
                             settle_time=np.nan)


class TestSolveOdeIsOneDopriLane:
    """``solve_ode`` runs the library's Dormand–Prince; scipy is the oracle."""

    def test_accepted_steps_without_t_eval(self, sir_model):
        # Callers interpolate the returned steps (Trajectory.__call__),
        # so the two end points alone are not enough.
        f = sir_model.vector_field([10.0])
        traj = solve_ode(f, [0.7, 0.3], (0.0, 1.0))
        assert len(traj) > 2
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
        want = ref.solve_ode(f, [0.7, 0.3], (0.0, 1.0), t_eval=traj.times,
                             rtol=1e-10, atol=1e-12).states
        np.testing.assert_allclose(traj.states, want, rtol=0, atol=1e-6)
        k = len(traj) // 2
        np.testing.assert_allclose(traj(traj.times[k]), want[k], atol=1e-6)
        # Between steps the interpolation is linear: |x''| h^2 / 8.
        mid = 0.5 * (traj.times[k] + traj.times[k + 1])
        np.testing.assert_allclose(
            traj(mid), ref.solve_ode(f, [0.7, 0.3], (0.0, 1.0), t_eval=[mid],
                                     rtol=1e-10, atol=1e-12).states[0],
            atol=1e-3)

    def test_sir_settle_matches_solve_ivp(self, sir_model):
        f = sir_model.vector_field([5.0])
        t_eval = np.linspace(0.0, 200.0, 41)
        got = solve_ode(f, [0.7, 0.05], (0.0, 200.0), t_eval=t_eval,
                        rtol=1e-10, atol=1e-12)
        want = ref.solve_ode(f, [0.7, 0.05], (0.0, 200.0), t_eval=t_eval,
                             rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got.states, want.states, rtol=0, atol=1e-7)

    def test_harmonic_oscillator_matches_solve_ivp(self):
        f = lambda t, x: np.array([x[1], -x[0]])
        t_eval = np.linspace(0.0, 10.0, 51)
        got = solve_ode(f, [1.0, 0.0], (0.0, 10.0), t_eval=t_eval,
                        rtol=1e-10, atol=1e-12)
        want = ref.solve_ode(f, [1.0, 0.0], (0.0, 10.0), t_eval=t_eval,
                             rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got.states, want.states, rtol=0, atol=1e-7)
        np.testing.assert_allclose(got.states[:, 0], np.cos(t_eval),
                                   atol=1e-7)

    @pytest.mark.parametrize("t_eval", [[0.0, 0.5, 2.0], [-1.0, 0.5, 1.0],
                                        [0.0, 0.7, 0.5]],
                             ids=["past-end", "before-start", "unsorted"])
    def test_t_eval_outside_span_or_unsorted_rejected(self, t_eval):
        with pytest.raises(ValueError, match="t_eval"):
            solve_ode(lambda t, x: -x, [1.0], (0.0, 1.0), t_eval=t_eval)

    def test_failed_integration_raises_runtime_error(self):
        # x' = x^2 from x = 1 blows up at t = 1: the step size collapses.
        with pytest.raises(RuntimeError, match="step size"):
            solve_ode(lambda t, x: x * x, [1.0], (0.0, 2.0))


class TestFindFixedPoint:
    def test_linear_decay(self):
        fp = find_fixed_point(lambda x: -x + 3.0, np.array([0.0]))
        np.testing.assert_allclose(fp, [3.0], atol=1e-8)

    def test_logistic(self):
        fp = find_fixed_point(lambda x: x * (1.0 - x), np.array([0.2]))
        np.testing.assert_allclose(fp, [1.0], atol=1e-8)

    def test_2d_system(self):
        def f(x):
            return np.array([1.0 - x[0], x[0] - x[1]])

        fp = find_fixed_point(f, np.array([0.0, 0.0]))
        np.testing.assert_allclose(fp, [1.0, 1.0], atol=1e-8)

    def test_limit_cycle_raises(self):
        # Harmonic oscillator never settles.
        def f(x):
            return np.array([x[1], -x[0]])

        with pytest.raises(RuntimeError):
            find_fixed_point(f, np.array([1.0, 0.0]), settle_time=10.0,
                             max_rounds=2)

    def test_residual_at_fixed_point(self, sir_model):
        fp = find_fixed_point(sir_model.drift_fn([10.0]), np.array([0.7, 0.05]))
        assert np.linalg.norm(sir_model.drift(fp, [10.0])) < 1e-9

    def test_near_miss_residual_warns(self):
        # Regression: a settle that exhausts its rounds with residual in
        # (tol, 1e-5] used to return silently; it must now report the
        # achieved residual.  Linear decay x' = -x over 12 time units
        # leaves |f| = e^-12 ~ 6e-6 — inside the warn band for
        # tol = 1e-12.
        f = lambda x: -x
        with pytest.warns(RuntimeWarning, match="residual"):
            fp = find_fixed_point(f, np.array([1.0]), settle_time=6.0,
                                  max_rounds=2, tol=1e-12)
        # The returned point is the (near-equilibrium) final iterate.
        assert abs(fp[0]) <= 1e-5

    def test_max_rounds_zero_judges_x0(self):
        # Regression: max_rounds=0 with x0 already an equilibrium used
        # to raise on a sentinel infinite residual.
        fp = find_fixed_point(lambda x: -x, np.array([0.0]), max_rounds=0)
        np.testing.assert_allclose(fp, [0.0], atol=1e-12)

    def test_returns_the_settled_point_unpolished(self):
        # Slow decay toward x* = 1: the settle stops with |f| ~ 6e-8
        # (warn band for tol = 1e-10).  No root-finder finishes the job:
        # the point returned is the settle's end state, and the warning
        # reports its residual.
        f = lambda x: 1e-2 * (1.0 - x)
        with pytest.warns(RuntimeWarning, match="residual"):
            fp = find_fixed_point(f, np.array([0.0]), tol=1e-10)
        assert 1e-9 < abs(fp[0] - 1.0) < 1e-4

    @pytest.mark.parametrize("settle_time", [-5.0, 0.0, np.inf])
    def test_non_positive_settle_time_rejected(self, settle_time):
        # Regression: a negative settle integrated backwards and raised
        # the limit-cycle RuntimeError ("no fixed point approached after
        # -30 time units"), which callers read as "no equilibrium".
        with pytest.raises(ValueError, match="settle_time"):
            find_fixed_point(lambda x: -x + 3.0, np.array([0.0]),
                             settle_time=settle_time)
