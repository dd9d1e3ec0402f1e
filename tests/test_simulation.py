"""Tests for policies and the SSA (repro.simulation)."""

import numpy as np
import pytest

from repro.engine import simulate_ensemble
from repro.simulation import (
    ConstantPolicy,
    HysteresisPolicy,
    PiecewiseConstantPolicy,
    RandomJumpPolicy,
    simulate,
)

#: Row indices of a three-row ensemble, as the engine passes them.
ROWS = np.arange(3)


class TestPolicies:
    def test_constant(self):
        p = ConstantPolicy([5.0])
        np.testing.assert_allclose(p.theta(ROWS, np.zeros(3), np.zeros((3, 2))),
                                   [[5.0]] * 3)
        np.testing.assert_array_equal(
            p.jump_rate(ROWS, np.zeros(3), np.zeros((3, 2))), 0.0)
        np.testing.assert_array_equal(
            p.next_switch_after(ROWS, np.zeros(3)), np.inf)

    def test_piecewise_lookup(self):
        p = PiecewiseConstantPolicy([(0.0, [1.0]), (2.0, [3.0])])
        np.testing.assert_allclose(
            p.theta(ROWS, np.array([1.0, 2.0, 5.0]), None),
            [[1.0], [3.0], [3.0]])

    def test_piecewise_next_switch(self):
        p = PiecewiseConstantPolicy([(0.0, [1.0]), (2.0, [3.0])])
        np.testing.assert_array_equal(
            p.next_switch_after(ROWS[:2], np.array([0.0, 2.0])),
            [2.0, np.inf])

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstantPolicy([])
        with pytest.raises(ValueError):
            PiecewiseConstantPolicy([(1.0, [1.0]), (0.0, [2.0])])

    @pytest.mark.parametrize("start", [np.nan, np.inf, -np.inf])
    def test_piecewise_start_times_must_be_finite(self, start):
        # A NaN start used to be accepted and never applied.
        with pytest.raises(ValueError, match="schedule start times must "
                                             "be finite"):
            PiecewiseConstantPolicy([(0.0, [1.0]), (start, [10.0])])

    def test_piecewise_pieces_must_have_equal_lengths(self):
        with pytest.raises(ValueError, match="schedule pieces must have "
                                             "equal lengths"):
            PiecewiseConstantPolicy([(0.0, [1.0]), (1.0, [10.0, 2.0])])

    def test_hysteresis_coordinate_is_an_index(self):
        # A fractional coordinate used to be truncated: 0.9 watched X_S.
        with pytest.raises(TypeError, match="coordinate must be an "
                                            "integer"):
            HysteresisPolicy([1.0], [10.0], coordinate=0.9,
                             low_threshold=0.5, high_threshold=0.85)
        policy = HysteresisPolicy([1.0], [10.0], coordinate=np.int64(1),
                                  low_threshold=0.5, high_threshold=0.85)
        policy.reset(np.random.default_rng(0), np.array([0.7, 0.3]), 2)
        with pytest.raises(ValueError, match="coordinate must lie"):
            HysteresisPolicy([1.0], [10.0], coordinate=2, low_threshold=0.5,
                             high_threshold=0.85).reset(
                np.random.default_rng(0), np.array([0.7, 0.3]), 2)

    def test_hysteresis_switching(self):
        # Paper theta_1: high mode until coord drops below 0.5, back above
        # 0.85; each row keeps its own mode.
        p = HysteresisPolicy([1.0], [10.0], coordinate=0,
                             low_threshold=0.5, high_threshold=0.85)
        p.reset(np.random.default_rng(0), np.array([0.7]), 3)
        t = np.zeros(3)

        def theta(*xs):
            return p.theta(ROWS, t, np.array(xs)[:, None])[:, 0]

        np.testing.assert_allclose(theta(0.7, 0.7, 0.7), [10.0] * 3)
        # Rows 1 and 2 drop below the low threshold -> low mode.
        np.testing.assert_allclose(theta(0.7, 0.4, 0.4), [10.0, 1.0, 1.0])
        # Row 1 stays low in the hysteresis band; row 2 rises above the
        # high threshold -> back to high mode.
        np.testing.assert_allclose(theta(0.7, 0.7, 0.9), [10.0, 1.0, 10.0])
        # A subset of rows leaves the others' modes alone.
        np.testing.assert_allclose(
            p.theta(ROWS[:1], t[:1], np.array([[0.4]])), [[1.0]])
        np.testing.assert_allclose(theta(0.7, 0.7, 0.7), [1.0, 1.0, 10.0])

    def test_hysteresis_reset(self):
        p = HysteresisPolicy([1.0], [10.0], 0, 0.5, 0.85, start_high=True)
        p.reset(np.random.default_rng(0), np.array([0.7]), 2)
        p.theta(ROWS[:2], np.zeros(2), np.array([[0.4], [0.4]]))  # -> low
        p.reset(np.random.default_rng(0), np.array([0.7]), 3)
        np.testing.assert_allclose(
            p.theta(ROWS, np.zeros(3), np.full((3, 1), 0.7)), [[10.0]] * 3)

    def test_hysteresis_validation(self):
        with pytest.raises(ValueError):
            HysteresisPolicy([1.0], [10.0], 0, 0.9, 0.5)

    @pytest.mark.parametrize("low, high", [(np.nan, 0.85), (0.5, np.nan),
                                           (-np.inf, 0.85), (0.5, np.inf)])
    def test_hysteresis_thresholds_must_be_finite(self, low, high):
        # A NaN low threshold used to keep every row in high mode.
        with pytest.raises(ValueError, match="low_threshold and "
                                             "high_threshold must be finite"):
            HysteresisPolicy([1.0], [10.0], 0, low, high)

    def test_hysteresis_modes_must_have_equal_lengths(self):
        with pytest.raises(ValueError, match="theta_low and theta_high "
                                             "must have equal lengths"):
            HysteresisPolicy([1.0], [10.0, 2.0], 0, 0.5, 0.85)

    @pytest.mark.parametrize("coordinate", [-1, 2, 5])
    def test_hysteresis_coordinate_checked_at_reset(self, sir_model,
                                                    coordinate):
        # coordinate=-1 used to watch the last coordinate silently.
        policy = HysteresisPolicy([1.0], [10.0], coordinate, 0.5, 0.85)
        pop = sir_model.instantiate(200, [0.7, 0.3])
        with pytest.raises(ValueError, match=r"coordinate must lie in "
                                             r"\[0, 2\)"):
            simulate_ensemble(pop, policy, 1.0, n_runs=2)

    def test_random_jump_policy(self, sir_model, rng):
        p = RandomJumpPolicy(sir_model.theta_set,
                             rate_fn=lambda t, x: 5.0 * x[1])
        p.reset(rng, np.array([0.7, 0.3]), 3)
        x = np.array([[0.7, 0.3], [0.6, 0.1], [0.5, 0.0]])
        np.testing.assert_allclose(p.jump_rate(ROWS, np.zeros(3), x),
                                   [1.5, 0.5, 0.0])
        before = p.theta(ROWS, np.zeros(3), x).copy()
        np.testing.assert_array_equal(before, [sir_model.theta_set.center()] * 3)
        p.on_jump(ROWS[1:2], np.zeros(1), x[1:2], rng)
        after = p.theta(ROWS, np.zeros(3), x)
        assert sir_model.theta_set.contains(after[1])
        # Only the jumping row re-draws.
        np.testing.assert_array_equal(after[[0, 2]], before[[0, 2]])

    def test_random_jump_negative_rate_clamped(self, sir_model, rng):
        p = RandomJumpPolicy(sir_model.theta_set, rate_fn=lambda t, x: -1.0)
        p.reset(rng, np.array([0.7, 0.3]), 2)
        np.testing.assert_array_equal(
            p.jump_rate(ROWS[:2], np.zeros(2), np.zeros((2, 2))), [0.0, 0.0])

    def test_random_jump_initial_validated(self, sir_model):
        with pytest.raises(ValueError):
            RandomJumpPolicy(sir_model.theta_set, lambda t, x: 1.0,
                             initial=[99.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_random_jump_non_finite_rate_raises(self, sir_model, bad):
        # A NaN rate used to freeze every row at x0 (0 events); an
        # infinite one raised numpy's bare OverflowError.
        policy = RandomJumpPolicy(sir_model.theta_set,
                                  rate_fn=lambda t, x: bad * x[1])
        pop = sir_model.instantiate(200, [0.7, 0.3])
        with pytest.raises(ValueError, match="RandomJumpPolicy: rate_fn "
                                             "returns the non-finite"):
            simulate_ensemble(pop, policy, 2.0, n_runs=4, seed=1)

    @pytest.mark.parametrize("rate_fn", [
        lambda t, x: max(x[1], 0.1),
        lambda t, x: 5.0 * float(x[1]),
        lambda t, x: 4.0 * np.mean(x),
        lambda t, x: x[1][:, None],
    ], ids=["max", "float", "mean", "column"])
    def test_random_jump_rate_must_take_batches(self, sir_model, rate_fn):
        policy = RandomJumpPolicy(sir_model.theta_set, rate_fn=rate_fn)
        pop = sir_model.instantiate(200, [0.7, 0.3])
        with pytest.raises(ValueError, match="RandomJumpPolicy: rate_fn"):
            simulate(pop, policy, 1.0)

    def test_one_instance_drives_ensembles_in_turn(self, sir_model):
        """reset rebuilds every row's state, so reusing an instance
        replays the ensemble a fresh instance gives."""
        def make():
            return HysteresisPolicy([1.0], [10.0], coordinate=0,
                                    low_threshold=0.5, high_threshold=0.85)

        pop = sir_model.instantiate(500, [0.7, 0.3])
        shared = make()
        simulate_ensemble(pop, shared, 8.0, n_runs=5, seed=1)
        again = simulate_ensemble(pop, shared, 8.0, n_runs=3, seed=2)
        fresh = simulate_ensemble(pop, make(), 8.0, n_runs=3, seed=2)
        np.testing.assert_array_equal(again.states, fresh.states)
        np.testing.assert_array_equal(again.thetas, fresh.thetas)


class TestSSA:
    def test_basic_run(self, sir_model, rng):
        pop = sir_model.instantiate(200, [0.7, 0.3])
        run = simulate(pop, ConstantPolicy([5.0]), 1.0, rng=rng, n_samples=50)
        assert run.times.shape == (50,)
        assert run.states.shape == (50, 2)
        assert run.n_events > 0
        assert run.population_size == 200

    def test_states_on_lattice(self, sir_model, rng):
        n = 100
        pop = sir_model.instantiate(n, [0.7, 0.3])
        run = simulate(pop, ConstantPolicy([5.0]), 1.0, rng=rng, n_samples=20)
        counts = run.states * n
        np.testing.assert_allclose(counts, np.rint(counts), atol=1e-9)

    def test_states_stay_in_bounds(self, sir_model, rng):
        pop = sir_model.instantiate(50, [0.7, 0.3])
        run = simulate(pop, ConstantPolicy([10.0]), 5.0, rng=rng)
        assert np.all(run.states >= -1e-12)
        assert np.all(run.states.sum(axis=1) <= 1.0 + 1e-12)

    def test_reproducible_with_seed(self, sir_model):
        pop = sir_model.instantiate(100, [0.7, 0.3])
        a = simulate(pop, ConstantPolicy([5.0]), 1.0,
                     rng=np.random.default_rng(3), n_samples=30)
        b = simulate(pop, ConstantPolicy([5.0]), 1.0,
                     rng=np.random.default_rng(3), n_samples=30)
        np.testing.assert_allclose(a.states, b.states)
        assert a.n_events == b.n_events

    def test_default_rng_is_deterministic(self, sir_model):
        # The argument-less form must replay, not draw global entropy:
        # two calls without an rng produce the identical trajectory.
        pop = sir_model.instantiate(100, [0.7, 0.3])
        a = simulate(pop, ConstantPolicy([5.0]), 1.0, n_samples=30)
        b = simulate(pop, ConstantPolicy([5.0]), 1.0, n_samples=30)
        np.testing.assert_array_equal(a.states, b.states)
        assert a.n_events == b.n_events

    def test_invalid_arguments(self, sir_model, rng):
        pop = sir_model.instantiate(10, [0.7, 0.3])
        with pytest.raises(ValueError):
            simulate(pop, ConstantPolicy([5.0]), 0.0, rng=rng)
        with pytest.raises(ValueError):
            simulate(pop, ConstantPolicy([5.0]), 1.0, rng=rng, n_samples=1)
        # Non-finite horizons: no NaN grid, no run toward max_events.
        for t_final in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                simulate(pop, ConstantPolicy([5.0]), t_final, rng=rng)
        with pytest.raises(ValueError, match="finite"):
            simulate(pop, ConstantPolicy([5.0]), 1.0, rng=rng,
                     t_start=np.nan)
        # A theta of the wrong dimension is rejected, not truncated.
        with pytest.raises(ValueError, match=r"\(n, 1\) parameters"):
            simulate(pop, ConstantPolicy([5.0, 1.0]), 1.0, rng=rng)
        with pytest.raises(TypeError, match="ControlPolicy"):
            simulate(pop, lambda t, x: [5.0], 1.0, rng=rng)

    def test_max_events_cap(self, sir_model, rng):
        pop = sir_model.instantiate(1000, [0.7, 0.3])
        with pytest.raises(RuntimeError):
            simulate(pop, ConstantPolicy([5.0]), 100.0, rng=rng,
                     max_events=100)

    def test_absorbed_chain_finishes(self, rng):
        # A pure-death chain reaches 0 and stays: SSA must not spin.
        from repro.params import Interval
        from repro.population import PopulationModel, Transition

        death = Transition("death", [-1.0], lambda x, th: th[0] * x[0])
        model = PopulationModel("death", ("x",), [death], Interval(0.5, 2.0),
                                state_bounds=([0.0], [1.0]))
        pop = model.instantiate(20, [0.5])
        run = simulate(pop, ConstantPolicy([1.0]), 100.0, rng=rng,
                       n_samples=40)
        assert run.states[-1, 0] == 0.0
        assert run.n_events == 10

    def test_theta_projected_into_domain(self, sir_model, rng):
        pop = sir_model.instantiate(50, [0.7, 0.3])
        run = simulate(pop, ConstantPolicy([99.0]), 0.5,
                       rng=rng, n_samples=10)
        assert np.all(run.thetas <= 10.0 + 1e-12)

    def test_piecewise_schedule_respected(self, sir_model, rng):
        # theta jumps at t = 0.5; sampled thetas must reflect the schedule.
        policy = PiecewiseConstantPolicy([(0.0, [1.0]), (0.5, [10.0])])
        pop = sir_model.instantiate(100, [0.7, 0.3])
        run = simulate(pop, policy, 1.0, rng=rng, n_samples=101)
        early = run.thetas[run.times < 0.5]
        late = run.thetas[run.times > 0.55]
        np.testing.assert_allclose(early, 1.0)
        np.testing.assert_allclose(late, 10.0)

    def test_policy_jumps_counted(self, sir_model, rng):
        policy = RandomJumpPolicy(sir_model.theta_set,
                                  rate_fn=lambda t, x: 50.0)
        pop = sir_model.instantiate(100, [0.7, 0.3])
        run = simulate(pop, policy, 1.0, rng=rng)
        assert run.n_policy_jumps > 10

    def test_after_burn_in(self, sir_model, rng):
        pop = sir_model.instantiate(100, [0.7, 0.3])
        run = simulate(pop, ConstantPolicy([5.0]), 2.0, rng=rng,
                       n_samples=100)
        tail = run.after(1.0)
        assert tail.times[0] >= 1.0
        with pytest.raises(ValueError):
            run.after(5.0)

    def test_observable_series(self, sir_model, rng):
        pop = sir_model.instantiate(100, [0.7, 0.3])
        run = simulate(pop, ConstantPolicy([5.0]), 1.0, rng=rng, n_samples=20)
        total = run.observable([1.0, 1.0])
        np.testing.assert_allclose(total, run.states.sum(axis=1))

    def test_hysteresis_induces_oscillation(self, sir_model):
        """The paper's theta_1 policy drives S up and down repeatedly."""
        policy = HysteresisPolicy([1.0], [10.0], coordinate=0,
                                  low_threshold=0.5, high_threshold=0.85)
        pop = sir_model.instantiate(1000, [0.7, 0.3])
        run = simulate(pop, policy, 20.0, rng=np.random.default_rng(11),
                       n_samples=400)
        theta = run.thetas[:, 0]
        # Both modes occur, and the policy flips repeatedly (oscillation).
        assert np.any(theta == 1.0)
        assert np.any(theta == 10.0)
        n_switches = int(np.count_nonzero(np.abs(np.diff(theta)) > 1e-9))
        assert n_switches >= 4
