"""Tests for policies and the SSA (repro.simulation)."""

import numpy as np
import pytest

from repro.simulation import (
    ConstantPolicy,
    FeedbackPolicy,
    HysteresisPolicy,
    PiecewiseConstantPolicy,
    RandomJumpPolicy,
    simulate,
)


class TestPolicies:
    def test_constant(self):
        p = ConstantPolicy([5.0])
        np.testing.assert_allclose(p.theta(0.0, np.zeros(2)), [5.0])
        assert p.jump_rate(0.0, np.zeros(2)) == 0.0
        assert p.next_switch_after(0.0) == np.inf

    def test_piecewise_lookup(self):
        p = PiecewiseConstantPolicy([(0.0, [1.0]), (2.0, [3.0])])
        np.testing.assert_allclose(p.theta(1.0, None), [1.0])
        np.testing.assert_allclose(p.theta(2.0, None), [3.0])
        np.testing.assert_allclose(p.theta(5.0, None), [3.0])

    def test_piecewise_next_switch(self):
        p = PiecewiseConstantPolicy([(0.0, [1.0]), (2.0, [3.0])])
        assert p.next_switch_after(0.0) == 2.0
        assert p.next_switch_after(2.0) == np.inf

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstantPolicy([])
        with pytest.raises(ValueError):
            PiecewiseConstantPolicy([(1.0, [1.0]), (0.0, [2.0])])

    def test_feedback(self):
        p = FeedbackPolicy(lambda t, x: [x[0] + t])
        np.testing.assert_allclose(p.theta(1.0, np.array([2.0])), [3.0])
        with pytest.raises(TypeError):
            FeedbackPolicy(42)

    def test_hysteresis_switching(self):
        # Paper theta_1: high mode until coord drops below 0.5, back above 0.85.
        p = HysteresisPolicy([1.0], [10.0], coordinate=0,
                             low_threshold=0.5, high_threshold=0.85)
        p.reset(np.random.default_rng(0), np.array([0.7]))
        assert p.in_high_mode
        np.testing.assert_allclose(p.theta(0.0, np.array([0.7])), [10.0])
        # Drop below low threshold -> switch to low mode.
        np.testing.assert_allclose(p.theta(1.0, np.array([0.4])), [1.0])
        assert not p.in_high_mode
        # Stay low in the hysteresis band.
        np.testing.assert_allclose(p.theta(2.0, np.array([0.7])), [1.0])
        # Rise above high threshold -> back to high mode.
        np.testing.assert_allclose(p.theta(3.0, np.array([0.9])), [10.0])

    def test_hysteresis_reset(self):
        p = HysteresisPolicy([1.0], [10.0], 0, 0.5, 0.85, start_high=True)
        p.theta(0.0, np.array([0.4]))  # flips to low
        p.reset(np.random.default_rng(0), np.array([0.7]))
        assert p.in_high_mode

    def test_hysteresis_validation(self):
        with pytest.raises(ValueError):
            HysteresisPolicy([1.0], [10.0], 0, 0.9, 0.5)

    def test_random_jump_policy(self, sir_model, rng):
        p = RandomJumpPolicy(sir_model.theta_set,
                             rate_fn=lambda t, x: 5.0 * x[1])
        p.reset(rng, np.array([0.7, 0.3]))
        assert p.jump_rate(0.0, np.array([0.7, 0.3])) == pytest.approx(1.5)
        before = p.theta(0.0, None).copy()
        p.on_jump(0.0, np.array([0.7, 0.3]), rng)
        after = p.theta(0.0, None)
        assert sir_model.theta_set.contains(after)
        assert not np.allclose(before, after) or True  # may coincide rarely

    def test_random_jump_negative_rate_clamped(self, sir_model):
        p = RandomJumpPolicy(sir_model.theta_set, rate_fn=lambda t, x: -1.0)
        assert p.jump_rate(0.0, None) == 0.0

    def test_random_jump_initial_validated(self, sir_model):
        with pytest.raises(ValueError):
            RandomJumpPolicy(sir_model.theta_set, lambda t, x: 1.0,
                             initial=[99.0])


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
        run = simulate(pop, FeedbackPolicy(lambda t, x: [99.0]), 0.5,
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
