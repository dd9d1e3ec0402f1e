"""Tests for ensemble simulation statistics (``simulate_ensemble``'s
:class:`~repro.simulation.BatchResult`) and its up-front validation."""

import numpy as np
import pytest

import reference_impls as ref
from repro.engine import simulate_ensemble
from repro.params import Interval
from repro.population import PopulationModel, Transition
from repro.simulation import ConstantPolicy, ControlPolicy, simulate


class TestBatchSimulate:
    def test_shapes(self, sir_model):
        pop = sir_model.instantiate(100, [0.7, 0.3])
        batch = simulate_ensemble(pop, ConstantPolicy([5.0]), 1.0,
                                  n_runs=5, seed=1, n_samples=20)
        assert batch.states.shape == (5, 20, 2)
        assert batch.n_runs == 5
        assert batch.dim == 2
        assert batch.mean().shape == (20, 2)
        assert batch.std().shape == (20, 2)

    def test_deterministic_given_seed(self, sir_model):
        pop = sir_model.instantiate(100, [0.7, 0.3])
        a = simulate_ensemble(pop, ConstantPolicy([5.0]), 1.0,
                              n_runs=3, seed=7, n_samples=10)
        b = simulate_ensemble(pop, ConstantPolicy([5.0]), 1.0,
                              n_runs=3, seed=7, n_samples=10)
        np.testing.assert_allclose(a.states, b.states)

    def test_runs_are_independent(self, sir_model):
        pop = sir_model.instantiate(200, [0.7, 0.3])
        batch = simulate_ensemble(pop, ConstantPolicy([5.0]), 1.0,
                                  n_runs=4, seed=0, n_samples=10)
        finals = batch.final_states()
        assert np.unique(finals, axis=0).shape[0] > 1

    def test_mean_tracks_mean_field(self, sir_model):
        from repro.ode import solve_ode

        pop = sir_model.instantiate(500, [0.7, 0.3])
        batch = simulate_ensemble(pop, ConstantPolicy([5.0]), 1.0,
                                  n_runs=30, seed=3, n_samples=11)
        ode = solve_ode(sir_model.vector_field([5.0]), [0.7, 0.3],
                        (0, 1), t_eval=batch.times)
        assert np.max(np.abs(batch.mean() - ode.states)) < 0.03

    def test_quantile_band_ordering(self, sir_model):
        pop = sir_model.instantiate(100, [0.7, 0.3])
        batch = simulate_ensemble(pop, ConstantPolicy([5.0]), 1.0,
                                  n_runs=10, seed=2, n_samples=10)
        lo, hi = batch.quantile_band(0.1, 0.9)
        assert np.all(lo <= hi + 1e-12)
        with pytest.raises(ValueError):
            batch.quantile_band(0.9, 0.1)

    def test_observable_and_fraction(self, sir_model):
        pop = sir_model.instantiate(100, [0.7, 0.3])
        batch = simulate_ensemble(pop, ConstantPolicy([5.0]), 1.0,
                                  n_runs=8, seed=4, n_samples=10)
        totals = batch.observable([1.0, 1.0])
        assert totals.shape == (8, 10)
        frac = batch.fraction_satisfying(lambda x: x[1] < 0.5)
        assert 0.0 <= frac <= 1.0

    def test_runs_view_cuts_out_a_block(self, sir_model):
        pop = sir_model.instantiate(100, [0.7, 0.3])
        batch = simulate_ensemble(pop, ConstantPolicy([5.0]), 0.5,
                                  n_runs=6, seed=2, n_samples=7)
        assert batch.events_per_run.shape == (6,)
        assert batch.n_events == int(batch.events_per_run.sum()) > 0
        part = batch.runs(2, 5)
        assert part.n_runs == 3
        np.testing.assert_array_equal(part.states, batch.states[2:5])
        np.testing.assert_array_equal(part.thetas, batch.thetas[2:5])
        np.testing.assert_array_equal(part.times, batch.times)
        assert part.n_events == int(batch.events_per_run[2:5].sum())
        assert part.n_policy_jumps == 0
        for start, stop in [(3, 3), (-1, 2), (4, 7)]:
            with pytest.raises(ValueError, match="runs"):
                batch.runs(start, stop)

    def test_invalid_n_runs(self, sir_model):
        pop = sir_model.instantiate(10, [0.7, 0.3])
        with pytest.raises(ValueError, match="n_runs"):
            simulate_ensemble(pop, ConstantPolicy([5.0]), 1.0, n_runs=0)

    def test_engine_selection(self, sir_model):
        """Every run count goes through the one engine; a single run is
        bit-identical to the scalar oracle seeded ``default_rng(seed)``."""
        pop = sir_model.instantiate(50, [0.7, 0.3])
        for n_runs in (1, 2):
            batch = simulate_ensemble(pop, ConstantPolicy([5.0]), 0.5,
                                      n_runs=n_runs, seed=0, n_samples=5)
            assert batch.states.shape == (n_runs, 5, 2)
        single = simulate_ensemble(pop, ConstantPolicy([5.0]), 0.5,
                                   n_runs=1, seed=7, n_samples=5)
        scalar = ref.simulate_runs(pop, ref.ConstantPolicy([5.0]), 0.5,
                                   n_runs=1, seed=7, n_samples=5)
        np.testing.assert_array_equal(single.states, scalar.states)
        np.testing.assert_array_equal(single.thetas, scalar.thetas)
        assert single.n_events == scalar.n_events


class TestBatchSimulateValidation:
    """Up-front input validation: bad calls fail fast with specific
    errors, never as downstream crashes mid-ensemble (the historical
    failure mode was an opaque crash when the first replication died)."""

    def test_zero_runs_both_engines(self, sir_model):
        pop = sir_model.instantiate(10, [0.7, 0.3])
        for n_runs in (0, -1):
            with pytest.raises(ValueError, match="n_runs must be positive"):
                simulate_ensemble(pop, ConstantPolicy([5.0]), 1.0,
                                  n_runs=n_runs)

    def test_non_integer_runs(self, sir_model):
        pop = sir_model.instantiate(10, [0.7, 0.3])
        with pytest.raises(TypeError, match="n_runs must be an integer"):
            simulate_ensemble(pop, ConstantPolicy([5.0]), 1.0,
                              n_runs=2.5)

    def test_policy_must_be_an_instance(self, sir_model):
        pop = sir_model.instantiate(10, [0.7, 0.3])
        with pytest.raises(TypeError, match="ControlPolicy instance"):
            simulate_ensemble(pop, lambda: ConstantPolicy([5.0]), 1.0,
                              n_runs=2)

    @pytest.mark.parametrize("entry", ["simulate_ensemble", "simulate"])
    @pytest.mark.parametrize("key, value, error", [
        ("max_events", float("nan"), TypeError),
        ("max_events", 1.5, TypeError),
        ("max_events", 0, ValueError),
        ("max_events", -3, ValueError),
        ("n_samples", 2.5, TypeError),
        ("n_samples", 1, ValueError),
    ])
    def test_counts_are_integers_in_range(self, sir_model, entry, key,
                                          value, error):
        """A NaN cap used to switch the cap off, a cap below 1 or a
        fractional one raised at t = 0 as if the run had exceeded it,
        and a fractional sample count failed inside np.linspace."""
        pop = sir_model.instantiate(100, [0.7, 0.3])
        kwargs = {key: value}
        with pytest.raises(error, match=key):
            if entry == "simulate":
                simulate(pop, ConstantPolicy([5.0]), 1.0,
                         rng=np.random.default_rng(0), **kwargs)
            else:
                simulate_ensemble(pop, ConstantPolicy([5.0]), 1.0,
                                  n_runs=2, **kwargs)

    def test_max_events_names_the_block_and_its_row(self):
        """Block 0 sits at theta = 0 (no enabled event) and finishes at
        once; block 1's rows reach the cap."""
        up = Transition("up", [1.0], lambda x, th: th[0] * (1.0 - x[0]))
        down = Transition("down", [-1.0], lambda x, th: th[0] * x[0])
        model = PopulationModel("flip", ("x",), [up, down],
                                Interval(0.0, 1.0),
                                state_bounds=([0.0], [1.0]))

        class TwoBlocks(ControlPolicy):
            def theta(self, rows, t, x):
                return (rows[:, None] >= 2).astype(float)

        with pytest.raises(RuntimeError, match="SSA row 0 of block 1 "
                                               "exceeded max_events=50"):
            simulate_ensemble(model.instantiate(100, [0.5]), TwoBlocks(),
                              100.0, n_runs=4, max_events=50,
                              rng=[np.random.default_rng(0),
                                   np.random.default_rng(1)])

    @pytest.mark.parametrize("n_runs", [1, 2])
    def test_bad_horizon_rejected_before_running(self, sir_model, n_runs):
        pop = sir_model.instantiate(10, [0.7, 0.3])
        calls = []

        class CountingPolicy(ConstantPolicy):
            def reset(self, rng, x0, n_runs):
                calls.append(1)

        policy = CountingPolicy([5.0])
        with pytest.raises(ValueError, match="t_final"):
            simulate_ensemble(pop, policy, 0.0, n_runs=n_runs)
        for t_final in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                simulate_ensemble(pop, policy, t_final, n_runs=n_runs)
        with pytest.raises(ValueError, match="finite"):
            simulate_ensemble(pop, policy, 1.0, n_runs=n_runs,
                              t_start=np.nan)
        assert not calls  # validation failed before the policy was reset

    @pytest.mark.parametrize("n_runs", [1, 3])
    def test_failing_policy_vectorized_propagates(self, sir_model, n_runs):
        pop = sir_model.instantiate(10, [0.7, 0.3])

        class ExplodingPolicy(ConstantPolicy):
            def theta(self, rows, t, x):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            simulate_ensemble(pop, ExplodingPolicy([5.0]), 1.0,
                              n_runs=n_runs)
