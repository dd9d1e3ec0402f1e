"""Tests for batch simulation statistics."""

import numpy as np
import pytest

import reference_impls as ref
from repro.simulation import ConstantPolicy, batch_simulate


class TestBatchSimulate:
    def test_shapes(self, sir_model):
        pop = sir_model.instantiate(100, [0.7, 0.3])
        batch = batch_simulate(pop, lambda: ConstantPolicy([5.0]), 1.0,
                               n_runs=5, seed=1, n_samples=20)
        assert batch.states.shape == (5, 20, 2)
        assert batch.n_runs == 5
        assert batch.dim == 2
        assert batch.mean().shape == (20, 2)
        assert batch.std().shape == (20, 2)

    def test_deterministic_given_seed(self, sir_model):
        pop = sir_model.instantiate(100, [0.7, 0.3])
        a = batch_simulate(pop, lambda: ConstantPolicy([5.0]), 1.0,
                           n_runs=3, seed=7, n_samples=10)
        b = batch_simulate(pop, lambda: ConstantPolicy([5.0]), 1.0,
                           n_runs=3, seed=7, n_samples=10)
        np.testing.assert_allclose(a.states, b.states)

    def test_runs_are_independent(self, sir_model):
        pop = sir_model.instantiate(200, [0.7, 0.3])
        batch = batch_simulate(pop, lambda: ConstantPolicy([5.0]), 1.0,
                               n_runs=4, seed=0, n_samples=10)
        finals = batch.final_states()
        assert np.unique(finals, axis=0).shape[0] > 1

    def test_mean_tracks_mean_field(self, sir_model):
        from repro.ode import solve_ode

        pop = sir_model.instantiate(500, [0.7, 0.3])
        batch = batch_simulate(pop, lambda: ConstantPolicy([5.0]), 1.0,
                               n_runs=30, seed=3, n_samples=11)
        ode = solve_ode(sir_model.vector_field([5.0]), [0.7, 0.3],
                        (0, 1), t_eval=batch.times)
        assert np.max(np.abs(batch.mean() - ode.states)) < 0.03

    def test_quantile_band_ordering(self, sir_model):
        pop = sir_model.instantiate(100, [0.7, 0.3])
        batch = batch_simulate(pop, lambda: ConstantPolicy([5.0]), 1.0,
                               n_runs=10, seed=2, n_samples=10)
        lo, hi = batch.quantile_band(0.1, 0.9)
        assert np.all(lo <= hi + 1e-12)
        with pytest.raises(ValueError):
            batch.quantile_band(0.9, 0.1)

    def test_observable_and_fraction(self, sir_model):
        pop = sir_model.instantiate(100, [0.7, 0.3])
        batch = batch_simulate(pop, lambda: ConstantPolicy([5.0]), 1.0,
                               n_runs=8, seed=4, n_samples=10)
        totals = batch.observable([1.0, 1.0])
        assert totals.shape == (8, 10)
        frac = batch.fraction_satisfying(lambda x: x[1] < 0.5)
        assert 0.0 <= frac <= 1.0

    def test_invalid_n_runs(self, sir_model):
        pop = sir_model.instantiate(10, [0.7, 0.3])
        with pytest.raises(ValueError, match="n_runs"):
            batch_simulate(pop, lambda: ConstantPolicy([5.0]), 1.0, n_runs=0)

    def test_engine_selection(self, sir_model):
        """Every run count goes through the one engine; a single run is
        bit-identical to the scalar oracle seeded ``default_rng(seed)``."""
        pop = sir_model.instantiate(50, [0.7, 0.3])
        for n_runs in (1, 2):
            batch = batch_simulate(pop, lambda: ConstantPolicy([5.0]), 0.5,
                                   n_runs=n_runs, seed=0, n_samples=5)
            assert batch.states.shape == (n_runs, 5, 2)
        single = batch_simulate(pop, lambda: ConstantPolicy([5.0]), 0.5,
                                n_runs=1, seed=7, n_samples=5)
        scalar = ref.simulate_runs(pop, lambda: ConstantPolicy([5.0]), 0.5,
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
                batch_simulate(pop, lambda: ConstantPolicy([5.0]), 1.0,
                               n_runs=n_runs)

    def test_non_integer_runs(self, sir_model):
        pop = sir_model.instantiate(10, [0.7, 0.3])
        with pytest.raises(TypeError, match="n_runs must be an integer"):
            batch_simulate(pop, lambda: ConstantPolicy([5.0]), 1.0,
                           n_runs=2.5)

    def test_non_callable_factory(self, sir_model):
        pop = sir_model.instantiate(10, [0.7, 0.3])
        with pytest.raises(TypeError, match="policy_factory"):
            batch_simulate(pop, ConstantPolicy([5.0]), 1.0, n_runs=2)

    @pytest.mark.parametrize("n_runs", [1, 2])
    def test_bad_horizon_rejected_before_running(self, sir_model, n_runs):
        pop = sir_model.instantiate(10, [0.7, 0.3])
        calls = []

        def counting_factory():
            calls.append(1)
            return ConstantPolicy([5.0])

        with pytest.raises(ValueError, match="t_final"):
            batch_simulate(pop, counting_factory, 0.0, n_runs=n_runs)
        for t_final in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                batch_simulate(pop, counting_factory, t_final, n_runs=n_runs)
        with pytest.raises(ValueError, match="finite"):
            batch_simulate(pop, counting_factory, 1.0, n_runs=n_runs,
                           t_start=np.nan)
        assert not calls  # validation failed before any policy was built

    @pytest.mark.parametrize("n_runs", [1, 3])
    def test_failing_policy_vectorized_propagates(self, sir_model, n_runs):
        pop = sir_model.instantiate(10, [0.7, 0.3])

        class ExplodingPolicy(ConstantPolicy):
            def theta(self, t, x):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            batch_simulate(pop, lambda: ExplodingPolicy([5.0]), 1.0,
                           n_runs=n_runs)
