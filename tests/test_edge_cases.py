"""Edge-case and regression tests across modules."""

import numpy as np
import pytest

from repro.bounds import pontryagin_transient_bounds
from repro.models import make_gps_poisson_model
from repro.models.gps import _gps_share_rate_batch


class TestGPSShareStability:
    """Regression: the GPS share must stay bounded off the orthant.

    Fixed-step integrators overshoot the boundary by a step; the raw
    share has a pole at ``phi . q = 0`` that used to destabilise the
    Pontryagin forward sweep (queues exploding to O(100)).
    """

    def test_negative_queue_clamped(self):
        rate = _gps_share_rate_batch(-0.01, 0.001, 5.0, 1.0, -0.01,
                                     (1.0, 1.0), 0.5)
        assert rate == 0.0

    def test_share_bounded_by_capacity_times_mu(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            q1, q2 = rng.uniform(-0.1, 0.6, size=2)
            rate = _gps_share_rate_batch(q1, q2, 5.0, 7.0, q1, (7.0, 1.0), 0.5)
            assert 0.0 <= rate <= 0.5 * 5.0 + 1e-9

    def test_array_input_matches_elementwise(self):
        rng = np.random.default_rng(1)
        q1, q2 = rng.uniform(-0.1, 0.6, size=(2, 200))
        q1[:3] = [-0.01, 0.0, 0.0]
        q2[:3] = [0.001, 0.0, -0.2]
        rates = _gps_share_rate_batch(q1, q2, 5.0, 7.0, q1, (7.0, 1.0), 0.5)
        assert rates.shape == (200,)
        assert np.all(rates[:3] == 0.0)
        assert np.all((rates >= 0.0) & (rates <= 0.5 * 5.0 + 1e-9))
        for j in range(200):
            assert rates[j] == _gps_share_rate_batch(
                q1[j], q2[j], 5.0, 7.0, q1[j], (7.0, 1.0), 0.5
            )

    def test_high_weight_sweep_stays_finite(self):
        """The phi_1 = 15 sweep that used to blow up."""
        from repro.analysis.robust import worst_case_objective
        from repro.models import gps_initial_state_map, make_gps_map_model

        model = make_gps_map_model(phi=(15.0, 1.0))
        value = worst_case_objective(
            model, gps_initial_state_map(), 5.0,
            model.observables["Qtotal"], n_steps=120,
        )
        assert 0.0 < value < 2.0  # class fractions bound Qtotal by 2

    def test_drift_bounded_near_empty_system(self):
        model = make_gps_poisson_model()
        for q in ([1e-9, 1e-9], [0.0, 1e-12], [1e-12, 0.0]):
            drift = model.drift(q, [0.875, 1.2])
            assert np.all(np.abs(drift) < 10.0)


class TestTransientBoundsSides:
    def test_upper_only(self, sir_model, sir_x0):
        tb = pontryagin_transient_bounds(
            sir_model, sir_x0, [0.5, 1.0], observables=["I"],
            steps_per_unit=40, sides=("upper",),
        )
        assert np.all(np.isfinite(tb.upper["I"]))
        assert np.all(np.isnan(tb.lower["I"]))

    def test_lower_only(self, sir_model, sir_x0):
        tb = pontryagin_transient_bounds(
            sir_model, sir_x0, [0.5], observables=["I"],
            steps_per_unit=40, sides=("lower",),
        )
        assert np.isfinite(tb.lower["I"][0])
        assert np.isnan(tb.upper["I"][0])

    def test_invalid_sides_rejected(self, sir_model, sir_x0):
        with pytest.raises(ValueError):
            pontryagin_transient_bounds(sir_model, sir_x0, [0.5],
                                        sides=("middle",))
        with pytest.raises(ValueError):
            pontryagin_transient_bounds(sir_model, sir_x0, [0.5], sides=())

    def test_upper_only_matches_both_sides(self, sir_model, sir_x0):
        both = pontryagin_transient_bounds(
            sir_model, sir_x0, [1.0], observables=["I"], steps_per_unit=60,
        )
        upper = pontryagin_transient_bounds(
            sir_model, sir_x0, [1.0], observables=["I"], steps_per_unit=60,
            sides=("upper",),
        )
        assert upper.upper["I"][0] == pytest.approx(both.upper["I"][0],
                                                    abs=1e-9)


class TestMiscellaneousEdges:
    def test_trajectory_extrapolation_clamps(self):
        from repro.ode import Trajectory

        traj = Trajectory([0.0, 1.0], [[0.0], [1.0]])
        # np.interp clamps outside the range: documented behaviour.
        assert traj(2.0)[0] == pytest.approx(1.0)
        assert traj(-1.0)[0] == pytest.approx(0.0)

    def test_simulate_with_nonzero_start(self, sir_model, rng):
        from repro.simulation import ConstantPolicy, simulate

        pop = sir_model.instantiate(100, [0.7, 0.3])
        run = simulate(pop, ConstantPolicy([5.0]), 3.0, rng=rng,
                       t_start=1.0, n_samples=20)
        assert run.times[0] == pytest.approx(1.0)
        assert run.times[-1] == pytest.approx(3.0)

    def test_experiment_render_without_series(self):
        from repro.reporting import ExperimentResult

        result = ExperimentResult("x", "empty")
        text = result.render()
        assert "empty" in text

    def test_gps_explicit_lambda_bounds(self):
        model = make_gps_poisson_model(lambda_bounds=((0.2, 0.4), (0.5, 0.9)))
        np.testing.assert_allclose(model.theta_set.lowers, [0.2, 0.5])
        np.testing.assert_allclose(model.theta_set.uppers, [0.4, 0.9])

    def test_extremizer_grid_cache_reused(self, sir_model):
        from repro.inclusion import DriftExtremizer

        ext = DriftExtremizer(sir_model, method="grid", grid_resolution=7)
        ext.maximize_direction([0.5, 0.2], [0.0, 1.0])
        cached = ext._cached_grid
        ext.maximize_direction([0.1, 0.1], [1.0, 0.0])
        assert ext._cached_grid is cached

    def test_kolmogorov_vector_field_consistency(self):
        from repro.ctmc import ImpreciseCTMC, KolmogorovSystem
        from repro.models import make_bike_station_model

        chain = ImpreciseCTMC(
            make_bike_station_model().instantiate(5, [0.4])
        )
        system = KolmogorovSystem(chain)
        p0 = chain.initial_distribution
        theta = np.array([1.0, 1.0])
        np.testing.assert_allclose(
            system.drift_fn(theta)(p0), system.vector_field(theta)(0.0, p0)
        )
