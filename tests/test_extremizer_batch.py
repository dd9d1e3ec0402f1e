"""Differential tests: batched extremization == one-query reference oracle.

The batched kernels of :class:`repro.inclusion.DriftExtremizer` (and the
model-level ``affine_parts_batch`` / ``drift_batch`` they sit on) claim
*exactness*: every row of a batched call must reproduce the scalar
evaluation of that row, in both the support value and the maximising
``theta``.  This suite pins that claim across the whole model catalog,
random states and directions, and all three strategies against the
one-query-at-a-time oracles of ``tests/reference_impls.py``; CI fails if
any of it is skipped.
"""

import numpy as np
import pytest

import reference_impls as ref
from repro.bounds import (
    differential_hull_bounds,
    extremal_trajectory,
    template_reachable_bounds,
)
from repro.inclusion import DriftExtremizer
from repro.models import (
    make_autoscaler_model,
    make_bike_station_model,
    make_cdn_cache_model,
    make_csma_model,
    make_gossip_model,
    make_gps_map_model,
    make_gps_poisson_model,
    make_power_of_d_model,
    make_repairable_queue_model,
    make_seir_model,
    make_sir_full_model,
    make_sir_model,
    make_ttl_cache_model,
)
from repro.params import DiscreteSet, Interval
from repro.population import PopulationModel, Transition

CATALOG_FACTORIES = [
    make_sir_model,
    make_sir_full_model,
    make_seir_model,
    make_gossip_model,
    make_repairable_queue_model,
    make_cdn_cache_model,
    make_bike_station_model,
    make_power_of_d_model,
    make_gps_poisson_model,
    make_gps_map_model,
    make_autoscaler_model,
    make_ttl_cache_model,
    make_csma_model,
]

STRATEGIES = ("affine", "corners", "grid")

N_POINTS = 8


def _random_batch(model, rng):
    """A batch of admissible-ish states and generic directions."""
    states = rng.uniform(0.0, 1.0, size=(N_POINTS, model.dim))
    directions = rng.normal(size=(N_POINTS, model.dim))
    return states, directions


@pytest.mark.parametrize("factory", CATALOG_FACTORIES,
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("method", STRATEGIES)
class TestBatchedEqualsScalar:
    def test_maximize_direction_values_and_argmax(self, factory, method):
        model = factory()
        rng = np.random.default_rng(20160527)
        states, directions = _random_batch(model, rng)
        batched = DriftExtremizer(model, method=method, grid_resolution=5)
        thetas_b, values_b = batched.maximize_direction_batch(states, directions)
        thetas_s, values_s = ref.maximize_direction_rows(batched, states,
                                                         directions)
        np.testing.assert_allclose(values_b, values_s, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(thetas_b, thetas_s)

    def test_scalar_api_delegates_to_batch_kernels(self, factory, method):
        model = factory()
        rng = np.random.default_rng(11)
        states, directions = _random_batch(model, rng)
        batched = DriftExtremizer(model, method=method, grid_resolution=5)
        for x, p in zip(states, directions):
            theta_b, value_b = batched.maximize_direction(x, p)
            theta_s, value_s = ref.maximize_direction(batched, x, p)
            assert value_b == pytest.approx(value_s, rel=1e-12, abs=1e-12)
            np.testing.assert_array_equal(theta_b, theta_s)

    def test_velocity_envelope_batch(self, factory, method):
        model = factory()
        rng = np.random.default_rng(7)
        states, _ = _random_batch(model, rng)
        batched = DriftExtremizer(model, method=method, grid_resolution=5)
        lower_b, upper_b = batched.velocity_envelope_batch(states)
        for r, x in enumerate(states):
            lower_s, upper_s = ref.velocity_envelope(batched, x)
            np.testing.assert_allclose(lower_b[r], lower_s, rtol=1e-12,
                                       atol=1e-12)
            np.testing.assert_allclose(upper_b[r], upper_s, rtol=1e-12,
                                       atol=1e-12)

    def test_support_batch(self, factory, method):
        model = factory()
        rng = np.random.default_rng(99)
        states, directions = _random_batch(model, rng)
        batched = DriftExtremizer(model, method=method, grid_resolution=5)
        values = batched.support_batch(states, directions)
        for r, (x, p) in enumerate(zip(states, directions)):
            assert values[r] == pytest.approx(ref.support(batched, x, p),
                                              rel=1e-12, abs=1e-12)

    def test_coordinate_range_matches_oracle(self, factory, method):
        model = factory()
        rng = np.random.default_rng(99)
        states, _ = _random_batch(model, rng)
        extremizer = DriftExtremizer(model, method=method, grid_resolution=5)
        for x in states:
            for index in range(model.dim):
                lower, upper = extremizer.coordinate_range(x, index)
                lower_s, upper_s = ref.coordinate_range(extremizer, x, index)
                assert lower == pytest.approx(lower_s, rel=1e-12, abs=1e-12)
                assert upper == pytest.approx(upper_s, rel=1e-12, abs=1e-12)

    def test_maximizer_is_admissible_and_dominates_samples(self, factory,
                                                            method):
        """Each row's ``theta*`` lies in ``Theta``, attains the returned
        value through the scalar drift, and no sampled parameter beats
        it: every catalog drift is affine in ``theta``, so the corners
        (which the grid also holds) reach the true supremum."""
        model = factory()
        rng = np.random.default_rng(8)
        states, directions = _random_batch(model, rng)
        extremizer = DriftExtremizer(model, method=method, grid_resolution=5)
        thetas, values = extremizer.maximize_direction_batch(states,
                                                             directions)
        samples = model.theta_set.sample(rng, 16)
        for x, p, theta, value in zip(states, directions, thetas, values):
            assert model.theta_set.contains(theta)
            assert float(p @ model.drift(x, theta)) == pytest.approx(
                value, rel=1e-9, abs=1e-12)
            best_sampled = max(float(p @ model.drift(x, th))
                               for th in samples)
            assert best_sampled <= value + 1e-9 * max(1.0, abs(value))


class TestModelBatchKernels:
    @pytest.mark.parametrize("factory", CATALOG_FACTORIES,
                             ids=lambda f: f.__name__)
    def test_affine_parts_batch_matches_scalar(self, factory):
        model = factory()
        rng = np.random.default_rng(3)
        states = rng.uniform(0.0, 1.0, size=(N_POINTS, model.dim))
        g0s, big_gs = model.affine_parts_batch(states)
        assert g0s.shape == (N_POINTS, model.dim)
        assert big_gs.shape == (N_POINTS, model.dim, model.theta_dim)
        for r, x in enumerate(states):
            g0, big_g = model.affine_parts(x)
            np.testing.assert_allclose(g0s[r], g0, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(big_gs[r], big_g, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("factory", CATALOG_FACTORIES,
                             ids=lambda f: f.__name__)
    def test_drift_batch_matches_scalar(self, factory):
        model = factory()
        rng = np.random.default_rng(5)
        states = rng.uniform(0.0, 1.0, size=(N_POINTS, model.dim))
        thetas = model.theta_set.sample(rng, N_POINTS)
        drifts = model.drift_batch(states, thetas)
        assert drifts.shape == (N_POINTS, model.dim)
        for r in range(N_POINTS):
            np.testing.assert_allclose(
                drifts[r], model.drift(states[r], thetas[r]),
                rtol=1e-12, atol=1e-12,
            )

    @pytest.mark.parametrize("factory", CATALOG_FACTORIES,
                             ids=lambda f: f.__name__)
    def test_jacobian_x_batch_matches_scalar(self, factory):
        model = factory()
        rng = np.random.default_rng(13)
        states = rng.uniform(0.0, 1.0, size=(N_POINTS, model.dim))
        thetas = model.theta_set.sample(rng, N_POINTS)
        jacs = model.jacobian_x_batch(states, thetas)
        assert jacs.shape == (N_POINTS, model.dim, model.dim)
        for r in range(N_POINTS):
            np.testing.assert_allclose(
                jacs[r], model.jacobian_x(states[r], thetas[r]),
                rtol=1e-12, atol=1e-12,
            )

    def test_jacobian_x_batch_row_mismatch_rejected(self):
        model = make_sir_model()
        states = np.full((3, model.dim), 0.4)
        thetas = model.theta_set.sample(np.random.default_rng(0), 2)
        with pytest.raises(ValueError, match="rows"):
            model.jacobian_x_batch(states, thetas)

    def test_affine_parts_batch_returns_declared_rows(self):
        tr = Transition("t", [1.0], lambda x, th: x[0] * th[0])
        model = PopulationModel(
            "plain", ("x",), [tr], Interval(0.0, 2.0),
            affine_drift_batch=lambda xs: (
                np.zeros((xs.shape[0], 1)), xs[:, :, None]
            ),
        )
        states = np.array([[0.25], [0.5], [2.0]])
        g0s, big_gs = model.affine_parts_batch(states)
        np.testing.assert_allclose(big_gs[:, 0, 0], states[:, 0])
        np.testing.assert_allclose(g0s, 0.0)

    def test_wrong_batch_declaration_rejected(self):
        tr = Transition("t", [1.0], lambda x, th: x[0] * th[0])
        model = PopulationModel(
            "broken", ("x",), [tr], Interval(0.0, 2.0),
            affine_drift_batch=lambda xs: (
                np.zeros((xs.shape[0], 1)),
                2.0 * xs[:, :, None],  # wrong by a factor of two
            ),
        )
        with pytest.raises(ValueError, match="disagrees"):
            model.affine_parts_batch(np.array([[0.5], [1.0]]))


class TestNonAffineAndDiscrete:
    def _quadratic_model(self):
        """Drift quadratic in theta: exercises the grid fallback."""
        tr = Transition("t", [1.0], lambda x, th: 1.0 - (th[0] - 0.3) ** 2)
        return PopulationModel("quad", ("x",), [tr], Interval(0.0, 1.0))

    def test_grid_strategy_batched_equals_scalar(self):
        model = self._quadratic_model()
        rng = np.random.default_rng(17)
        states = rng.uniform(0.0, 1.0, size=(6, 1))
        directions = rng.normal(size=(6, 1))
        batched = DriftExtremizer(model, method="grid", grid_resolution=4)
        thetas_b, values_b = batched.maximize_direction_batch(states, directions)
        thetas_s, values_s = ref.maximize_direction_rows(batched, states,
                                                         directions)
        np.testing.assert_allclose(values_b, values_s, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(thetas_b, thetas_s, rtol=1e-9, atol=1e-12)

    def test_discrete_theta_set_batched(self):
        tr = Transition("t", [1.0], lambda x, th: th[0])
        model = PopulationModel(
            "d", ("x",), [tr], DiscreteSet([[1.0], [3.0], [2.0]]),
            affine_drift_batch=lambda xs: (
                np.zeros((xs.shape[0], 1)), np.ones((xs.shape[0], 1, 1))
            ),
        )
        batched = DriftExtremizer(model)
        states = np.zeros((4, 1))
        directions = np.array([[1.0], [-1.0], [2.0], [-0.5]])
        thetas_b, values_b = batched.maximize_direction_batch(states, directions)
        thetas_s, values_s = ref.maximize_direction_rows(batched, states,
                                                         directions)
        np.testing.assert_array_equal(thetas_b, thetas_s)
        np.testing.assert_allclose(values_b, values_s, rtol=1e-12)
        lower_b, upper_b = batched.velocity_envelope_batch(states)
        lower_s, upper_s = ref.velocity_envelope(batched, states[0])
        np.testing.assert_allclose(lower_b[0], lower_s, rtol=1e-12)
        np.testing.assert_allclose(upper_b[0], upper_s, rtol=1e-12)


class RowByRowExtremizer(DriftExtremizer):
    """A drop-in extremizer whose batch entry point is the oracle.

    Consumers that take an ``extremizer=`` argument run through the
    one-query reference strategies, row by row.
    """

    def maximize_direction_batch(self, states, directions):
        states = np.atleast_2d(np.asarray(states, dtype=float))
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        return ref.maximize_direction_rows(self, states, directions)


class TestConsumersBatchedVsScalar:
    """The bound computations agree with the one-query reference oracles."""

    def test_hull_differential(self, sir_model):
        t_eval = np.linspace(0.0, 1.5, 7)
        batched = differential_hull_bounds(sir_model, [0.7, 0.3], t_eval)
        lower_s, upper_s = ref.hull_bounds(sir_model, [0.7, 0.3], t_eval)
        # Two integrators (the library's Dormand–Prince lane and scipy's
        # solve_ivp) at the hull's rtol = 1e-7: they agree to 1e-5.
        np.testing.assert_allclose(batched.lower, lower_s,
                                   rtol=1e-5, atol=1e-9)
        np.testing.assert_allclose(batched.upper, upper_s,
                                   rtol=1e-5, atol=1e-9)

    def test_hull_differential_four_dimensional(self, gps_map):
        from repro.models import gps_initial_state_map

        t_eval = np.linspace(0.0, 0.5, 4)
        x0 = gps_initial_state_map()
        batched = differential_hull_bounds(gps_map, x0, t_eval)
        lower_s, upper_s = ref.hull_bounds(gps_map, x0, t_eval)
        # Relative to the hull's scale: a bound near zero moves by the
        # integrators' absolute error.
        scale = 1e-5 * np.max(np.abs(upper_s))
        np.testing.assert_allclose(batched.lower, lower_s,
                                   rtol=1e-5, atol=scale)
        np.testing.assert_allclose(batched.upper, upper_s,
                                   rtol=1e-5, atol=scale)

    def test_pontryagin_differential(self, sir_model, sir_x0):
        batched = extremal_trajectory(sir_model, sir_x0, 2.0, [0.0, 1.0],
                                      n_steps=150)
        scalar = extremal_trajectory(sir_model, sir_x0, 2.0, [0.0, 1.0],
                                     n_steps=150,
                                     extremizer=RowByRowExtremizer(sir_model))
        assert batched.value == pytest.approx(scalar.value, rel=1e-10)
        np.testing.assert_allclose(batched.controls, scalar.controls,
                                   rtol=1e-9, atol=1e-12)

    def test_template_differential(self, sir_model, sir_x0):
        batched = template_reachable_bounds(sir_model, sir_x0, 1.0,
                                            n_steps=80)
        scalar = template_reachable_bounds(
            sir_model, sir_x0, 1.0, n_steps=80,
            extremizer=RowByRowExtremizer(sir_model),
        )
        np.testing.assert_allclose(batched.offsets, scalar.offsets,
                                   rtol=1e-9, atol=1e-12)
