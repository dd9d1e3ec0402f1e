"""Tests of the concrete paper models (repro.models)."""

import numpy as np
import pytest

from repro.models import (
    GPS_PAPER_PARAMS,
    SIR_PAPER_PARAMS,
    gps_initial_state_map,
    gps_initial_state_poisson,
    make_gps_map_model,
    make_gps_poisson_model,
    make_seir_model,
    make_sir_model,
    poisson_rate_from_map,
)
from repro.models.sir import sir_recovered
from repro.population import check_affine_decomposition
from repro.testing import numeric_jacobian


class TestSIRReduced:
    def test_paper_drift_equation_11(self, sir_model):
        # f_S = c - (a+c) S - c I - theta S I ; f_I = a S + theta S I - b I
        a, b, c = 0.1, 5.0, 1.0
        s, i, th = 0.6, 0.2, 4.0
        drift = sir_model.drift([s, i], [th])
        assert drift[0] == pytest.approx(c - (a + c) * s - c * i - th * s * i)
        assert drift[1] == pytest.approx(a * s + th * s * i - b * i)

    def test_affine_decomposition(self, sir_model, rng):
        for _ in range(5):
            x = rng.uniform(0, 1, size=2)
            assert check_affine_decomposition(sir_model, x, rng=rng)

    def test_jacobian_matches_numeric(self, sir_model, rng):
        for _ in range(5):
            x = rng.uniform(0.05, 0.9, size=2)
            theta = sir_model.theta_set.sample(rng, 1)[0]
            analytic = sir_model.jacobian_x(x, theta)
            numeric = numeric_jacobian(lambda y: sir_model.drift(y, theta), x)
            np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_theta_interval_matches_paper(self, sir_model):
        assert sir_model.theta_set.contains([SIR_PAPER_PARAMS["theta_min"]])
        assert sir_model.theta_set.contains([SIR_PAPER_PARAMS["theta_max"]])
        assert not sir_model.theta_set.contains([0.5])

    def test_observables(self, sir_model):
        assert sir_model.observable("S", [0.7, 0.3]) == pytest.approx(0.7)
        assert sir_model.observable("I", [0.7, 0.3]) == pytest.approx(0.3)

    def test_recovered_helper(self):
        assert sir_recovered([0.7, 0.3]) == pytest.approx(0.0)
        assert sir_recovered([0.5, 0.2]) == pytest.approx(0.3)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            make_sir_model(a=-0.1)

    def test_infection_monotone_in_theta(self, sir_model):
        lo = sir_model.drift([0.5, 0.2], [1.0])[1]
        hi = sir_model.drift([0.5, 0.2], [10.0])[1]
        assert hi > lo


class TestSIRFull:
    def test_conservation_declared_and_preserved(self, sir_full):
        x = np.array([0.7, 0.3, 0.0])
        assert sir_full.check_conservations(x)
        # drift sums to zero -> simplex preserved
        for th in (1.0, 5.0, 10.0):
            assert sir_full.drift(x, [th]).sum() == pytest.approx(0.0, abs=1e-12)

    def test_projection_matches_reduced(self, sir_model, sir_full, rng):
        for _ in range(5):
            s, i = rng.uniform(0.05, 0.45, size=2)
            theta = sir_full.theta_set.sample(rng, 1)[0]
            full = sir_full.drift([s, i, 1.0 - s - i], theta)
            reduced = sir_model.drift([s, i], theta)
            np.testing.assert_allclose(full[:2], reduced, atol=1e-12)

    def test_affine_decomposition(self, sir_full, rng):
        x = np.array([0.5, 0.3, 0.2])
        assert check_affine_decomposition(sir_full, x, rng=rng)

    def test_jacobian_matches_numeric(self, sir_full, rng):
        x = np.array([0.5, 0.3, 0.2])
        theta = np.array([3.0])
        np.testing.assert_allclose(
            sir_full.jacobian_x(x, theta),
            numeric_jacobian(lambda y: sir_full.drift(y, theta), x),
            atol=1e-5,
        )


class TestGPSPoisson:
    def test_paper_lambda_bounds_derived_from_map(self, gps_poisson):
        # lambda'_i = 1/(1/a_i + 1/lambda_i) with the paper's parameters.
        lo1 = poisson_rate_from_map(1.0, 1.0)
        hi1 = poisson_rate_from_map(1.0, 7.0)
        lo2 = poisson_rate_from_map(2.0, 2.0)
        hi2 = poisson_rate_from_map(2.0, 3.0)
        np.testing.assert_allclose(gps_poisson.theta_set.lowers, [lo1, lo2])
        np.testing.assert_allclose(gps_poisson.theta_set.uppers, [hi1, hi2])

    def test_poisson_rate_formula(self):
        assert poisson_rate_from_map(1.0, 1.0) == pytest.approx(0.5)
        assert poisson_rate_from_map(2.0, 2.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            poisson_rate_from_map(0.0, 1.0)

    def test_drift_structure(self, gps_poisson):
        x = gps_initial_state_poisson()  # (0.05, 0.05)
        lam = np.array([0.7, 1.1])
        drift = gps_poisson.drift(x, lam)
        # creation - GPS service, per class (n_i = 0.5, c = 0.5):
        den = 0.05 + 0.05
        expected0 = 0.7 * (0.5 - 0.05) - 0.5 * 5.0 * 0.05 / den
        expected1 = 1.1 * (0.5 - 0.05) - 0.5 * 1.0 * 0.05 / den
        assert drift[0] == pytest.approx(expected0)
        assert drift[1] == pytest.approx(expected1)

    def test_empty_system_no_service(self, gps_poisson):
        drift = gps_poisson.drift([0.0, 0.0], [0.7, 1.1])
        # Only creation remains, positive in both classes.
        assert drift[0] > 0 and drift[1] > 0

    def test_affine_decomposition(self, gps_poisson, rng):
        for x in ([0.05, 0.05], [0.3, 0.1], [0.0, 0.2]):
            assert check_affine_decomposition(gps_poisson, np.array(x), rng=rng)

    def test_jacobian_matches_numeric(self, gps_poisson, rng):
        x = np.array([0.12, 0.3])
        theta = np.array([0.7, 1.1])
        np.testing.assert_allclose(
            gps_poisson.jacobian_x(x, theta),
            numeric_jacobian(lambda y: gps_poisson.drift(y, theta), x),
            atol=1e-5,
        )

    def test_observables_rescale_by_class_fraction(self, gps_poisson):
        assert gps_poisson.observable("Q1", [0.05, 0.2]) == pytest.approx(0.1)
        assert gps_poisson.observable("Q2", [0.05, 0.2]) == pytest.approx(0.4)
        assert gps_poisson.observable("Qtotal", [0.05, 0.2]) == pytest.approx(0.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_gps_poisson_model(mu=(0.0, 1.0))
        with pytest.raises(ValueError):
            make_gps_poisson_model(fractions=(0.3, 0.3))
        with pytest.raises(ValueError):
            make_gps_poisson_model(capacity=0.0)

    def test_initial_state_helper(self):
        np.testing.assert_allclose(gps_initial_state_poisson(), [0.05, 0.05])
        np.testing.assert_allclose(
            gps_initial_state_poisson((0.2, 0.4), (0.25, 0.75)), [0.05, 0.3]
        )


class TestGPSMap:
    def test_paper_parameters(self, gps_map):
        np.testing.assert_allclose(gps_map.theta_set.lowers, [1.0, 2.0])
        np.testing.assert_allclose(gps_map.theta_set.uppers, [7.0, 3.0])

    def test_state_is_four_dimensional(self, gps_map):
        assert gps_map.dim == 4
        assert gps_map.state_names == ("q1", "e1", "q2", "e2")

    def test_affine_decomposition(self, gps_map, rng):
        for x in ([0.05, 0.0, 0.05, 0.0], [0.1, 0.1, 0.2, 0.05]):
            assert check_affine_decomposition(gps_map, np.array(x), rng=rng)

    def test_jacobian_matches_numeric(self, gps_map):
        x = np.array([0.08, 0.05, 0.12, 0.1])
        theta = np.array([3.0, 2.5])
        np.testing.assert_allclose(
            gps_map.jacobian_x(x, theta),
            numeric_jacobian(lambda y: gps_map.drift(y, theta), x),
            atol=1e-5,
        )

    def test_mass_conserved_per_class(self, gps_map):
        # q_i + e_i + active_i = n_i: drift of (q_i + e_i) = -d active_i.
        x = np.array([0.1, 0.05, 0.15, 0.1])
        drift = gps_map.drift(x, [3.0, 2.5])
        # Class totals stay within [0, n_i]: send+service+activate cancel.
        # The net flow out of (q1, e1) equals the activation flow.
        assert drift[0] + drift[1] == pytest.approx(
            3.0 * (0.5 - 0.1 - 0.05) - 1.0 * 0.05
        )

    def test_initial_state_helper(self):
        np.testing.assert_allclose(
            gps_initial_state_map(), [0.05, 0.0, 0.05, 0.0]
        )

    def test_invalid_activation_rejected(self):
        with pytest.raises(ValueError):
            make_gps_map_model(activation=(0.0, 1.0))


class TestBike:
    def test_interior_drift(self, bike_model):
        drift = bike_model.drift([0.5], [1.0, 1.2])
        assert drift[0] == pytest.approx(0.2)

    def test_boundary_rates_vanish(self, bike_model):
        assert bike_model.transitions[0].rate_at([0.0], [1.0, 1.0]) == 0.0
        assert bike_model.transitions[1].rate_at([1.0], [1.0, 1.0]) == 0.0

    def test_affine_in_interior(self, bike_model, rng):
        assert check_affine_decomposition(bike_model, np.array([0.5]), rng=rng)

    def test_theta_box(self, bike_model):
        assert bike_model.theta_set.dim == 2
        assert bike_model.theta_set.names == ("theta_a", "theta_r")


class TestSEIR:
    def test_simplex_preserved(self, seir_model):
        x = np.array([0.6, 0.1, 0.1])
        drift = seir_model.drift(x, [4.0])
        # S+E+I+R conserved: d(S+E+I) = -dR = -(bI - c R)
        r = 1.0 - x.sum()
        assert drift.sum() == pytest.approx(-(5.0 * x[2] - 1.0 * r))

    def test_affine_decomposition(self, seir_model, rng):
        assert check_affine_decomposition(
            seir_model, np.array([0.6, 0.1, 0.1]), rng=rng
        )

    def test_jacobian_matches_numeric(self, seir_model):
        x = np.array([0.5, 0.2, 0.1])
        theta = np.array([3.0])
        np.testing.assert_allclose(
            seir_model.jacobian_x(x, theta),
            numeric_jacobian(lambda y: seir_model.drift(y, theta), x),
            atol=1e-5,
        )

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            make_seir_model(sigma=-1.0)

    def test_incubation_delays_infection(self, seir_model, sir_model):
        # At the same state, SEIR routes new infections through E: the
        # instantaneous growth of I comes only from sigma * E.
        drift = seir_model.drift([0.7, 0.0, 0.3], [5.0])
        assert drift[2] == pytest.approx(-5.0 * 0.3)

    def test_paper_params_table(self):
        assert SIR_PAPER_PARAMS["a"] == 0.1
        assert SIR_PAPER_PARAMS["b"] == 5.0
        assert SIR_PAPER_PARAMS["c"] == 1.0
        assert GPS_PAPER_PARAMS["mu"] == (5.0, 1.0)
        assert GPS_PAPER_PARAMS["activation"] == (1.0, 2.0)
