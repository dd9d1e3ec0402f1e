"""Tests for the power-of-d-choices extension model."""

import numpy as np
import pytest

from repro.bounds import extremal_trajectory, uncertain_envelope
from repro.models import make_power_of_d_model
from repro.ode import solve_ode
from repro.population import check_affine_decomposition
from repro.testing import numeric_jacobian


@pytest.fixture(scope="module")
def pod2():
    return make_power_of_d_model(buffer_depth=6)


MONOTONE_STATE = np.array([0.8, 0.5, 0.3, 0.15, 0.05, 0.01])


class TestStructure:
    def test_dimensions(self, pod2):
        assert pod2.dim == 6
        assert pod2.theta_dim == 1
        assert len(pod2.transitions) == 12  # one arrival + service per level

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_power_of_d_model(buffer_depth=0)
        with pytest.raises(ValueError):
            make_power_of_d_model(choices=0)
        with pytest.raises(ValueError):
            make_power_of_d_model(mu=0.0)

    def test_affine_decomposition(self, pod2, rng):
        assert check_affine_decomposition(pod2, MONOTONE_STATE, rng=rng)

    def test_jacobian_matches_numeric(self, pod2):
        np.testing.assert_allclose(
            pod2.jacobian_x(MONOTONE_STATE, [0.8]),
            numeric_jacobian(lambda y: pod2.drift(y, [0.8]), MONOTONE_STATE),
            atol=1e-6,
        )

    def test_drift_formula(self, pod2):
        # dx_k = lam (x_{k-1}^2 - x_k^2) - mu (x_k - x_{k+1}).
        x = MONOTONE_STATE
        lam = 0.8
        drift = pod2.drift(x, [lam])
        x_pad = np.concatenate([[1.0], x, [0.0]])
        for k in range(1, 7):
            expected = lam * (x_pad[k - 1] ** 2 - x_pad[k] ** 2) - (
                x_pad[k] - x_pad[k + 1]
            )
            assert drift[k - 1] == pytest.approx(expected)


class TestDynamics:
    def test_fixed_point_matches_tail_law(self, pod2):
        """The supermarket model's double-exponential tail rho^(2^k - 1)."""
        rho = 0.9
        traj = solve_ode(pod2.vector_field([rho]), MONOTONE_STATE, (0, 80))
        tail = traj.final_state
        theory = np.array([rho ** (2**k - 1) for k in range(1, 7)])
        # Truncation distorts only the deepest levels.
        np.testing.assert_allclose(tail[:4], theory[:4], atol=5e-3)

    def test_random_routing_matches_mm1_tail(self):
        """d = 1 gives the M/M/1 geometric tail rho^k."""
        model = make_power_of_d_model(buffer_depth=8, choices=1,
                                      arrival_bounds=(0.5, 0.7))
        x0 = np.full(8, 0.1)
        traj = solve_ode(model.vector_field([0.6]), x0, (0, 200))
        theory = np.array([0.6**k for k in range(1, 9)])
        np.testing.assert_allclose(traj.final_state[:5], theory[:5], atol=1e-2)

    def test_tail_monotone_along_trajectory(self, pod2):
        traj = solve_ode(pod2.vector_field([0.9]), MONOTONE_STATE, (0, 20),
                         t_eval=np.linspace(0, 20, 21))
        for state in traj.states:
            assert np.all(np.diff(state) <= 1e-9)
            assert np.all(state >= -1e-9)
            assert np.all(state <= 1.0 + 1e-9)

    def test_power_of_two_beats_random_routing(self):
        """The classical result: d = 2 yields much shorter queues."""
        # Depth 10 so the geometric M/M/1 tail is not truncated away.
        x0 = np.full(10, 0.1)
        pod2 = make_power_of_d_model(buffer_depth=10, choices=2,
                                     arrival_bounds=(0.5, 0.9))
        pod1 = make_power_of_d_model(buffer_depth=10, choices=1,
                                     arrival_bounds=(0.5, 0.9))
        t2 = solve_ode(pod2.vector_field([0.9]), x0, (0, 100))
        t1 = solve_ode(pod1.vector_field([0.9]), x0, (0, 100))
        q2 = t2.final_state.sum()  # mean queue length
        q1 = t1.final_state.sum()
        # Truncation at depth 10 clips the geometric d = 1 tail (lost
        # arrivals at full buffers), so the classical exponential-vs-
        # double-exponential gap shows as a ~40% reduction here.
        assert q2 < 0.65 * q1


class TestImpreciseBounds:
    def test_imprecise_contains_uncertain(self, pod2):
        x0 = np.full(6, 0.1)
        horizon = 3.0
        weights = pod2.observables["mean_queue_length"]
        res = extremal_trajectory(pod2, x0, horizon, weights, n_steps=150)
        env = uncertain_envelope(pod2, x0, np.array([0.0, horizon]),
                                 resolution=9,
                                 observables=["mean_queue_length"])
        assert res.value >= env.upper["mean_queue_length"][-1] - 1e-6

    def test_busy_fraction_bounded_by_one(self, pod2):
        x0 = np.full(6, 0.1)
        res = extremal_trajectory(pod2, x0, 5.0,
                                  pod2.observables["busy_fraction"],
                                  n_steps=150)
        assert res.value <= 1.0 + 1e-6
