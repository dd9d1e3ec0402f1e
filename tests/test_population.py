"""Unit tests for transition classes and population models."""

import numpy as np
import pytest

from repro.params import Interval, Singleton
from repro.population import (
    PopulationModel,
    Transition,
    check_affine_decomposition,
)
from repro.testing import numeric_jacobian


def two_state_model(theta_set=None):
    """Toy birth-death density model: 0 <-> 1 occupancy."""
    theta_set = theta_set or Interval(1.0, 2.0)
    up = Transition("up", [1.0], lambda x, th: th[0] * (1.0 - x[0]))
    down = Transition("down", [-1.0], lambda x, th: x[0])
    return PopulationModel(
        "toy", ("x",), [up, down], theta_set,
        affine_drift_batch=lambda xs: (-xs, (1.0 - xs)[:, :, None]),
        state_bounds=([0.0], [1.0]),
    )


class TestTransition:
    def test_attributes(self):
        tr = Transition("t", [-1, 1], lambda x, th: x[0])
        assert tr.dim == 2
        np.testing.assert_allclose(tr.change, [-1.0, 1.0])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Transition("", [1.0], lambda x, th: 1.0)

    def test_zero_change_rejected(self):
        with pytest.raises(ValueError):
            Transition("t", [0.0, 0.0], lambda x, th: 1.0)

    def test_matrix_change_rejected(self):
        with pytest.raises(ValueError):
            Transition("t", [[1.0], [0.0]], lambda x, th: 1.0)

    def test_noncallable_rate_rejected(self):
        with pytest.raises(TypeError):
            Transition("t", [1.0], 3.0)

    def test_rate_at_clamps_negative(self):
        tr = Transition("t", [1.0], lambda x, th: -0.5)
        assert tr.rate_at([0.0], [1.0]) == 0.0

    def test_rate_at_nan_raises(self):
        tr = Transition("t", [1.0], lambda x, th: float("nan"))
        with pytest.raises(ValueError):
            tr.rate_at([0.0], [1.0])

    def test_repr(self):
        assert "up" in repr(Transition("up", [1.0], lambda x, th: 1.0))


class TestPopulationModel:
    def test_basic_structure(self):
        model = two_state_model()
        assert model.dim == 1
        assert model.theta_dim == 1
        assert model.is_affine
        assert not model.is_precise
        assert model.state_index("x") == 0

    def test_precise_flag(self):
        model = two_state_model(theta_set=Singleton([1.5]))
        assert model.is_precise

    def test_drift_is_rate_weighted_changes(self):
        model = two_state_model()
        x, theta = np.array([0.25]), np.array([2.0])
        expected = 2.0 * 0.75 - 0.25
        assert model.drift(x, theta)[0] == pytest.approx(expected)

    def test_drift_fn_and_vector_field(self):
        model = two_state_model()
        f = model.drift_fn([1.0])
        g = model.vector_field([1.0])
        x = np.array([0.5])
        np.testing.assert_allclose(f(x), g(0.0, x))

    def test_transition_rates_vector(self):
        model = two_state_model()
        rates = model.transition_rates([0.25], [2.0])
        np.testing.assert_allclose(rates, [1.5, 0.25])

    def test_affine_parts_match_drift(self):
        model = two_state_model()
        assert check_affine_decomposition(model, np.array([0.3]))

    def test_affine_parts_without_declaration(self):
        up = Transition("up", [1.0], lambda x, th: th[0])
        model = PopulationModel("m", ("x",), [up], Interval(0.0, 1.0))
        assert not model.is_affine
        with pytest.raises(ValueError):
            model.affine_parts([0.0])

    def test_jacobian_analytic_vs_numeric(self):
        analytic = two_state_model()

        def jac(xs, thetas):
            return (-thetas[:, 0] - 1.0)[:, None, None]

        with_jac = PopulationModel(
            "m", ("x",), analytic.transitions, analytic.theta_set,
            drift_jacobian_batch=jac,
        )
        x, theta = np.array([0.3]), np.array([1.5])
        np.testing.assert_allclose(
            with_jac.jacobian_x(x, theta),
            numeric_jacobian(lambda y: analytic.drift(y, theta), x),
            atol=1e-6,
        )

    def test_jacobian_requires_a_declared_kernel(self):
        """No finite-difference fallback: a model without
        drift_jacobian_batch raises, naming itself."""
        model = two_state_model()
        assert not model.declares_drift_jacobian_batch
        for call in (lambda: model.jacobian_x([0.3], [1.5]),
                     lambda: model.jacobian_x_batch([[0.3], [0.6]], [1.5])):
            with pytest.raises(ValueError,
                               match="model 'toy' declares no "
                                     "drift_jacobian_batch"):
                call()

    def test_dimension_mismatch_rejected(self):
        up = Transition("up", [1.0, 0.0], lambda x, th: 1.0)
        with pytest.raises(ValueError):
            PopulationModel("m", ("x",), [up], Interval(0.0, 1.0))

    def test_empty_transitions_rejected(self):
        with pytest.raises(ValueError):
            PopulationModel("m", ("x",), [], Interval(0.0, 1.0))

    def test_bad_theta_set_rejected(self):
        up = Transition("up", [1.0], lambda x, th: 1.0)
        with pytest.raises(TypeError):
            PopulationModel("m", ("x",), [up], theta_set=(0.0, 1.0))

    def test_state_bounds_validation(self):
        up = Transition("up", [1.0], lambda x, th: 1.0)
        with pytest.raises(ValueError):
            PopulationModel(
                "m", ("x",), [up], Interval(0.0, 1.0),
                state_bounds=([1.0], [0.0]),
            )

    def test_clip_state(self):
        model = two_state_model()
        np.testing.assert_allclose(model.clip_state([1.5]), [1.0])
        np.testing.assert_allclose(model.clip_state([-0.5]), [0.0])

    def test_clip_without_bounds_is_identity(self):
        up = Transition("up", [1.0], lambda x, th: 1.0)
        model = PopulationModel("m", ("x",), [up], Interval(0.0, 1.0))
        np.testing.assert_allclose(model.clip_state([7.0]), [7.0])

    def test_conservations(self):
        up = Transition("flip", [1.0, -1.0], lambda x, th: x[1])
        model = PopulationModel(
            "m", ("a", "b"), [up], Interval(0.0, 1.0),
            conservations=[([1.0, 1.0], 1.0)],
        )
        assert model.check_conservations([0.4, 0.6])
        assert not model.check_conservations([0.4, 0.5])

    def test_observables(self):
        model = PopulationModel(
            "m", ("a", "b"),
            [Transition("flip", [1.0, -1.0], lambda x, th: x[1])],
            Interval(0.0, 1.0),
            observables={"total": [1.0, 1.0]},
        )
        assert model.observable("total", [0.25, 0.5]) == pytest.approx(0.75)
        with pytest.raises(KeyError):
            model.observable("missing", [0.0, 0.0])

    def test_observable_weights_validated(self):
        with pytest.raises(ValueError):
            PopulationModel(
                "m", ("a",),
                [Transition("up", [1.0], lambda x, th: 1.0)],
                Interval(0.0, 1.0),
                observables={"bad": [1.0, 2.0]},
            )

    def test_repr(self):
        assert "toy" in repr(two_state_model())

    def test_backend_kernels_are_the_batch_methods(self):
        model = two_state_model()
        kernels = model.backend_kernels()
        assert kernels.drift == model.drift_batch
        assert kernels.rates == model.transition_rates_batch
        assert kernels.affine == model.affine_parts_batch
        assert kernels.jacobian == model.jacobian_x_batch


class TestNumericJacobian:
    def test_linear_map(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        jac = numeric_jacobian(lambda x: a @ x, np.array([0.5, -0.5]))
        np.testing.assert_allclose(jac, a, atol=1e-6)

    def test_nonlinear(self):
        jac = numeric_jacobian(
            lambda x: np.array([x[0] ** 2, np.sin(x[1])]),
            np.array([2.0, 0.0]),
        )
        np.testing.assert_allclose(jac, [[4.0, 0.0], [0.0, 1.0]], atol=1e-6)


class TestCheckAffine:
    def test_wrong_decomposition_detected(self):
        up = Transition("up", [1.0], lambda x, th: th[0] ** 2)
        model = PopulationModel(
            "bad", ("x",), [up], Interval(0.5, 2.0),
            affine_drift_batch=lambda xs: (
                np.zeros((xs.shape[0], 1)), np.ones((xs.shape[0], 1, 1))
            ),
        )
        with pytest.raises(AssertionError):
            check_affine_decomposition(model, np.array([0.5]))

    def test_requires_declaration(self):
        up = Transition("up", [1.0], lambda x, th: th[0])
        model = PopulationModel("m", ("x",), [up], Interval(0.0, 1.0))
        with pytest.raises(ValueError):
            check_affine_decomposition(model, np.array([0.5]))


class TestFinitePopulation:
    def test_lattice_snapping(self):
        model = two_state_model()
        pop = model.instantiate(10, [0.33])
        assert pop.initial_counts[0] == 3
        assert pop.initial_density[0] == pytest.approx(0.3)

    def test_invalid_size(self):
        model = two_state_model()
        with pytest.raises(ValueError):
            model.instantiate(0, [0.5])
        # A fractional N is rejected, not truncated to int(N).
        with pytest.raises(TypeError):
            model.instantiate(2.5, [0.5])

    def test_invalid_initial_shape(self):
        model = two_state_model()
        with pytest.raises(ValueError):
            model.instantiate(10, [0.5, 0.5])

    def test_negative_initial_rejected(self):
        model = two_state_model()
        with pytest.raises(ValueError):
            model.instantiate(10, [-0.2])

    def test_aggregate_rates_scale_with_n(self):
        model = two_state_model()
        pop10 = model.instantiate(10, [0.5])
        pop100 = model.instantiate(100, [0.5])
        r10 = pop10.aggregate_rates(pop10.initial_counts, [1.0])
        r100 = pop100.aggregate_rates(pop100.initial_counts, [1.0])
        np.testing.assert_allclose(10.0 * r10, r100)

    def test_boundary_events_disabled(self):
        model = two_state_model()
        pop = model.instantiate(10, [1.0])
        rates = pop.aggregate_rates(pop.initial_counts, [2.0])
        assert rates[0] == 0.0  # "up" would leave the lattice
        assert rates[1] > 0.0

    def test_repr(self):
        model = two_state_model()
        assert "N=10" in repr(model.instantiate(10, [0.5]))
