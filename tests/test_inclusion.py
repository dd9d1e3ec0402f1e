"""Tests for the parametric differential inclusion (repro.inclusion)."""

import numpy as np
import pytest

from repro.inclusion import ParametricInclusion
from repro.ode import solve_ode


@pytest.fixture
def sir_inclusion(sir_model):
    return ParametricInclusion(sir_model)


class TestWitnessSolutions:
    def test_solve_feedback_projects_theta(self, sir_inclusion):
        # Selector returns inadmissible values; solver must project.
        traj = sir_inclusion.solve_feedback(
            lambda t, x: [100.0], [0.7, 0.3], (0.0, 1.0)
        )
        assert np.isfinite(traj.states).all()

    def test_feedback_matches_constant_for_constant_selector(
        self, sir_inclusion, sir_model
    ):
        a = sir_inclusion.solve_feedback(lambda t, x: [5.0], [0.7, 0.3], (0, 2))
        b = solve_ode(sir_model.vector_field([5.0]), [0.7, 0.3], (0, 2))
        np.testing.assert_allclose(a.final_state, b.final_state, atol=1e-5)

    def test_extreme_velocity_solution_upper_bounds_constant(
        self, sir_inclusion, sir_model
    ):
        greedy = sir_inclusion.extreme_velocity_solution(
            [0.0, 1.0], [0.7, 0.3], (0.0, 1.0)
        )
        const = solve_ode(sir_model.vector_field([10.0]), [0.7, 0.3], (0, 1))
        # Greedy maximising I pointwise dominates any constant at small t.
        assert greedy(0.2)[1] >= const(0.2)[1] - 1e-6
