"""Tests for the differential hull (repro.bounds.hull)."""

import numpy as np
import pytest

from repro.bounds import differential_hull_bounds, uncertain_envelope
from repro.models import make_sir_model


class TestHullSoundness:
    def test_hull_contains_uncertain_envelope(self, sir_narrow):
        """The hull must enclose every constant-parameter solution."""
        t = np.linspace(0, 5, 21)
        hull = differential_hull_bounds(sir_narrow, [0.7, 0.3], t)
        env = uncertain_envelope(sir_narrow, [0.7, 0.3], t, resolution=9)
        assert np.all(hull.lower[:, 1] <= env.lower["I"] + 1e-6)
        assert np.all(hull.upper[:, 1] >= env.upper["I"] - 1e-6)
        assert np.all(hull.lower[:, 0] <= env.lower["S"] + 1e-6)
        assert np.all(hull.upper[:, 0] >= env.upper["S"] - 1e-6)

    def test_hull_contains_feedback_solutions(self, sir_narrow):
        """Time-varying selections also stay inside the hull."""
        from repro.inclusion import ParametricInclusion

        inc = ParametricInclusion(sir_narrow)
        t = np.linspace(0, 4, 17)
        hull = differential_hull_bounds(sir_narrow, [0.7, 0.3], t)
        selector = lambda s, x: [1.0 + (np.sin(7 * s) + 1.0) / 2.0]  # noqa: E731
        traj = inc.solve_feedback(selector, [0.7, 0.3], (0, 4))
        for k, tk in enumerate(t):
            state = traj(tk)
            assert np.all(hull.lower[k] - 1e-5 <= state)
            assert np.all(state <= hull.upper[k] + 1e-5)

    def test_initial_rectangle_degenerate(self, sir_narrow):
        hull = differential_hull_bounds(sir_narrow, [0.7, 0.3],
                                        np.linspace(0, 1, 5))
        np.testing.assert_allclose(hull.lower[0], [0.7, 0.3])
        np.testing.assert_allclose(hull.upper[0], [0.7, 0.3])

    def test_order_preserved(self, sir_narrow):
        hull = differential_hull_bounds(sir_narrow, [0.7, 0.3],
                                        np.linspace(0, 8, 33))
        assert np.all(hull.lower <= hull.upper + 1e-9)


class TestHullLooseness:
    """The paper's Figure 4: the hull degrades as theta_max grows."""

    def test_width_grows_with_theta_range(self):
        t = np.linspace(0, 10, 41)
        widths = []
        for theta_max in (2.0, 5.0):
            model = make_sir_model(theta_max=theta_max)
            hull = differential_hull_bounds(model, [0.7, 0.3], t)
            widths.append(float(hull.width(1)[-1]))
        assert widths[1] > 3.0 * widths[0]

    def test_trivial_for_theta_max_6(self):
        # Paper: "for theta_max = 6 the approximation is trivial for t >= 4".
        model = make_sir_model(theta_max=6.0)
        hull = differential_hull_bounds(model, [0.7, 0.3],
                                        np.linspace(0, 10, 41))
        assert hull.is_trivial(1)

    def test_blowup_padding_with_inf(self):
        model = make_sir_model(theta_max=10.0)
        hull = differential_hull_bounds(model, [0.7, 0.3],
                                        np.linspace(0, 10, 41),
                                        blowup_threshold=5.0)
        assert np.isinf(hull.upper[-1]).any()
        assert np.isneginf(hull.lower[-1]).any()
        # Early samples are still finite.
        assert np.isfinite(hull.upper[0]).all()


class TestHullHelpers:
    def test_width_helper(self, sir_narrow):
        hull = differential_hull_bounds(sir_narrow, [0.7, 0.3],
                                        np.linspace(0, 2, 9))
        assert np.all(hull.width(0) >= -1e-12)

    def test_gps_four_dimensional_hull(self, gps_map):
        from repro.models import gps_initial_state_map

        hull = differential_hull_bounds(
            gps_map, gps_initial_state_map(), np.linspace(0, 2, 9),
        )
        assert hull.lower.shape == (9, 4)
        assert np.all(hull.lower <= hull.upper + 1e-9)


class TestTimeGridValidation:
    """A hull grid must be 1-D, at least 2 finite and strictly increasing
    times; anything else raises ``ValueError`` naming ``t_eval``."""

    @pytest.mark.parametrize("t_eval", [
        [1.0],
        [0.0, np.inf],
        [0.0, np.nan],
        [0.0, 1.0, 1.0],
        [1.0, 0.0],
        [[0.0, 1.0]],
    ], ids=["single-time", "inf", "nan", "repeated", "decreasing", "two-d"])
    def test_bad_grid_rejected(self, sir_narrow, t_eval):
        # A single time used to raise AttributeError, and an infinite or
        # NaN end time to hang inside the integrator or return a
        # rectangle of -inf / +inf.
        with pytest.raises(ValueError, match="t_eval"):
            differential_hull_bounds(sir_narrow, [0.7, 0.3], t_eval)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan],
                             ids=["zero", "negative", "nan"])
    def test_steady_rectangle_inherits_the_check(self, sir_narrow, horizon):
        from repro.steadystate import hull_steady_rectangle

        with pytest.raises(ValueError, match="t_eval"):
            hull_steady_rectangle(sir_narrow, [0.7, 0.3], horizon=horizon)
