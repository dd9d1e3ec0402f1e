"""Tests for the uncertain parameter sweep (repro.bounds.sweep)."""

import numpy as np
import pytest

import reference_impls as ref
from repro.bounds import uncertain_envelope


class TestUncertainEnvelope:
    def test_basic_structure(self, sir_model):
        t = np.linspace(0, 2, 11)
        env = uncertain_envelope(sir_model, [0.7, 0.3], t, resolution=5)
        assert set(env.observable_names) == {"S", "I"}
        assert env.lower["I"].shape == (11,)
        assert env.thetas.shape[1] == 1

    def test_envelope_ordering(self, sir_model):
        env = uncertain_envelope(sir_model, [0.7, 0.3],
                                 np.linspace(0, 3, 13), resolution=7)
        for name in env.observable_names:
            assert np.all(env.lower[name] <= env.upper[name] + 1e-12)

    def test_initial_time_bounds_collapse(self, sir_model):
        env = uncertain_envelope(sir_model, [0.7, 0.3],
                                 np.linspace(0, 1, 5), resolution=5)
        assert env.lower["I"][0] == pytest.approx(0.3)
        assert env.upper["I"][0] == pytest.approx(0.3)

    def test_adaptive_repeated_time(self, sir_model):
        # A repeated time reads its time's sample, as on the rk4 grid
        # (the adaptive lanes used to reject it as not strictly monotone).
        env = uncertain_envelope(sir_model, [0.7, 0.3], [0.0, 1.0, 1.0, 2.0],
                                 resolution=5)
        want = uncertain_envelope(sir_model, [0.7, 0.3], [0.0, 1.0, 2.0],
                                  resolution=5)
        pick = [0, 1, 1, 2]
        np.testing.assert_array_equal(env.times, [0.0, 1.0, 1.0, 2.0])
        for name in want.observable_names:
            for side in ("lower", "upper", "argmin_theta", "argmax_theta"):
                np.testing.assert_array_equal(getattr(env, side)[name],
                                              getattr(want, side)[name][pick])

    def test_envelope_contains_interior_theta_solution(self, sir_model):
        # scipy's solve_ivp, not the Dormand–Prince lanes under test.
        t = np.linspace(0, 3, 16)
        env = uncertain_envelope(sir_model, [0.7, 0.3], t, resolution=31)
        traj = ref.solve_ode(sir_model.vector_field([4.321]), [0.7, 0.3],
                             (0, 3), t_eval=t)
        assert np.all(env.lower["I"] - 1e-4 <= traj.states[:, 1])
        assert np.all(traj.states[:, 1] <= env.upper["I"] + 1e-4)

    def test_argmax_theta_recorded(self, sir_model):
        env = uncertain_envelope(sir_model, [0.7, 0.3],
                                 np.linspace(0, 1, 5), resolution=5)
        assert env.argmax_theta["I"].shape == (5, 1)
        for theta in env.argmax_theta["I"]:
            assert sir_model.theta_set.contains(theta)

    def test_monotone_resolution_widens_envelope(self, sir_model):
        t = np.linspace(0, 3, 7)
        coarse = uncertain_envelope(sir_model, [0.7, 0.3], t, resolution=3)
        fine = uncertain_envelope(sir_model, [0.7, 0.3], t, resolution=21)
        assert np.all(fine.upper["I"] >= coarse.upper["I"] - 1e-9)
        assert np.all(fine.lower["I"] <= coarse.lower["I"] + 1e-9)

    def test_named_state_observables(self, gps_poisson):
        from repro.models import gps_initial_state_poisson

        env = uncertain_envelope(
            gps_poisson, gps_initial_state_poisson(),
            np.linspace(0, 1, 5), resolution=3, observables=["Q1", "q1"],
        )
        # "Q1" is the declared observable (rescaled), "q1" a raw coordinate.
        np.testing.assert_allclose(env.upper["Q1"], 2.0 * env.upper["q1"])

    def test_custom_weight_observable(self, sir_model):
        env = uncertain_envelope(
            sir_model, [0.7, 0.3], np.linspace(0, 1, 5), resolution=3,
            observables=[("S_plus_I", [1.0, 1.0])],
        )
        assert "S_plus_I" in env.lower

    def test_unknown_observable_rejected(self, sir_model):
        with pytest.raises(KeyError):
            uncertain_envelope(sir_model, [0.7, 0.3], np.linspace(0, 1, 3),
                               observables=["XYZ"])

    def test_invalid_resolution_rejected(self, sir_model):
        with pytest.raises(ValueError):
            uncertain_envelope(sir_model, [0.7, 0.3], np.linspace(0, 1, 3),
                               resolution=1)

    def test_width_and_final_bounds_helpers(self, sir_model):
        env = uncertain_envelope(sir_model, [0.7, 0.3],
                                 np.linspace(0, 2, 9), resolution=5)
        width = env.width("I")
        assert np.all(width >= -1e-12)
        lo, hi = env.final_bounds("I")
        assert lo <= hi

    def test_two_parameter_model(self, gps_poisson):
        from repro.models import gps_initial_state_poisson

        env = uncertain_envelope(
            gps_poisson, gps_initial_state_poisson(),
            np.linspace(0, 2, 5), resolution=4,
        )
        # grid 4x4 + 4 corners (deduplicated to 16).
        assert env.thetas.shape == (16, 2)


class TestRk4Batching:
    def test_batch_matches_scalar_bitwise(self, sir_model):
        t = np.linspace(0, 2, 9)
        kwargs = dict(resolution=5, integrator="rk4", rk4_steps=80)
        batched = uncertain_envelope(sir_model, [0.7, 0.3], t, **kwargs)
        scalar = ref.uncertain_envelope(sir_model, [0.7, 0.3], t, **kwargs)
        for name in batched.observable_names:
            np.testing.assert_array_equal(batched.lower[name],
                                          scalar.lower[name])
            np.testing.assert_array_equal(batched.upper[name],
                                          scalar.upper[name])

    def test_descending_grid_starts_from_x0(self, sir_model):
        """Regression: ``np.union1d`` re-sorted the RK4 grid ascending,
        so a descending ``t_eval`` integrated from the wrong end; the
        envelope must collapse to x0 at ``t_eval[0]``, exactly like the
        adaptive integrator's backward solve."""
        t = np.array([2.0, 1.0, 0.0])
        env = uncertain_envelope(sir_model, [0.7, 0.3], t, resolution=3,
                                 integrator="rk4", rk4_steps=300)
        assert env.lower["I"][0] == pytest.approx(0.3)
        assert env.upper["I"][0] == pytest.approx(0.3)
        adaptive = uncertain_envelope(sir_model, [0.7, 0.3], t, resolution=3)
        np.testing.assert_allclose(env.lower["I"], adaptive.lower["I"],
                                   atol=1e-6)
        np.testing.assert_allclose(env.upper["I"], adaptive.upper["I"],
                                   atol=1e-6)

    def test_descending_batch_matches_scalar(self, sir_model):
        t = np.array([1.5, 0.75, 0.0])
        kwargs = dict(resolution=3, integrator="rk4", rk4_steps=60)
        batched = uncertain_envelope(sir_model, [0.7, 0.3], t, **kwargs)
        scalar = ref.uncertain_envelope(sir_model, [0.7, 0.3], t, **kwargs)
        np.testing.assert_array_equal(batched.lower["I"], scalar.lower["I"])
        np.testing.assert_array_equal(batched.upper["I"], scalar.upper["I"])

    def test_degenerate_horizon_still_collapses(self, sir_model):
        env = uncertain_envelope(sir_model, [0.7, 0.3], np.array([1.0, 1.0]),
                                 resolution=3, integrator="rk4")
        np.testing.assert_allclose(env.lower["I"], 0.3)
        np.testing.assert_allclose(env.upper["I"], 0.3)
