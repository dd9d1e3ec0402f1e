"""Tests for the Pontryagin forward–backward sweep (repro.bounds.pontryagin)."""

import numpy as np
import pytest

import reference_impls as ref
from repro.bounds import (
    box_directions,
    extremal_trajectories_batch,
    extremal_trajectory,
    pontryagin,
    pontryagin_transient_bounds,
    switching_function,
    switching_times_from_costate,
    uncertain_envelope,
)
from repro.params import Interval
from repro.population import PopulationModel, Transition


def linear_control_model():
    """x' = theta with theta in [-1, 1]: analytic optimum x(T) = T."""
    tr = Transition("move", [1.0], lambda x, th: th[0])
    return PopulationModel(
        "linear", ("x",), [tr], Interval(-1.0, 1.0),
        affine_drift_batch=lambda xs: (
            np.zeros((xs.shape[0], 1)), np.ones((xs.shape[0], 1, 1))
        ),
        drift_jacobian_batch=lambda xs, ths: np.zeros((xs.shape[0], 1, 1)),
    )


def double_integrator_model():
    """x1' = x2, x2' = theta, theta in [-1, 1]."""
    move = Transition("vel", [1.0, 0.0], lambda x, th: x[1])
    acc = Transition("acc", [0.0, 1.0], lambda x, th: th[0])
    return PopulationModel(
        "double_integrator", ("pos", "vel"), [move, acc],
        Interval(-1.0, 1.0),
        affine_drift_batch=lambda xs: (
            np.stack([xs[:, 1], np.zeros(xs.shape[0])], axis=1),
            np.tile([[0.0], [1.0]], (xs.shape[0], 1, 1)),
        ),
        drift_jacobian_batch=lambda xs, ths: np.tile(
            [[0.0, 1.0], [0.0, 0.0]], (xs.shape[0], 1, 1)
        ),
    )


class TestAnalyticOptima:
    def test_linear_max(self):
        model = linear_control_model()
        res = extremal_trajectory(model, [0.0], 2.0, [1.0], n_steps=100)
        assert res.value == pytest.approx(2.0, abs=1e-6)
        assert res.converged
        np.testing.assert_allclose(res.controls[:, 0], 1.0)

    def test_linear_min(self):
        model = linear_control_model()
        res = extremal_trajectory(model, [0.0], 2.0, [1.0], maximize=False,
                                  n_steps=100)
        assert res.value == pytest.approx(-2.0, abs=1e-6)

    def test_double_integrator_max_position(self):
        # max x1(T) with x1' = x2, x2' = u: full throttle, x1(T) = T^2/2.
        model = double_integrator_model()
        res = extremal_trajectory(model, [0.0, 0.0], 2.0, [1.0, 0.0],
                                  n_steps=200)
        assert res.value == pytest.approx(2.0, abs=1e-5)
        assert res.converged

    def test_costate_terminal_condition(self):
        model = double_integrator_model()
        res = extremal_trajectory(model, [0.0, 0.0], 1.0, [1.0, 0.0],
                                  n_steps=100)
        np.testing.assert_allclose(res.costates[-1], [1.0, 0.0], atol=1e-12)

    def test_costate_dynamics_double_integrator(self):
        # p1' = 0, p2' = -p1 -> p1 = 1, p2(t) = T - t.
        model = double_integrator_model()
        horizon = 1.0
        res = extremal_trajectory(model, [0.0, 0.0], horizon, [1.0, 0.0],
                                  n_steps=100)
        np.testing.assert_allclose(res.costates[:, 0], 1.0, atol=1e-9)
        np.testing.assert_allclose(
            res.costates[:, 1], horizon - res.times, atol=1e-9
        )


class TestSIRPaperValues:
    """Figure 2 of the paper: bang-bang extremals of the SIR model."""

    @pytest.mark.slow
    def test_max_infected_at_3_is_bang_bang(self, sir_model, sir_x0):
        res = extremal_trajectory(sir_model, sir_x0, 3.0, [0.0, 1.0],
                                  n_steps=300)
        assert res.converged
        switches = switching_times_from_costate(res, sir_model)
        # Paper: theta_min for t < ~2.25 then theta_max.
        assert len(switches) == 1
        assert 2.0 < switches[0] < 2.5
        assert res.controls[0, 0] == pytest.approx(1.0)
        assert res.controls[-1, 0] == pytest.approx(10.0)
        # Value ~0.17 (paper figure peaks slightly below 0.2).
        assert 0.15 < res.value < 0.20

    @pytest.mark.slow
    def test_min_infected_at_3_two_switches(self, sir_model, sir_x0):
        res = extremal_trajectory(sir_model, sir_x0, 3.0, [0.0, 1.0],
                                  maximize=False, n_steps=300)
        switches = switching_times_from_costate(res, sir_model)
        # Paper: theta_min until ~0.7, theta_max until ~2.2, theta_min after.
        assert len(switches) == 2
        assert 0.4 < switches[0] < 1.0
        assert 1.8 < switches[1] < 2.4
        assert res.value < 0.03

    def test_imprecise_dominates_uncertain(self, sir_model, sir_x0):
        # Eq. 12: the uncertain envelope is inside the imprecise bounds.
        horizon = 2.0
        res_max = extremal_trajectory(sir_model, sir_x0, horizon, [0.0, 1.0],
                                      n_steps=150)
        res_min = extremal_trajectory(sir_model, sir_x0, horizon, [0.0, 1.0],
                                      maximize=False, n_steps=150)
        env = uncertain_envelope(sir_model, sir_x0, np.array([0.0, horizon]),
                                 resolution=15)
        assert res_max.value >= env.upper["I"][-1] - 1e-6
        assert res_min.value <= env.lower["I"][-1] + 1e-6


class TestSweepMechanics:
    def test_invalid_inputs(self, sir_model, sir_x0):
        with pytest.raises(ValueError):
            extremal_trajectory(sir_model, sir_x0, -1.0, [0.0, 1.0])
        with pytest.raises(ValueError):
            extremal_trajectory(sir_model, sir_x0, 1.0, [0.0, 1.0], n_steps=1)
        with pytest.raises(ValueError):
            extremal_trajectory(sir_model, sir_x0, 1.0, [0.0, 0.0])
        with pytest.raises(ValueError):
            extremal_trajectory(sir_model, sir_x0, 1.0, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("x0, direction, horizon", [
        ([0.7, 0.3], [np.nan, 1.0], 1.0),
        ([np.nan, 0.3], [0.0, 1.0], 1.0),
        ([0.7, 0.3], [0.0, 1.0], np.nan),
        ([0.7, 0.3], [0.0, 1.0], np.inf),
    ], ids=["nan-direction", "nan-x0", "nan-horizon", "inf-horizon"])
    def test_non_finite_inputs_rejected(self, sir_model, x0, direction,
                                        horizon):
        # Warm the model's first-call kernel checks, so the rejection
        # cannot come from them by accident.
        extremal_trajectory(sir_model, [0.7, 0.3], 0.5, [0.0, 1.0],
                            n_steps=20)
        with pytest.raises(ValueError, match="finite"):
            extremal_trajectory(sir_model, x0, horizon, direction,
                                n_steps=20)
        with pytest.raises(ValueError, match="finite"):
            extremal_trajectories_batch(sir_model, x0,
                                        [(direction, True, horizon, 20)])

    @pytest.mark.parametrize("options", [
        {"max_iter": 0},
        {"tol": np.nan},
        {"tol": -1e-7},
        {"value_tol": np.inf},
        {"value_patience": 0},
    ], ids=["max_iter-0", "nan-tol", "negative-tol", "inf-value_tol",
            "value_patience-0"])
    def test_bad_sweep_options_rejected(self, sir_model, sir_x0, options):
        # Each used to come back as a non-extremal bound marked
        # converged (max_iter=0: the initial state's objective).
        match = f"^{next(iter(options))} must"
        with pytest.raises(ValueError, match=match):
            extremal_trajectory(sir_model, sir_x0, 1.0, [0.0, 1.0],
                                n_steps=20, **options)
        with pytest.raises(ValueError, match=match):
            extremal_trajectories_batch(
                sir_model, sir_x0, [([0.0, 1.0], True, 1.0, 20)], **options
            )

    @pytest.mark.parametrize("x0", [0.5, [0.5], [[0.7, 0.3]],
                                    [0.7, 0.3, 0.0]],
                             ids=["scalar", "one-entry", "row", "d-plus-1"])
    def test_malformed_x0_rejected(self, sir_model, x0):
        # A scalar or one-entry x0 used to be broadcast to every
        # coordinate (a sweep from [0.5, 0.5]), and a (d+1,) one died in
        # a bare numpy broadcast error.
        match = r"x0 has shape .*, expected \(2,\)"
        with pytest.raises(ValueError, match=match):
            extremal_trajectory(sir_model, x0, 1.0, [0.0, 1.0], n_steps=20)
        with pytest.raises(ValueError, match=match):
            extremal_trajectories_batch(sir_model, x0,
                                        [([0.0, 1.0], True, 1.0, 20)])
        with pytest.raises(ValueError, match=match):
            pontryagin_transient_bounds(sir_model, x0, [0.5, 1.0],
                                        steps_per_unit=20, min_steps=20)

    def test_warm_start_shape_validated(self, sir_model, sir_x0):
        with pytest.raises(ValueError):
            extremal_trajectory(sir_model, sir_x0, 1.0, [0.0, 1.0],
                                n_steps=10, initial_controls=np.zeros((5, 1)))

    def test_warm_start_accepted(self, sir_model, sir_x0):
        warm = np.full((50, 1), 5.0)
        res = extremal_trajectory(sir_model, sir_x0, 1.0, [0.0, 1.0],
                                  n_steps=50, initial_controls=warm)
        assert res.converged

    def test_warm_start_seeds_the_lane(self, sir_model, sir_x0):
        # The warm start reaches the lane engine through a private
        # argument; the scalar oracle takes it directly.
        cold = extremal_trajectory(sir_model, sir_x0, 2.0, [0.0, 1.0],
                                   n_steps=100)
        warm = extremal_trajectory(sir_model, sir_x0, 2.0, [0.0, 1.0],
                                   n_steps=100, initial_controls=cold.controls)
        scalar = ref.extremal_trajectory(sir_model, sir_x0, 2.0, [0.0, 1.0],
                                         n_steps=100,
                                         initial_controls=cold.controls)
        assert warm.iterations == scalar.iterations < cold.iterations
        assert warm.converged == scalar.converged
        assert warm.value == pytest.approx(scalar.value, rel=1e-12)

    def test_controls_admissible(self, sir_model, sir_x0):
        res = extremal_trajectory(sir_model, sir_x0, 2.0, [0.0, 1.0],
                                  n_steps=100)
        for u in res.controls:
            assert sir_model.theta_set.contains(u, tol=1e-9)

    def test_control_at_lookup(self, sir_model, sir_x0):
        res = extremal_trajectory(sir_model, sir_x0, 2.0, [0.0, 1.0],
                                  n_steps=100)
        np.testing.assert_allclose(res.control_at(0.0), res.controls[0])
        np.testing.assert_allclose(res.control_at(1.99), res.controls[-1])
        np.testing.assert_allclose(res.control_at(5.0), res.controls[-1])

    def test_control_at_left_continuous_at_grid_points(self, sir_model, sir_x0):
        """Regression: the lookup is documented left-continuous, but the
        ``side="right"`` searchsorted made it right-continuous at exact
        grid times — at a bang-bang switch knot it reported the *next*
        interval's control instead of the one driving into the knot."""
        res = extremal_trajectory(sir_model, sir_x0, 3.0, [0.0, 1.0],
                                  n_steps=300)
        jumps = np.abs(np.diff(res.controls[:, 0]))
        k = int(np.argmax(jumps)) + 1
        assert jumps[k - 1] > 0.5, "expected a bang-bang switch"
        t_k = res.times[k]
        np.testing.assert_allclose(res.control_at(t_k), res.controls[k - 1])
        np.testing.assert_allclose(res.control_at(t_k + 1e-9), res.controls[k])
        # Clamping at the ends is unchanged.
        np.testing.assert_allclose(res.control_at(res.times[0]),
                                   res.controls[0])
        np.testing.assert_allclose(res.control_at(res.times[-1]),
                                   res.controls[-1])

    def test_value_reported_in_objective_units(self, sir_model, sir_x0):
        res_min = extremal_trajectory(sir_model, sir_x0, 1.0, [0.0, 1.0],
                                      maximize=False, n_steps=60)
        # Minimised value equals direction . x(T) of the found trajectory.
        assert res_min.value == pytest.approx(res_min.states[-1, 1], abs=1e-9)


class TestCostateBlocks:
    """The costate Jacobians are built in blocks under a byte budget;
    the split must not change a single bit of the sweep."""

    @staticmethod
    def _first_sweep_args(monkeypatch, model, x0, specs):
        captured = []
        original = pontryagin._costate_sweep_batch

        def spy(*args):
            captured.append(args)
            return original(*args)

        with monkeypatch.context() as patch:
            patch.setattr(pontryagin, "_costate_sweep_batch", spy)
            extremal_trajectories_batch(model, x0, specs, max_iter=1)
        return captured[0]

    def _assert_blocks_bit_identical(self, monkeypatch, model, x0, specs):
        args = self._first_sweep_args(monkeypatch, model, x0, specs)
        single = pontryagin._costate_sweep_batch(*args)
        reference = extremal_trajectories_batch(model, x0, specs)

        calls = []
        jacobian = model.jacobian_x_batch

        def counting(*a):
            calls.append(1)
            return jacobian(*a)

        L, _, d = args[3].shape
        steps_per_block = int(args[2].max()) // 4
        monkeypatch.setattr(model, "jacobian_x_batch", counting)
        monkeypatch.setattr(pontryagin, "_JACOBIAN_BLOCK_BYTES",
                            3 * L * d * d * 8 * steps_per_block)
        blocked = pontryagin._costate_sweep_batch(*args)
        assert len(calls) >= 3
        np.testing.assert_array_equal(blocked, single)
        # The stage loop (four stage products and a masked store into
        # the grid stack each step) is the oracle of the transfer
        # matrices and the step-major trail, up to rounding.
        ref.assert_costates_close(single, ref.costate_sweep_batch(*args))
        for lane, ref_lane in zip(
                extremal_trajectories_batch(model, x0, specs), reference):
            assert lane.value == ref_lane.value
            assert lane.iterations == ref_lane.iterations
            np.testing.assert_array_equal(lane.costates, ref_lane.costates)
            np.testing.assert_array_equal(lane.controls, ref_lane.controls)

    def test_ragged_sir_ladder(self, monkeypatch, sir_model, sir_x0):
        specs = [([0.0, 1.0], is_max, horizon, n_steps)
                 for horizon, n_steps in ((0.5, 60), (1.25, 125), (2.0, 200))
                 for is_max in (False, True)]
        self._assert_blocks_bit_identical(monkeypatch, sir_model, sir_x0,
                                          specs)

    def test_gps_map(self, monkeypatch, gps_map):
        from repro.models import gps_initial_state_map

        specs = [(c, True, 1.0, 60) for c in box_directions(4)]
        self._assert_blocks_bit_identical(monkeypatch, gps_map,
                                          gps_initial_state_map(), specs)


def assert_lanes_identical(lanes, oracle):
    """Every output of two lane sets agrees bit for bit, the costates
    within the stage loop's rounding (``ref.COSTATE_RTOL``)."""
    assert len(lanes) == len(oracle)
    for lane, want in zip(lanes, oracle):
        assert lane.value == want.value
        assert lane.iterations == want.iterations
        assert lane.converged == want.converged
        for name in ("times", "states", "controls"):
            np.testing.assert_array_equal(getattr(lane, name),
                                          getattr(want, name))
        ref.assert_costates_close(lane.costates, want.costates)


class TestSweepMatchesPhasedOracle:
    """The sweep runs one forward call per iteration, which also carries
    the finishing lanes' final passes and the projecting lanes'
    projection passes; the oracle runs a separate call for each phase
    and the costate stage loop.  Lanes are independent rows, so every
    output must agree bit for bit, and the costates up to rounding."""

    SIR_LADDER = [([0.0, 1.0], is_max, horizon, n_steps)
                  for horizon, n_steps in ((0.5, 60), (1.25, 125), (2.0, 200))
                  for is_max in (False, True)]

    @pytest.mark.parametrize("options", [
        {}, {"max_iter": 1}, {"max_iter": 2}, {"deadline_seconds": 0.0},
        {"chatter_intervals": 0}, {"value_patience": 1},
    ], ids=["default", "max_iter-1", "max_iter-2", "deadline-0",
            "chatter-0", "patience-1"])
    def test_ragged_sir_ladder(self, sir_model, sir_x0, options):
        assert_lanes_identical(
            extremal_trajectories_batch(sir_model, sir_x0, self.SIR_LADDER,
                                        **options),
            ref.extremal_trajectories_batch(sir_model, sir_x0,
                                            self.SIR_LADDER, **options),
        )

    def test_gps_map_lanes(self, gps_map):
        from repro.models import gps_initial_state_map

        specs = [(c, is_max, horizon, n_steps)
                 for horizon, n_steps in ((0.5, 30), (1.0, 60))
                 for c in box_directions(4)[:4] for is_max in (False, True)]
        x0 = gps_initial_state_map()
        assert_lanes_identical(
            extremal_trajectories_batch(gps_map, x0, specs),
            ref.extremal_trajectories_batch(gps_map, x0, specs),
        )

    def test_warm_start(self, sir_model, sir_x0):
        # A converged signal (a fixed point on the first iteration) and
        # a constant one.
        specs = [([0.0, 1.0], is_max, 2.0, 100) for is_max in (False, True)]
        warm = [extremal_trajectories_batch(sir_model, sir_x0, specs)[0]
                .controls, np.full((100, 1), 5.0)]
        assert_lanes_identical(
            pontryagin._extremal_trajectories_batch_impl(
                sir_model, sir_x0, specs, initial_controls=warm),
            ref.extremal_trajectories_batch(sir_model, sir_x0, specs,
                                            initial_controls=warm),
        )


class TestSwitchingExtraction:
    def test_costate_switch_matches_control_switch(self, sir_model, sir_x0):
        res = extremal_trajectory(sir_model, sir_x0, 3.0, [0.0, 1.0],
                                  n_steps=300)
        from_costate = switching_times_from_costate(res, sir_model)
        assert len(from_costate) == 1
        # The control switches theta_min -> theta_max within 0.3 of the
        # costate's zero crossing.
        switch = from_costate[0]
        assert res.control_at(switch - 0.3)[0] == pytest.approx(1.0)
        assert res.control_at(switch + 0.3)[0] == pytest.approx(10.0)

    def test_switching_function_sign_matches_control(self, sir_model, sir_x0):
        res = extremal_trajectory(sir_model, sir_x0, 2.0, [0.0, 1.0],
                                  n_steps=200)
        sigma = switching_function(res, sir_model)
        # Where sigma is clearly positive the control sits at theta_max.
        for i in range(res.controls.shape[0]):
            if sigma[i] > 1e-3:
                assert res.controls[i, 0] > 9.0
            elif sigma[i] < -1e-3:
                assert res.controls[i, 0] < 2.0

    def test_switching_function_requires_affine(self, sir_model, sir_x0):
        from repro.params import Interval
        from repro.population import PopulationModel, Transition

        res = extremal_trajectory(sir_model, sir_x0, 1.0, [0.0, 1.0],
                                  n_steps=60)
        nonaffine = PopulationModel(
            "na", ("a", "b"),
            [Transition("t", [1.0, 0.0], lambda x, th: th[0] ** 2)],
            Interval(0.0, 1.0),
        )
        with pytest.raises(ValueError):
            switching_function(res, nonaffine)

class TestTransientBounds:
    def test_monotone_horizons_required(self, sir_model, sir_x0):
        with pytest.raises(ValueError):
            pontryagin_transient_bounds(sir_model, sir_x0, [1.0, 0.5])
        with pytest.raises(ValueError):
            pontryagin_transient_bounds(sir_model, sir_x0, [0.0, 1.0])

    @pytest.mark.parametrize("horizons", [[], [np.nan], [0.5, np.nan],
                                          [0.5, np.inf]])
    def test_empty_or_non_finite_horizons_rejected(self, sir_model, sir_x0,
                                                   horizons):
        # An empty ladder used to return empty series as a success, and
        # NaN slipped past the ordering checks into the step count.
        with pytest.raises(ValueError, match="non-empty|finite"):
            pontryagin_transient_bounds(sir_model, sir_x0, horizons)

    @pytest.mark.parametrize("steps_per_unit", [np.nan, np.inf, 0.0, -50.0])
    def test_steps_per_unit_validated(self, sir_model, sir_x0,
                                      steps_per_unit):
        # NaN died converting to int, inf overflowed, and a value <= 0
        # silently fell back to min_steps on every horizon.
        with pytest.raises(ValueError,
                           match="steps_per_unit must be positive and finite"):
            pontryagin_transient_bounds(sir_model, sir_x0, [0.5, 1.0],
                                        steps_per_unit=steps_per_unit)

    @pytest.mark.parametrize("min_steps", [np.nan, np.inf, 2.5, 1, 0, -3])
    def test_min_steps_validated(self, sir_model, sir_x0, min_steps):
        # NaN died converting to int, inf overflowed, and 2.5 silently
        # ran 2 intervals.
        with pytest.raises(ValueError,
                           match="min_steps must be an integer >= 2"):
            pontryagin_transient_bounds(sir_model, sir_x0, [0.01, 0.02],
                                        steps_per_unit=50,
                                        min_steps=min_steps)

    def test_integral_min_steps_accepted(self, sir_model, sir_x0):
        # An integral float (from a JSON-like option dict) is the int.
        as_int = pontryagin_transient_bounds(sir_model, sir_x0, [0.05],
                                             observables=["I"],
                                             steps_per_unit=20, min_steps=4)
        as_float = pontryagin_transient_bounds(sir_model, sir_x0, [0.05],
                                               observables=["I"],
                                               steps_per_unit=20,
                                               min_steps=4.0)
        assert as_int.upper["I"][0] == as_float.upper["I"][0]
        assert as_int.lower["I"][0] == as_float.lower["I"][0]

    def test_bounds_bracket_uncertain(self, sir_model, sir_x0):
        horizons = np.array([0.5, 1.0, 1.5])
        tb = pontryagin_transient_bounds(sir_model, sir_x0, horizons,
                                         observables=["I"], steps_per_unit=60)
        env = uncertain_envelope(sir_model, sir_x0,
                                 np.insert(horizons, 0, 0.0), resolution=9)
        for k in range(3):
            assert tb.lower["I"][k] <= env.lower["I"][k + 1] + 1e-5
            assert tb.upper["I"][k] >= env.upper["I"][k + 1] - 1e-5

    def test_width_and_final_helpers(self, sir_model, sir_x0):
        tb = pontryagin_transient_bounds(sir_model, sir_x0, [0.5, 1.0],
                                         observables=["I"], steps_per_unit=60)
        assert np.all(tb.width("I") >= -1e-9)
        lo, hi = tb.final_bounds("I")
        assert lo <= hi

    def test_keep_results(self, sir_model, sir_x0):
        tb = pontryagin_transient_bounds(
            sir_model, sir_x0, [0.5, 1.0], observables=["I"],
            steps_per_unit=60, keep_results=True,
        )
        assert len(tb.upper_results["I"]) == 2
        assert tb.upper_results["I"][0].maximize
