"""Replays of an extremal control: through the inclusion and at finite N.

The Pontryagin sweep's bang-bang control is the adversarial environment
of the bound.  Re-integrating it through the inclusion must reproduce
the bound (the optimise-then-simulate check), and by Theorem 1 a
finite-``N`` chain driven by the same schedule concentrates on it as
``N`` grows.
"""

import numpy as np
import pytest

from repro.bounds import extremal_trajectory
from repro.inclusion import ParametricInclusion
from repro.simulation import PiecewiseConstantPolicy, batch_simulate


class TestExtremalControlReplay:
    @pytest.fixture(scope="class")
    def sir_extremal(self):
        from repro.models import make_sir_model

        model = make_sir_model()
        result = extremal_trajectory(model, [0.7, 0.3], 3.0, [0.0, 1.0],
                                     n_steps=300)
        return model, result

    def test_replay_through_inclusion_attains_value(self, sir_extremal):
        model, result = sir_extremal
        replay = ParametricInclusion(model).solve_feedback(
            lambda t, x: result.control_at(t), [0.7, 0.3], (0.0, 3.0)
        )
        assert replay.final_state[1] == pytest.approx(result.value, abs=2e-3)

    @pytest.mark.slow
    def test_simulation_approaches_bound(self, sir_extremal):
        model, result = sir_extremal
        # One schedule piece per control change of the bang-bang signal.
        knots = np.flatnonzero(
            np.any(np.diff(result.controls, axis=0) != 0.0, axis=1)) + 1
        schedule = [(result.times[k], result.controls[k])
                    for k in np.concatenate([[0], knots])]
        batch = batch_simulate(
            model.instantiate(5000, [0.7, 0.3]),
            lambda: PiecewiseConstantPolicy(schedule), 3.0,
            n_runs=4, seed=11, n_samples=50,
        )
        finals = batch.final_states() @ result.direction
        gap = result.value - float(np.mean(finals))
        # The bound is approached from below, within a CLT-scale gap.
        assert gap > -0.01
        assert gap < 0.05
        assert float(np.std(finals)) < 0.05
