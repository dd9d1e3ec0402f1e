"""Tests for the Definition 4 scaling diagnostics and the mean-field limit."""

import numpy as np
import pytest

from repro.meanfield import verify_population_scaling
from repro.ode import solve_ode
from repro.params import Singleton
from repro.population import PopulationModel, Transition
from repro.simulation import ConstantPolicy, simulate


class TestScalingDiagnostics:
    def test_sir_satisfies_definition_4(self, sir_model):
        report = verify_population_scaling(sir_model, sizes=(10, 100, 1000))
        assert report.uniformizable()
        assert report.jumps_vanish()
        assert report.drift_bounded()
        assert report.all_conditions_hold()

    def test_gps_satisfies_definition_4(self, gps_poisson):
        report = verify_population_scaling(gps_poisson, sizes=(10, 100, 1000))
        assert report.all_conditions_hold()

    def test_jump_moment_decays_like_n_to_eps(self, sir_model):
        report = verify_population_scaling(
            sir_model, sizes=(10, 1000), epsilon=1.0
        )
        # With eps = 1 the moment scales as 1/N: factor ~100 between sizes.
        ratio = report.jump_moments[0] / report.jump_moments[-1]
        assert ratio == pytest.approx(100.0, rel=0.01)

    def test_badly_scaled_model_detected(self):
        # A rate that grows with density^0 but jump of O(1) *in density*:
        # achieved by declaring a huge change vector, violating (ii).
        bad = PopulationModel(
            "bad", ("x",),
            [Transition("boom", [1000.0], lambda x, th: 1.0)],
            Singleton([1.0]),
            state_bounds=([0.0], [1.0]),
        )
        report = verify_population_scaling(bad, sizes=(10, 100))
        # Jumps still vanish in N (density scaling), but drift is huge —
        # the report exposes the magnitude for the caller to judge.
        assert report.drift_norms[0] == pytest.approx(1000.0)

    def test_requires_two_sizes(self, sir_model):
        with pytest.raises(ValueError):
            verify_population_scaling(sir_model, sizes=(10,))

    def test_requires_positive_epsilon(self, sir_model):
        with pytest.raises(ValueError):
            verify_population_scaling(sir_model, sizes=(10, 100), epsilon=0.0)


class TestConvergenceToMeanField:
    """Theorem 1 / Corollary 1, checked stochastically at finite N."""

    @pytest.mark.slow
    def test_ssa_converges_to_ode_for_constant_theta(self, sir_model):
        # Uncertain scenario: SSA with frozen theta vs the Kurtz ODE.
        ode = solve_ode(sir_model.vector_field([5.0]), [0.7, 0.3], (0.0, 2.0),
                        t_eval=np.linspace(0, 2, 21))
        errors = []
        for n in (100, 10000):
            rng = np.random.default_rng(42)
            pop = sir_model.instantiate(n, [0.7, 0.3])
            run = simulate(pop, ConstantPolicy([5.0]), 2.0, rng=rng,
                           n_samples=21)
            errors.append(float(np.max(np.abs(run.states - ode.states))))
        assert errors[1] < errors[0]
        assert errors[1] < 0.05

    @pytest.mark.slow
    def test_ssa_stays_in_reachable_tube(self, sir_model):
        # Imprecise scenario: any policy's path must stay near the
        # inclusion's reachable envelope (checked against coordinate
        # bounds from the Pontryagin method at a few horizons).
        from repro.bounds import pontryagin_transient_bounds
        from repro.simulation import RandomJumpPolicy

        horizons = np.array([0.5, 1.0, 2.0])
        bounds = pontryagin_transient_bounds(
            sir_model, [0.7, 0.3], horizons, observables=["I"],
            steps_per_unit=60,
        )
        rng = np.random.default_rng(7)
        pop = sir_model.instantiate(10000, [0.7, 0.3])
        policy = RandomJumpPolicy(
            sir_model.theta_set, rate_fn=lambda t, x: 5.0 * x[1]
        )
        run = simulate(pop, policy, 2.0, rng=rng, n_samples=201)
        slack = 0.03  # finite-N fluctuation allowance
        for k, horizon in enumerate(horizons):
            i_val = run.states[np.argmin(np.abs(run.times - horizon)), 1]
            assert bounds.lower["I"][k] - slack <= i_val
            assert i_val <= bounds.upper["I"][k] + slack
