"""Integration tests: the paper's end-to-end claims, at reduced scale.

Each test here crosses several packages (models + bounds + steadystate +
simulation) and asserts the *shape* results the paper's figures report.
The full-scale regenerations live in ``benchmarks/``; these are the fast
versions that gate the build.
"""

import numpy as np
import pytest

from repro.bounds import (
    differential_hull_bounds,
    extremal_trajectory,
    pontryagin_transient_bounds,
    switching_times_from_costate,
    uncertain_envelope,
)
from repro.inclusion import ParametricInclusion
from repro.models import (
    gps_initial_state_map,
    gps_initial_state_poisson,
    make_gps_map_model,
    make_gps_poisson_model,
    make_sir_model,
)
from repro.ode import solve_ode
from repro.simulation import HysteresisPolicy, RandomJumpPolicy, simulate
from repro.steadystate import birkhoff_centre_2d, uncertain_fixed_points


class TestFigure1:
    """Imprecise bounds strictly contain the uncertain envelope."""

    @pytest.mark.slow
    def test_imprecise_exceeds_uncertain_at_large_t(self, sir_model, sir_x0):
        horizons = np.array([3.0, 4.0])
        imprecise = pontryagin_transient_bounds(
            sir_model, sir_x0, horizons, observables=["I"], steps_per_unit=80,
        )
        env = uncertain_envelope(sir_model, sir_x0,
                                 np.concatenate([[0.0], horizons]),
                                 resolution=41)
        for k in range(2):
            upper_gap = imprecise.upper["I"][k] - env.upper["I"][k + 1]
            assert upper_gap > 0.02  # strict inclusion, growing with t
            assert imprecise.lower["I"][k] <= env.lower["I"][k + 1] + 1e-6


class TestFigure2:
    """Bang-bang optimal trajectories and their re-simulation."""

    @pytest.mark.slow
    def test_replay_of_bang_bang_control_attains_value(self, sir_model, sir_x0):
        result = extremal_trajectory(sir_model, sir_x0, 3.0, [0.0, 1.0],
                                     n_steps=300)
        switches = switching_times_from_costate(result, sir_model)
        assert len(switches) == 1
        # Re-simulate through the inclusion under the extremal control.
        inclusion = ParametricInclusion(sir_model)
        replay = inclusion.solve_feedback(lambda t, x: result.control_at(t),
                                          sir_x0, (0.0, 3.0))
        assert replay.final_state[1] == pytest.approx(result.value, abs=2e-3)


class TestFigure3:
    """Birkhoff centre strictly contains the uncertain fixed points."""

    @pytest.mark.slow
    def test_steady_state_inclusion_strict(self, sir_model):
        region = birkhoff_centre_2d(sir_model, x0_guess=[0.7, 0.05])
        assert region.converged
        curve = uncertain_fixed_points(sir_model, resolution=15)
        for fp in curve:
            assert region.contains(fp, tol=1e-3)
        vertices = region.polygon.vertices
        assert vertices[:, 0].min() < curve[:, 0].min() - 0.01
        assert vertices[:, 1].max() > curve[:, 1].max() + 0.01


class TestFigures4And5:
    """Hull accuracy degrades non-linearly in theta_max."""

    def test_hull_vs_pontryagin_tightness(self, sir_x0):
        t_grid = np.linspace(0, 6, 13)
        model = make_sir_model(theta_max=2.0)
        hull = differential_hull_bounds(model, sir_x0, t_grid)
        tight = pontryagin_transient_bounds(
            model, sir_x0, t_grid[1:], observables=["I"], steps_per_unit=50,
        )
        # The hull is sound (outside the tight bounds)...
        for k in range(1, t_grid.shape[0]):
            assert hull.lower[k, 1] <= tight.lower["I"][k - 1] + 1e-6
            assert hull.upper[k, 1] >= tight.upper["I"][k - 1] - 1e-6
        # ...and not absurdly loose for a narrow Theta.
        hull_width = hull.upper[-1, 1] - hull.lower[-1, 1]
        tight_width = tight.upper["I"][-1] - tight.lower["I"][-1]
        assert hull_width < 10.0 * max(tight_width, 1e-3)

    def test_hull_becomes_trivial_at_6(self, sir_x0):
        model = make_sir_model(theta_max=6.0)
        hull = differential_hull_bounds(model, sir_x0, np.linspace(0, 10, 21))
        assert hull.is_trivial(1)


class TestFigure6:
    """SSA stationary samples concentrate on the Birkhoff centre."""

    @pytest.mark.slow
    def test_both_policies_concentrate(self, sir_model):
        from repro.analysis import birkhoff_inclusion_fraction

        region = birkhoff_centre_2d(sir_model, x0_guess=[0.7, 0.05])
        policies = {
            "theta1": HysteresisPolicy([1.0], [10.0], coordinate=0,
                                       low_threshold=0.5,
                                       high_threshold=0.85),
            "theta2": RandomJumpPolicy(sir_model.theta_set,
                                       rate_fn=lambda t, x: 5.0 * x[1]),
        }
        for name, policy in policies.items():
            pop = sir_model.instantiate(1000, [0.7, 0.3])
            run = simulate(pop, policy, 60.0,
                           rng=np.random.default_rng(hash(name) % 2**31),
                           n_samples=600)
            stats = birkhoff_inclusion_fraction(
                run, region, burn_in=20.0, epsilon=3.0 / np.sqrt(1000),
            )
            assert stats.fraction_inside > 0.85, name


class TestFigure7:
    """GPS: Poisson coincidence vs MAP gap."""

    @pytest.mark.slow
    def test_poisson_imprecise_equals_uncertain(self):
        model = make_gps_poisson_model()
        x0 = gps_initial_state_poisson()
        for name in ("Q1", "Q2"):
            res = extremal_trajectory(model, x0, 5.0,
                                      model.observables[name], n_steps=200)
            env = uncertain_envelope(model, x0, np.array([0.0, 5.0]),
                                     resolution=9, observables=[name])
            assert res.value == pytest.approx(env.upper[name][-1], abs=2e-3)

    @pytest.mark.slow
    def test_map_imprecise_strictly_exceeds_uncertain(self):
        model = make_gps_map_model()
        x0 = gps_initial_state_map()
        res = extremal_trajectory(model, x0, 5.0, model.observables["Q1"],
                                  n_steps=200)
        env = uncertain_envelope(model, x0, np.array([0.0, 5.0]),
                                 resolution=7, observables=["Q1"])
        assert res.value > env.upper["Q1"][-1] + 0.05

    def test_monotone_queue_intuition_poisson(self):
        """Higher constant arrival rate -> higher queue (the paper's
        'the higher lambda, the more congested' intuition)."""
        model = make_gps_poisson_model()
        x0 = gps_initial_state_poisson()
        low = solve_ode(model.vector_field(model.theta_set.lowers), x0, (0, 5))
        high = solve_ode(model.vector_field(model.theta_set.uppers), x0, (0, 5))
        assert high.final_state[0] > low.final_state[0]
        assert high.final_state[1] > low.final_state[1]


class TestKolmogorovConsistency:
    """Finite-N exact bounds vs mean-field bounds on the same model."""

    @pytest.mark.slow
    def test_ctmc_expected_density_within_meanfield_bounds(self):
        from repro.ctmc import ImpreciseCTMC, imprecise_reward_bounds

        model = make_sir_model()
        chain = ImpreciseCTMC(model.instantiate(30, [0.7, 0.3]))
        reward = chain.densities()[:, 1]  # expected infected fraction
        horizon = 1.0
        exact_max = imprecise_reward_bounds(chain, reward, horizon,
                                            maximize=True, n_steps=120)
        mf = pontryagin_transient_bounds(model, [0.7, 0.3],
                                         np.array([horizon]),
                                         observables=["I"],
                                         steps_per_unit=120)
        # The expectation of a mean-field-bounded quantity at finite N is
        # close to (and for this monotone-ish model inside) the limit
        # bounds, up to an O(1/N) correction.
        assert exact_max.value <= mf.upper["I"][0] + 0.05
        assert exact_max.value >= mf.lower["I"][0] - 0.05
