"""Tests for robust design and convergence studies (repro.analysis)."""

import numpy as np
import pytest

from repro.analysis import (
    birkhoff_inclusion_fraction,
    convergence_study,
    robust_minimize_scalar,
)
from repro.analysis.robust import worst_case_objective
from repro.models import make_sir_model
from repro.simulation import ConstantPolicy, simulate
from repro.steadystate import birkhoff_centre_2d


class TestRobustMinimizeScalar:
    def test_quadratic(self):
        result = robust_minimize_scalar(lambda x: (x - 2.0) ** 2, (0.0, 5.0))
        assert result.optimum == pytest.approx(2.0, abs=1e-2)
        assert result.value == pytest.approx(0.0, abs=1e-3)
        assert result.design_grid.shape == (9,)

    def test_boundary_minimum(self):
        result = robust_minimize_scalar(lambda x: x, (1.0, 3.0))
        assert result.optimum == pytest.approx(1.0, abs=1e-2)

    def test_convexity_check(self):
        convex = robust_minimize_scalar(lambda x: x * x, (-1.0, 1.0))
        assert convex.is_convex_on_grid()
        bumpy = robust_minimize_scalar(lambda x: np.sin(8 * x), (0.0, 3.0))
        assert not bumpy.is_convex_on_grid()

    def test_validation(self):
        with pytest.raises(ValueError):
            robust_minimize_scalar(lambda x: x, (2.0, 1.0))
        with pytest.raises(ValueError):
            robust_minimize_scalar(lambda x: x, (0.0, 1.0), coarse_points=2)

    def test_worst_case_objective_matches_extremal(self, sir_model, sir_x0):
        from repro.bounds import extremal_trajectory

        value = worst_case_objective(sir_model, sir_x0, 1.0, [0.0, 1.0],
                                     n_steps=120)
        direct = extremal_trajectory(sir_model, sir_x0, 1.0, [0.0, 1.0],
                                     n_steps=120)
        assert value == pytest.approx(direct.value, abs=1e-9)


@pytest.fixture(scope="module")
def sir_region():
    model = make_sir_model()
    return model, birkhoff_centre_2d(model, x0_guess=[0.7, 0.05])


class TestInclusionFraction:
    def test_stationary_run_mostly_inside(self, sir_region):
        model, region = sir_region
        pop = model.instantiate(1000, [0.7, 0.3])
        run = simulate(pop, ConstantPolicy([5.0]), 40.0,
                       rng=np.random.default_rng(5), n_samples=400)
        stats = birkhoff_inclusion_fraction(run, region, burn_in=15.0,
                                            epsilon=3.0 / np.sqrt(1000))
        assert stats.fraction_inside > 0.9
        assert stats.n_samples > 0
        assert stats.mean_distance <= stats.max_distance

    def test_ensemble_stats_match_pooled_runs(self, sir_region):
        """ensemble_inclusion_fraction pools all runs' stationary samples."""
        from repro.analysis import ensemble_inclusion_fraction
        from repro.engine import simulate_ensemble

        model, region = sir_region
        pop = model.instantiate(500, [0.7, 0.3])
        batch = simulate_ensemble(pop, ConstantPolicy([5.0]), 30.0,
                                  n_runs=4, seed=9, n_samples=120)
        stats = ensemble_inclusion_fraction(batch, region, burn_in=12.0,
                                            epsilon=3.0 / np.sqrt(500))
        kept = int(np.count_nonzero(batch.times >= 12.0))
        assert stats.n_samples == 4 * kept
        assert stats.fraction_inside > 0.8
        with pytest.raises(ValueError):
            ensemble_inclusion_fraction(batch, region, projection=[0])

    def test_transient_excluded_by_burn_in(self, sir_region):
        model, region = sir_region
        # The initial state (0.7, 0.3) is far outside the Birkhoff region.
        pop = model.instantiate(300, [0.7, 0.3])
        run = simulate(pop, ConstantPolicy([5.0]), 15.0,
                       rng=np.random.default_rng(6), n_samples=150)
        with_transient = birkhoff_inclusion_fraction(run, region,
                                                     burn_in=0.0)
        without = birkhoff_inclusion_fraction(run, region, burn_in=6.0,
                                              epsilon=0.1)
        assert without.fraction_inside >= with_transient.fraction_inside

    def test_projection_validation(self, sir_region):
        model, region = sir_region
        pop = model.instantiate(100, [0.7, 0.3])
        run = simulate(pop, ConstantPolicy([5.0]), 1.0,
                       rng=np.random.default_rng(1), n_samples=10)
        with pytest.raises(ValueError):
            birkhoff_inclusion_fraction(run, region, projection=[0])

    def test_repr(self, sir_region):
        model, region = sir_region
        pop = model.instantiate(100, [0.7, 0.3])
        run = simulate(pop, ConstantPolicy([5.0]), 1.0,
                       rng=np.random.default_rng(1), n_samples=10)
        stats = birkhoff_inclusion_fraction(run, region)
        assert "inside" in repr(stats)


class TestConvergenceStudy:
    @pytest.mark.slow
    def test_fraction_improves_with_n(self, sir_region):
        model, region = sir_region
        study = convergence_study(
            model,
            region,
            policies={"const": ConstantPolicy([5.0])},
            sizes=(100, 2000),
            x0=[0.7, 0.3],
            t_final=50.0,
            burn_in=15.0,
            seed=3,
            n_samples=400,
        )
        fracs = study.fractions("const")
        assert len(fracs) == 2
        assert study.is_monotone_improving("const")
        assert fracs[-1] > 0.9
