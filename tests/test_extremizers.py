"""Tests for the drift extremiser (repro.inclusion.extremizers)."""

import numpy as np
import pytest

from repro.inclusion import DriftExtremizer
from repro.params import DiscreteSet, Interval
from repro.population import PopulationModel, Transition


def nonaffine_model():
    """Drift quadratic in theta: maximum at an interior point."""
    tr = Transition("t", [1.0], lambda x, th: 1.0 - (th[0] - 0.3) ** 2)
    return PopulationModel("quad", ("x",), [tr], Interval(0.0, 1.0))


class TestConstruction:
    def test_auto_picks_affine(self, sir_model):
        assert DriftExtremizer(sir_model).method == "affine"

    def test_auto_picks_grid_for_nonaffine(self):
        assert DriftExtremizer(nonaffine_model()).method == "grid"

    def test_affine_on_nonaffine_rejected(self):
        with pytest.raises(ValueError):
            DriftExtremizer(nonaffine_model(), method="affine")

    def test_invalid_method_rejected(self, sir_model):
        with pytest.raises(ValueError):
            DriftExtremizer(sir_model, method="magic")

    def test_invalid_resolution_rejected(self, sir_model):
        with pytest.raises(ValueError):
            DriftExtremizer(sir_model, grid_resolution=1)


class TestAffineStrategy:
    def test_bang_bang_maximiser_sir(self, sir_model):
        ext = DriftExtremizer(sir_model)
        x = np.array([0.5, 0.2])
        # Direction +I: infection term has positive coefficient -> theta_max.
        theta, value = ext.maximize_direction(x, [0.0, 1.0])
        assert theta[0] == 10.0
        assert value == pytest.approx(float(sir_model.drift(x, [10.0])[1]))
        # Direction +S: -theta S I -> theta_min.
        theta, _ = ext.maximize_direction(x, [1.0, 0.0])
        assert theta[0] == 1.0

    def test_zero_coefficient_deterministic(self, sir_model):
        ext = DriftExtremizer(sir_model)
        # At I = 0 the theta coefficient vanishes: lower bound by convention.
        theta, _ = ext.maximize_direction(np.array([0.5, 0.0]), [0.0, 1.0])
        assert theta[0] == 1.0

    def test_matches_grid_search(self, sir_model, rng):
        affine = DriftExtremizer(sir_model, method="affine")
        grid = DriftExtremizer(sir_model, method="grid", grid_resolution=201)
        for _ in range(10):
            x = rng.uniform(0.05, 0.9, size=2)
            p = rng.normal(size=2)
            _, va = affine.maximize_direction(x, p)
            _, vg = grid.maximize_direction(x, p)
            assert va >= vg - 1e-9
            assert va == pytest.approx(vg, abs=1e-6)

    def test_box_model(self, gps_poisson, rng):
        ext = DriftExtremizer(gps_poisson)
        corners = DriftExtremizer(gps_poisson, method="corners")
        for _ in range(10):
            x = rng.uniform(0.0, 0.5, size=2)
            p = rng.normal(size=2)
            _, va = ext.maximize_direction(x, p)
            _, vc = corners.maximize_direction(x, p)
            assert va == pytest.approx(vc, abs=1e-10)

    def test_discrete_theta_set(self):
        tr = Transition("t", [1.0], lambda x, th: th[0])
        model = PopulationModel(
            "d", ("x",), [tr], DiscreteSet([[1.0], [3.0], [2.0]]),
            affine_drift_batch=lambda xs: (
                np.zeros((xs.shape[0], 1)), np.ones((xs.shape[0], 1, 1))
            ),
        )
        ext = DriftExtremizer(model)
        theta, value = ext.maximize_direction([0.0], [1.0])
        assert theta[0] == 3.0 and value == pytest.approx(3.0)
        # The minimum is the maximum of the negated functional.
        theta, value = ext.maximize_direction([0.0], [-1.0])
        assert theta[0] == 1.0 and -value == pytest.approx(1.0)


class TestGridStrategy:
    def test_grid_includes_corners(self):
        model = nonaffine_model()
        ext = DriftExtremizer(model, method="grid", grid_resolution=2)
        theta, _ = ext.maximize_direction([0.0], [-1.0])
        # min of 1-(th-0.3)^2 on [0,1] is at th=1.
        assert theta[0] == pytest.approx(1.0)


class TestDerivedQueries:
    def test_coordinate_range_ordering(self, sir_model, rng):
        ext = DriftExtremizer(sir_model)
        for _ in range(5):
            x = rng.uniform(0, 1, size=2)
            for i in range(2):
                lo, hi = ext.coordinate_range(x, i)
                assert lo <= hi + 1e-12

    def test_coordinate_range_contains_samples(self, sir_model, rng):
        ext = DriftExtremizer(sir_model)
        x = np.array([0.6, 0.25])
        lo, hi = ext.coordinate_range(x, 1)
        for theta in sir_model.theta_set.sample(rng, 25):
            fi = sir_model.drift(x, theta)[1]
            assert lo - 1e-9 <= fi <= hi + 1e-9
