"""Tests for Birkhoff centres and stationary hull rectangles."""

from functools import lru_cache

import numpy as np
import pytest
import reference_impls as ref

from repro.inclusion import DriftExtremizer
from repro.models import make_sir_model
from repro.scenarios import get_scenario
from repro.steadystate import (
    birkhoff_centre_2d,
    hull_steady_rectangle,
    uncertain_fixed_points,
)


@pytest.fixture(scope="module")
def sir_birkhoff():
    """The paper's Figure-3 region (computed once for the module)."""
    model = make_sir_model()
    return model, birkhoff_centre_2d(model, x0_guess=[0.7, 0.05])


class NaNRowsExtremizer(DriftExtremizer):
    """An extremizer whose outward drift is NaN on the chosen scan rows."""

    def __init__(self, model, rows):
        super().__init__(model)
        self.rows = rows

    def maximize_direction_batch(self, states, directions):
        thetas, values = super().maximize_direction_batch(states, directions)
        values = np.array(values, dtype=float)
        values[self.rows] = np.nan
        return thetas, values


class TestUncertainFixedPoints:
    def test_curve_shape(self, sir_model):
        curve = uncertain_fixed_points(sir_model, resolution=9)
        assert curve.shape == (9, 2)

    def test_fixed_points_have_zero_drift(self, sir_model):
        curve = uncertain_fixed_points(sir_model, resolution=5)
        thetas = sir_model.theta_set.grid(5)
        for fp, theta in zip(curve, thetas):
            assert np.linalg.norm(sir_model.drift(fp, theta)) < 1e-7

    def test_endpoint_fixed_points_match_paper_extremes(self, sir_model):
        curve = uncertain_fixed_points(sir_model, resolution=11)
        # theta = 1 equilibrium: high S, low I; theta = 10: low S, higher I.
        assert curve[0, 0] > 0.85  # S at theta_min
        assert curve[-1, 0] < 0.5  # S at theta_max
        assert curve[-1, 1] > curve[0, 1]  # I increases with theta

    def test_monotone_s_in_theta(self, sir_model):
        curve = uncertain_fixed_points(sir_model, resolution=15)
        assert np.all(np.diff(curve[:, 0]) < 1e-9)


class TestBirkhoffCentre:
    def test_requires_2d(self, gps_map):
        with pytest.raises(ValueError):
            birkhoff_centre_2d(gps_map)

    def test_converged_with_polygon(self, sir_birkhoff):
        _, result = sir_birkhoff
        assert result.converged
        assert not result.degenerate
        assert result.polygon is not None
        assert result.polygon.area > 0.01

    def test_corner_fixed_points_on_boundary_region(self, sir_birkhoff):
        _, result = sir_birkhoff
        for fp in result.corner_fixed_points:
            assert result.contains(fp, tol=1e-3)

    def test_uncertain_fixed_points_inside(self, sir_birkhoff):
        """Figure 3: the uncertain steady states lie in the imprecise region."""
        model, result = sir_birkhoff
        curve = uncertain_fixed_points(model, resolution=11)
        for fp in curve:
            assert result.contains(fp, tol=1e-3)

    def test_region_strictly_larger_than_uncertain_curve(self, sir_birkhoff):
        """Figure 3's key claim: points with smaller S / larger I than any
        uncertain equilibrium belong to the imprecise steady-state set."""
        model, result = sir_birkhoff
        curve = uncertain_fixed_points(model, resolution=21)
        vertices = result.polygon.vertices
        assert vertices[:, 0].min() < curve[:, 0].min() - 0.01
        assert vertices[:, 1].max() > curve[:, 1].max() + 0.01

    def test_distance_and_membership(self, sir_birkhoff):
        _, result = sir_birkhoff
        # The vertex mean of a convex polygon lies inside it.
        inner = result.polygon.vertices.mean(axis=0)
        assert result.contains(inner)
        assert result.distance(inner) == 0.0
        assert result.distance([2.0, 2.0]) > 1.0

    def test_region_shrinks_with_theta_range(self, sir_birkhoff):
        _, wide = sir_birkhoff
        narrow_model = make_sir_model(theta_max=2.0)
        narrow = birkhoff_centre_2d(narrow_model, x0_guess=[0.7, 0.05])
        assert narrow.converged
        assert narrow.polygon.area < wide.polygon.area

    def test_degenerate_for_singleton_theta(self):
        model = make_sir_model(theta_min=5.0, theta_max=5.0)
        result = birkhoff_centre_2d(model, x0_guess=[0.7, 0.05])
        assert result.degenerate
        assert result.certified
        # The degenerate region is the unique equilibrium.
        fp = result.corner_fixed_points[0]
        assert np.linalg.norm(model.drift(fp, [5.0])) < 1e-8
        assert result.contains(fp, tol=1e-6)
        assert result.distance(fp) < 1e-6

    def test_history_recorded(self, sir_birkhoff):
        _, result = sir_birkhoff
        assert len(result.history) == result.rounds

    @pytest.mark.parametrize("kwargs, name", [
        ({"settle_time": 0.0}, "settle_time"),
        ({"loop_time": -1.0}, "loop_time"),
        ({"loop_time": np.inf}, "loop_time"),
        ({"grow_time": 0.0}, "grow_time"),
        ({"grow_time": np.nan}, "grow_time"),
        ({"samples_per_trajectory": 3}, "samples_per_trajectory"),
        ({"samples_per_trajectory": 1}, "samples_per_trajectory"),
        ({"max_escapes_per_round": 0}, "max_escapes_per_round"),
        ({"tolerance": np.nan}, "tolerance"),
        ({"tolerance": -1e-4}, "tolerance"),
        ({"spatial_tolerance": np.nan}, "spatial_tolerance"),
        ({"simplify_tolerance": -1.0}, "simplify_tolerance"),
        ({"simplify_tolerance": np.inf}, "simplify_tolerance"),
        ({"x0_guess": [0.7, 0.05, 0.1]}, "x0_guess"),
        ({"x0_guess": [np.nan, 0.05]}, "x0_guess"),
    ])
    def test_invalid_arguments_rejected(self, kwargs, name):
        model = make_sir_model(theta_max=4.0)
        kwargs = {"x0_guess": [0.7, 0.05], **kwargs}
        with pytest.raises(ValueError, match=name):
            birkhoff_centre_2d(model, **kwargs)

    @pytest.mark.parametrize("rows", [slice(None), [0]],
                             ids=["every-row", "one-row"])
    def test_non_finite_drift_raises(self, rows):
        """A NaN outward drift is a numerical failure, not a certificate."""
        model = make_sir_model(theta_max=4.0)
        with pytest.raises(RuntimeError,
                           match=r"round 1 at boundary point \["):
            birkhoff_centre_2d(model, x0_guess=[0.7, 0.05],
                               extremizer=NaNRowsExtremizer(model, rows))


@lru_cache(maxsize=None)
def _constructions(model_factory, kwargs, x0_guess):
    """``(library, oracle)`` results for one model, computed once."""
    model = model_factory(**dict(kwargs))
    guess = None if x0_guess is None else list(x0_guess)
    return (birkhoff_centre_2d(model, x0_guess=guess),
            ref.birkhoff_centre_2d(model, x0_guess=guess))


def _spec_case(name):
    spec = get_scenario(name)
    (question,) = [q for q in spec.questions if q.kind == "steadystate"]
    guess = question.opts.get("x0_guess")
    return (spec.model_factory, tuple(sorted(spec.kwargs.items())),
            None if guess is None else tuple(guess))


def _hausdorff(a, b):
    """Larger of the two polygons' vertex-to-region distances."""
    return max(max(b.distance(v) for v in a.vertices),
               max(a.distance(v) for v in b.vertices))


class TestBirkhoffMatchesScalarConstruction:
    """The batched construction against the scipy per-trajectory oracle.

    The Dormand–Prince lanes agree with scipy to integrator tolerance,
    not bit for bit, and the growth loop stops at the first round that
    gains less than ``spatial_tolerance``; so regions are compared by
    Hausdorff distance, and round counts only where the stopping round
    is well conditioned (the catalog's three ``steadystate`` specs).
    """

    @pytest.mark.parametrize("name", [
        pytest.param("gossip-spread", marks=pytest.mark.slow),
        pytest.param("repairable-queue", marks=pytest.mark.slow),
        "sir-steadystate",
    ])
    def test_catalog_specs(self, name):
        lib, oracle = _constructions(*_spec_case(name))
        assert lib.rounds == oracle.rounds
        assert lib.certified == oracle.certified
        assert lib.converged == oracle.converged
        assert lib.degenerate == oracle.degenerate
        assert lib.polygon.area == pytest.approx(oracle.polygon.area,
                                                 rel=1e-4)

    @pytest.mark.parametrize("theta_max", [
        2.0, 4.0,
        pytest.param(6.0, marks=pytest.mark.slow),
        pytest.param(10.0, marks=pytest.mark.slow),
    ])
    def test_sir_regions_within_spatial_tolerance(self, theta_max):
        lib, oracle = _constructions(
            make_sir_model, (("theta_max", theta_max),), (0.7, 0.05))
        assert lib.converged and oracle.converged
        assert _hausdorff(lib.polygon, oracle.polygon) <= 3e-4


class TestHullSteadyRectangle:
    def test_narrow_theta_converges(self):
        model = make_sir_model(theta_max=2.0)
        rect = hull_steady_rectangle(model, [0.7, 0.3])
        assert rect.converged
        assert np.all(rect.widths() >= 0)
        assert np.all(rect.lower >= -0.05)
        assert np.all(rect.upper <= 1.05)

    def test_rectangle_contains_birkhoff_region(self):
        model = make_sir_model(theta_max=2.0)
        rect = hull_steady_rectangle(model, [0.7, 0.3])
        region = birkhoff_centre_2d(model, x0_guess=[0.7, 0.05])
        for vertex in region.polygon.vertices:
            assert rect.contains(vertex, tol=1e-2)

    def test_wide_theta_diverges(self):
        model = make_sir_model(theta_max=6.0)
        rect = hull_steady_rectangle(model, [0.7, 0.3], horizon=50.0)
        assert not rect.converged

    def test_rectangle_contains_uncertain_fixed_points(self):
        model = make_sir_model(theta_max=3.0)
        rect = hull_steady_rectangle(model, [0.7, 0.3])
        curve = uncertain_fixed_points(model, resolution=9)
        for fp in curve:
            assert rect.contains(fp, tol=1e-2)
