"""Tests for template polytopes and the asymptotic reachable hull."""

import numpy as np
import pytest

import reference_impls as ref
from repro.bounds import (
    TemplatePolytope,
    box_directions,
    octagon_directions,
    template_reachable_bounds,
)
from repro.steadystate import asymptotic_reachable_hull, birkhoff_centre_2d


class TestDirectionFamilies:
    def test_box_directions_count(self):
        assert box_directions(3).shape == (6, 3)

    def test_box_directions_invalid(self):
        with pytest.raises(ValueError):
            box_directions(0)

    def test_octagon_directions_count(self):
        # 2d + 4 * C(d, 2): d=2 -> 4 + 4 = 8; d=4 -> 8 + 24 = 32.
        assert octagon_directions(2).shape == (8, 2)
        assert octagon_directions(4).shape == (32, 4)

    def test_octagon_includes_box(self):
        octo = octagon_directions(2)
        box = box_directions(2)
        for row in box:
            assert np.any(np.all(np.isclose(octo, row), axis=1))


class TestTemplatePolytope:
    def unit_box(self):
        return TemplatePolytope(box_directions(2), np.ones(4))

    def test_contains_and_margin(self):
        poly = self.unit_box()
        assert poly.contains([0.0, 0.0])
        assert poly.contains([1.0, 1.0])
        assert not poly.contains([1.5, 0.0])
        assert poly.margin([0.0, 0.0]) == pytest.approx(-1.0)
        assert poly.margin([2.0, 0.0]) == pytest.approx(1.0)

    def test_support_lookup(self):
        poly = self.unit_box()
        assert poly.support([1.0, 0.0]) == pytest.approx(1.0)
        with pytest.raises(KeyError):
            poly.support([0.5, 0.5])

    def test_bounding_box(self):
        poly = self.unit_box()
        lower, upper = poly.bounding_box()
        np.testing.assert_allclose(lower, [-1.0, -1.0])
        np.testing.assert_allclose(upper, [1.0, 1.0])

    def test_bounding_box_missing_directions(self):
        poly = TemplatePolytope(np.array([[1.0, 0.0]]), np.array([1.0]))
        assert poly.bounding_box() is None

    def test_support_duplicate_direction_reports_tightest(self):
        """Regression: ``intersect`` stacks duplicate directions, and
        ``support`` used to return the *first* matching row's offset —
        the loosest halfspace (offsets 5.0 then 2.0 returned 5.0)."""
        loose = TemplatePolytope(np.array([[1.0, 0.0]]), np.array([5.0]))
        tight = TemplatePolytope(np.array([[1.0, 0.0]]), np.array([2.0]))
        assert loose.intersect(tight).support([1.0, 0.0]) == pytest.approx(2.0)
        assert tight.intersect(loose).support([1.0, 0.0]) == pytest.approx(2.0)

    def test_bounding_box_inherits_tightest_offsets(self):
        """``bounding_box`` reads supports, so it must see the min too."""
        wide = self.unit_box()
        narrow = TemplatePolytope(
            np.vstack([np.eye(2), -np.eye(2)]),
            np.array([0.5, 0.25, 0.75, 1.0]),
        )
        lower, upper = wide.intersect(narrow).bounding_box()
        np.testing.assert_allclose(upper, [0.5, 0.25])
        np.testing.assert_allclose(lower, [-0.75, -1.0])

    def test_intersect_stacks(self):
        a = self.unit_box()
        b = TemplatePolytope(np.array([[1.0, 1.0]]), np.array([0.5]))
        both = a.intersect(b)
        assert both.n_halfspaces == 5
        assert both.contains([0.2, 0.2])
        assert not both.contains([0.9, 0.9])

    def test_validation(self):
        with pytest.raises(ValueError):
            TemplatePolytope(np.ones((2, 2)), np.ones(3))


class TestTemplateReachableBounds:
    def test_contains_uncertain_endpoints_sir(self, sir_model, sir_x0):
        from repro.ode import solve_ode

        horizon = 1.0
        poly = template_reachable_bounds(sir_model, sir_x0, horizon,
                                         n_steps=120)
        for theta in (1.0, 5.5, 10.0):
            traj = solve_ode(sir_model.vector_field([theta]), sir_x0,
                             (0, horizon))
            assert poly.contains(traj.final_state, tol=1e-4)

    def test_lanes_match_scalar_sweeps(self, sir_model, sir_x0):
        poly = template_reachable_bounds(sir_model, sir_x0, 1.0, n_steps=80)
        for c, offset in zip(poly.directions, poly.offsets):
            scalar = ref.extremal_trajectory(sir_model, sir_x0, 1.0, c,
                                             n_steps=80)
            assert offset == pytest.approx(scalar.value, rel=1e-12,
                                           abs=1e-15)

    def test_box_template_matches_transient_bounds(self, sir_model, sir_x0):
        from repro.bounds import pontryagin_transient_bounds

        horizon = 1.0
        poly = template_reachable_bounds(sir_model, sir_x0, horizon,
                                         directions=box_directions(2),
                                         n_steps=120)
        lower, upper = poly.bounding_box()
        tb = pontryagin_transient_bounds(sir_model, sir_x0, [horizon],
                                         observables=["S", "I"],
                                         steps_per_unit=120)
        assert upper[1] == pytest.approx(tb.upper["I"][0], abs=1e-6)
        assert lower[1] == pytest.approx(tb.lower["I"][0], abs=1e-6)

    @pytest.mark.slow
    def test_four_dimensional_gps_map(self, gps_map):
        from repro.models import gps_initial_state_map

        poly = template_reachable_bounds(
            gps_map, gps_initial_state_map(), 2.0,
            directions=box_directions(4), n_steps=100,
        )
        lower, upper = poly.bounding_box()
        assert np.all(lower <= upper)
        # Queue fractions stay within the class budgets [0, 0.5].
        assert np.all(lower >= -1e-3)
        assert np.all(upper <= 0.5 + 1e-3)

    def test_direction_shape_validated(self, sir_model, sir_x0):
        with pytest.raises(ValueError):
            template_reachable_bounds(sir_model, sir_x0, 1.0,
                                      directions=np.ones((3, 5)))


class TestAsymptoticHull:
    @pytest.mark.slow
    def test_contains_birkhoff_centre(self, sir_model):
        region = birkhoff_centre_2d(sir_model, x0_guess=[0.7, 0.05])
        hull = asymptotic_reachable_hull(
            sir_model, [0.7, 0.3],
            horizons=np.array([5.0, 10.0, 20.0]),
            directions=octagon_directions(2),
            n_steps_per_unit=40,
        )
        for vertex in region.polygon.vertices:
            assert hull.contains(vertex, tol=1e-2)

    def test_ladder_lanes_match_scalar_sweeps(self, sir_model):
        # Two tail horizons with different step counts: ragged lanes.
        horizons = np.array([1.0, 2.0, 3.0])
        directions = box_directions(2)
        hull = asymptotic_reachable_hull(
            sir_model, [0.7, 0.3], horizons=horizons,
            directions=directions, n_steps_per_unit=30,
        )
        for c, offset in zip(directions, hull.offsets):
            best = max(
                ref.extremal_trajectory(sir_model, [0.7, 0.3], h, c,
                                        n_steps=max(60, int(np.ceil(h * 30)))
                                        ).value
                for h in horizons[1:]
            )
            assert offset == pytest.approx(best, rel=1e-12, abs=1e-15)

    def test_horizon_validation(self, sir_model):
        with pytest.raises(ValueError):
            asymptotic_reachable_hull(sir_model, [0.7, 0.3],
                                      horizons=np.array([5.0]))
        with pytest.raises(ValueError):
            asymptotic_reachable_hull(sir_model, [0.7, 0.3],
                                      horizons=np.array([5.0, 4.0]))
