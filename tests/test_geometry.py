"""Unit tests for planar geometry (repro.geometry)."""

import numpy as np
import pytest
import reference_impls as ref
from hypothesis import assume, example, given
from hypothesis import strategies as st

from repro.geometry import (
    ConvexPolygon,
    convex_hull,
    point_in_polygon,
    polygon_area,
    polygon_centroid,
    segment_midpoints,
)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

coordinates = st.floats(min_value=-100.0, max_value=100.0,
                        allow_nan=False, allow_infinity=False)


def point_clouds(min_size, max_size):
    return st.lists(st.tuples(coordinates, coordinates),
                    min_size=min_size, max_size=max_size).map(
        lambda pts: np.array(pts, dtype=float).reshape(-1, 2))


class TestConvexHull:
    def test_square_with_interior_point(self):
        hull = convex_hull(UNIT_SQUARE + [(0.5, 0.5)])
        assert hull.shape == (4, 2)

    def test_ccw_orientation(self):
        hull = convex_hull(UNIT_SQUARE)
        assert polygon_area(hull) > 0

    def test_collinear_points_dropped(self):
        hull = convex_hull([(0, 0), (0.5, 0.0), (1, 0), (1, 1), (0, 1)])
        assert hull.shape == (4, 2)

    def test_duplicates_dropped(self):
        hull = convex_hull(UNIT_SQUARE + UNIT_SQUARE)
        assert hull.shape == (4, 2)

    def test_near_collinear_sign_is_exact(self):
        # In floats every turn through (-1, 1) here rounds to zero; the
        # exact signs keep the sliver a triangle and its superset too.
        sliver = [(0.0, 0.0), (8e-266, -8e-237), (-1.0, 1.0)]
        assert convex_hull(sliver).shape == (3, 2)
        grown = convex_hull(sliver + [(1e-51, 0.0)])
        np.testing.assert_array_equal(
            grown, [[-1.0, 1.0], [8e-266, -8e-237], [1e-51, 0.0]])

    def test_all_collinear_returns_extremes(self):
        hull = convex_hull([(0, 0), (1, 1), (2, 2), (0.3, 0.3)])
        assert hull.shape == (2, 2)
        np.testing.assert_allclose(hull, [[0, 0], [2, 2]])

    def test_single_point(self):
        hull = convex_hull([(3.0, 4.0)])
        np.testing.assert_allclose(hull, [[3.0, 4.0]])

    def test_two_points(self):
        hull = convex_hull([(0, 0), (1, 0)])
        assert hull.shape == (2, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convex_hull(np.empty((0, 2)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            convex_hull([[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            convex_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [bad, 0.5]])

    def test_random_cloud_contains_all_points(self, rng):
        pts = rng.normal(size=(200, 2))
        hull = convex_hull(pts)
        poly = ConvexPolygon(hull)
        for p in pts:
            assert poly.contains(p, tol=1e-9)


class TestAreaCentroid:
    def test_unit_square_area(self):
        assert polygon_area(UNIT_SQUARE) == pytest.approx(1.0)

    def test_cw_area_negative(self):
        assert polygon_area(UNIT_SQUARE[::-1]) == pytest.approx(-1.0)

    def test_triangle_area(self):
        assert polygon_area([(0, 0), (2, 0), (0, 2)]) == pytest.approx(2.0)

    def test_degenerate_area_zero(self):
        assert polygon_area([(0, 0), (1, 1)]) == 0.0

    def test_square_centroid(self):
        np.testing.assert_allclose(polygon_centroid(UNIT_SQUARE), [0.5, 0.5])

    def test_degenerate_centroid_is_mean(self):
        np.testing.assert_allclose(
            polygon_centroid([(0, 0), (2, 2)]), [1.0, 1.0]
        )


class TestPointInPolygon:
    def test_interior(self):
        assert point_in_polygon((0.5, 0.5), UNIT_SQUARE)

    def test_exterior(self):
        assert not point_in_polygon((1.5, 0.5), UNIT_SQUARE)

    def test_boundary_counts_inside(self):
        assert point_in_polygon((0.5, 0.0), UNIT_SQUARE, tol=1e-9)
        assert point_in_polygon((1.0, 1.0), UNIT_SQUARE, tol=1e-9)

    def test_nonconvex_polygon(self):
        # L-shape: point in the notch is outside.
        l_shape = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        assert point_in_polygon((0.5, 1.5), l_shape)
        assert not point_in_polygon((1.5, 1.5), l_shape)

    def test_empty_polygon(self):
        assert not point_in_polygon((0.0, 0.0), np.empty((0, 2)))

    def test_single_vertex(self):
        assert point_in_polygon((1.0, 1.0), [(1.0, 1.0)])
        assert not point_in_polygon((1.1, 1.0), [(1.0, 1.0)])


class TestSegmentMidpoints:
    def test_square_midpoints(self):
        mids = segment_midpoints(UNIT_SQUARE)
        assert mids.shape == (4, 2)
        np.testing.assert_allclose(mids[0], [0.5, 0.0])
        np.testing.assert_allclose(mids[-1], [0.0, 0.5])


class TestConvexPolygon:
    def test_construction_hulls_input(self):
        poly = ConvexPolygon(UNIT_SQUARE + [(0.5, 0.5)])
        assert poly.n_vertices == 4

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon([(0, 0), (1, 1), (2, 2)])

    def test_non_finite_vertex_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ConvexPolygon(UNIT_SQUARE + [(np.nan, 0.5)])

    def test_area_and_centroid(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        assert poly.area == pytest.approx(1.0)
        np.testing.assert_allclose(poly.centroid, [0.5, 0.5])

    def test_contains(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        assert poly.contains((0.3, 0.7))
        assert not poly.contains((1.2, 0.5))

    def test_contains_with_tolerance(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        assert poly.contains((1.0005, 0.5), tol=1e-3)
        assert not poly.contains((1.01, 0.5), tol=1e-3)

    def test_distance_inside_zero(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        assert poly.distance((0.5, 0.5)) == 0.0

    def test_distance_outside(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        assert poly.distance((2.0, 0.5)) == pytest.approx(1.0)
        assert poly.distance((2.0, 2.0)) == pytest.approx(np.sqrt(2.0))

    def test_outward_normals_unit_and_outward(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        normals = poly.outward_normals()
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0)
        mids = segment_midpoints(poly.vertices)
        centroid = poly.centroid
        for mid, n in zip(mids, normals):
            assert (mid - centroid) @ n > 0

    def test_boundary_points_on_boundary(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        pts, normals = poly.boundary_points(per_edge=3)
        assert pts.shape == (12, 2)
        assert normals.shape == (12, 2)
        for p in pts:
            assert poly.distance(p) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_points_invalid(self):
        with pytest.raises(ValueError):
            ConvexPolygon(UNIT_SQUARE).boundary_points(per_edge=0)

    def test_signed_margin_signs(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        margins = poly.signed_margin([(0.5, 0.5), (2.0, 0.5), (1.0, 0.5)])
        assert margins[0] < 0
        assert margins[1] == pytest.approx(1.0)
        assert margins[2] == pytest.approx(0.0, abs=1e-12)

    def test_expanded_with_grows(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        grown = poly.expanded_with([(2.0, 0.5)])
        assert grown.area > poly.area
        assert grown.contains((1.5, 0.5))

    def test_expanded_with_interior_point_no_change(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        same = poly.expanded_with([(0.5, 0.5)])
        assert same.area == pytest.approx(poly.area)

    @pytest.mark.parametrize("bad", [(np.nan, 2.0), (0.5, np.inf)])
    def test_expanded_with_non_finite_point_rejected(self, bad):
        # The inside-point filter compares margins, and a NaN margin
        # compares false: the point must be rejected, not dropped.
        with pytest.raises(ValueError, match="non-finite"):
            ConvexPolygon(UNIT_SQUARE).expanded_with([bad])

    def test_simplified_reduces_vertices(self):
        angles = np.linspace(0, 2 * np.pi, 500, endpoint=False)
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        poly = ConvexPolygon(circle)
        simple = poly.simplified(1e-3)
        assert simple.n_vertices < poly.n_vertices
        # Simplification only shrinks, and not by much.
        assert simple.area <= poly.area + 1e-12
        assert simple.area > 0.95 * poly.area

    def test_simplified_zero_tolerance_identity(self):
        poly = ConvexPolygon(UNIT_SQUARE)
        same = poly.simplified(0.0)
        assert same.n_vertices == 4

    def test_repr(self):
        assert "ConvexPolygon" in repr(ConvexPolygon(UNIT_SQUARE))


class TestConvexPolygonMatchesLoopReference:
    """The half-space queries against the ray cast and per-edge loop."""

    @given(cloud=point_clouds(3, 30), queries=point_clouds(1, 20),
           tol=st.floats(min_value=0.0, max_value=10.0))
    def test_distance_and_contains(self, cloud, queries, tol):
        assume(convex_hull(cloud).shape[0] >= 3)
        poly = ConvexPolygon(cloud)
        for p in np.vstack([queries, cloud]):
            expected = ref.polygon_distance(poly, p)
            assert abs(poly.distance(p) - expected) <= 1e-12
            if abs(expected - tol) > 1e-12:
                assert poly.contains(p, tol=tol) == ref.polygon_contains(
                    poly, p, tol=tol)

    @given(cloud=point_clouds(3, 30), extra=point_clouds(1, 30))
    # A sliver whose float orientation signs cancel against (-1, 1): the
    # grown hull once collapsed to a segment and raised.
    @example(cloud=np.array([(0.0, 0.0),
                             (8.11222477485464e-266, -8.23160345326986e-237),
                             (-1.0, 1.0)]),
             extra=np.array([(1.32136918e-51, 0.0)]))
    def test_expanded_with_matches_unfiltered_hull(self, cloud, extra):
        assume(convex_hull(cloud).shape[0] >= 3)
        poly = ConvexPolygon(cloud)
        grown = poly.expanded_with(extra)
        unfiltered = ConvexPolygon(np.vstack([poly.vertices, extra]))
        assert abs(grown.area - unfiltered.area) <= 1e-12 * unfiltered.area
        for p in np.vstack([poly.vertices, extra]):
            assert grown.distance(p) <= 1e-12
