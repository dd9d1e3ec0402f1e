"""Convex polygons in the plane.

All functions operate on ``(n, 2)`` float arrays of vertex coordinates.
Polygons produced by :func:`convex_hull` are in counter-clockwise (CCW)
order, which is the orientation assumed by :class:`ConvexPolygon`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

import numpy as np

__all__ = [
    "convex_hull",
    "polygon_area",
    "point_in_polygon",
    "ConvexPolygon",
]


# Shewchuk's first error bound for the floating-point 2-D orientation
# determinant, (3 + 16 eps) eps with eps = 2**-53: a computed determinant
# larger than this times |left| + |right| has the sign of the exact one.
_ORIENT_RELATIVE_ERROR = 3.3306690738754716e-16
# The bound assumes no underflow; a product below the normal range can
# lose its low bits, so determinants this small are always recomputed.
_ORIENT_ABSOLUTE_ERROR = 1e-300


def _cross(o: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Z-component of the cross product (a - o) x (b - o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _orientation(o, a, b) -> int:
    """Exact sign of (a - o) x (b - o): 1 for a left turn, -1 right, 0 none.

    The floating-point determinant decides when it clears its rounding
    error bound; otherwise (near-collinear points, underflow, overflow)
    the sign is taken from the determinant in exact rational arithmetic,
    so a hull built on it never drops a true vertex to rounding.
    """
    left = (a[0] - o[0]) * (b[1] - o[1])
    right = (a[1] - o[1]) * (b[0] - o[0])
    det = left - right
    if abs(det) > (_ORIENT_RELATIVE_ERROR * (abs(left) + abs(right))
                   + _ORIENT_ABSOLUTE_ERROR):
        return 1 if det > 0.0 else -1
    ox, oy = Fraction(o[0]), Fraction(o[1])
    exact = ((Fraction(a[0]) - ox) * (Fraction(b[1]) - oy)
             - (Fraction(a[1]) - oy) * (Fraction(b[0]) - ox))
    return (exact > 0) - (exact < 0)


def convex_hull(points) -> np.ndarray:
    """Return the convex hull of a point cloud in CCW order.

    Implements Andrew's monotone-chain algorithm, O(n log n), on exact
    orientation signs (:func:`_orientation`).  Collinear points on the
    hull boundary are dropped, so the result is a *strictly* convex
    vertex list, and a superset of a non-collinear set never hulls to a
    segment.  Degenerate inputs (all points collinear) return
    the two extreme points; a single point returns itself.  A NaN or
    infinite coordinate raises ``ValueError`` (it would otherwise corrupt
    the lexicographic sort into a non-convex vertex list).

    >>> convex_hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
    array([[0., 0.],
           [1., 0.],
           [1., 1.],
           [0., 1.]])
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) array, got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise ValueError("cannot take the hull of an empty point set")
    if not np.all(np.isfinite(pts)):
        raise ValueError("cannot take the hull of non-finite points")
    # Sort lexicographically and drop exact duplicates.
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.diff(pts, axis=0) != 0.0, axis=1)
    pts = pts[keep]
    if pts.shape[0] == 1:
        return pts.copy()
    if pts.shape[0] == 2:
        return pts.copy()

    def half_hull(points_sorted):
        stack = []
        for p in points_sorted:
            while len(stack) >= 2 and _orientation(stack[-2], stack[-1], p) <= 0:
                stack.pop()
            stack.append(p)
        return stack

    rows = pts.tolist()
    lower = half_hull(rows)
    upper = half_hull(rows[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if hull.shape[0] < 3:
        # All points collinear: return the extreme pair.
        return np.array([pts[0], pts[-1]])
    return hull


def polygon_area(vertices) -> float:
    """Signed area of a polygon (positive when CCW), via the shoelace formula."""
    verts = np.asarray(vertices, dtype=float)
    if verts.shape[0] < 3:
        return 0.0
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def point_in_polygon(point, vertices, tol: float = 1e-12) -> bool:
    """Ray-casting membership test; boundary points count as inside.

    Works for arbitrary simple polygons, convex or not.
    """
    verts = np.asarray(vertices, dtype=float)
    px, py = float(point[0]), float(point[1])
    n = verts.shape[0]
    if n == 0:
        return False
    if n == 1:
        return bool(np.hypot(px - verts[0, 0], py - verts[0, 1]) <= tol)
    # Boundary check: distance from each edge segment.
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        ab = b - a
        denom = float(ab @ ab)
        if denom < tol * tol:
            continue
        t = np.clip(((px - a[0]) * ab[0] + (py - a[1]) * ab[1]) / denom, 0.0, 1.0)
        proj = a + t * ab
        if np.hypot(px - proj[0], py - proj[1]) <= tol:
            return True
    if n == 2:
        return False
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = verts[i]
        xj, yj = verts[j]
        if (yi > py) != (yj > py):
            x_cross = xi + (py - yi) * (xj - xi) / (yj - yi)
            if px < x_cross:
                inside = not inside
        j = i
    return inside


class ConvexPolygon:
    """A convex region of the plane, stored as CCW hull vertices.

    This is the region container used by the Birkhoff-centre growth loop
    (Section V-C of the paper): the loop adds trajectory points with
    :meth:`expanded_with`, inspects :meth:`boundary_points` and
    :meth:`outward_normals` to look for escaping drift directions, and
    reports :meth:`contains` / :meth:`distance` for Figure 6 diagnostics.
    """

    def __init__(self, points):
        hull = convex_hull(points)
        if hull.shape[0] < 3:
            raise ValueError(
                "a ConvexPolygon needs at least 3 non-collinear points; "
                f"hull had {hull.shape[0]} vertices"
            )
        self.vertices = hull

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def area(self) -> float:
        """Area of the region (always positive: vertices are CCW)."""
        return polygon_area(self.vertices)

    def contains(self, point, tol: float = 1e-9) -> bool:
        """Membership with a tolerance measured as distance to the region."""
        return self.distance(point) <= tol

    def distance(self, point) -> float:
        """Euclidean distance from ``point`` to the region (0 if inside).

        A point with a non-positive :meth:`signed_margin` lies in every
        edge halfspace and so inside the region; otherwise the distance
        is the nearest of the point's projections onto the edge segments.
        """
        p = np.asarray(point, dtype=float)
        if self.signed_margin(p)[0] <= 0.0:
            return 0.0
        ab = self.edges()
        ap = p[None, :] - self.vertices
        denom = np.einsum("ij,ij->i", ab, ab)
        denom[denom == 0.0] = 1.0
        t = np.clip(np.einsum("ij,ij->i", ap, ab) / denom, 0.0, 1.0)
        gaps = ap - t[:, None] * ab
        return float(np.min(np.hypot(gaps[:, 0], gaps[:, 1])))

    def signed_margin(self, points) -> np.ndarray:
        """Vectorised signed distance proxy to the boundary.

        For each point returns ``max_e (n_e . p - b_e)`` over the edge
        halfspaces: negative inside, and for outside points a lower bound
        on the true distance (exact when the nearest boundary point lies
        in an edge interior).  Used for fast "did the region actually
        grow" checks on large point clouds.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        normals = self.outward_normals()
        offsets = np.einsum("ij,ij->i", normals, self.vertices)
        return np.max(pts @ normals.T - offsets[None, :], axis=1)

    def edges(self) -> np.ndarray:
        """Edge vectors ``v[i+1] - v[i]``, shape ``(n, 2)``."""
        return np.roll(self.vertices, -1, axis=0) - self.vertices

    def outward_normals(self) -> np.ndarray:
        """Unit outward normals of each edge, shape ``(n, 2)``.

        Vertices are CCW, so the outward normal of edge ``(dx, dy)`` is
        ``(dy, -dx)`` normalised.
        """
        e = self.edges()
        normals = np.stack([e[:, 1], -e[:, 0]], axis=1)
        lengths = np.linalg.norm(normals, axis=1, keepdims=True)
        lengths[lengths == 0.0] = 1.0
        return normals / lengths

    def boundary_points(self, per_edge: int = 1) -> Tuple[np.ndarray, np.ndarray]:
        """Sample points on the boundary with their outward normals.

        Returns ``(points, normals)`` where each edge contributes
        ``per_edge`` equally spaced interior points (no shared vertices, so
        every sampled point has a well-defined normal).
        """
        if per_edge < 1:
            raise ValueError("per_edge must be >= 1")
        normals = self.outward_normals()
        pts, nrm = [], []
        n = self.n_vertices
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            for k in range(per_edge):
                t = (k + 1.0) / (per_edge + 1.0)
                pts.append(a + t * (b - a))
                nrm.append(normals[i])
        return np.array(pts), np.array(nrm)

    def expanded_with(self, points) -> "ConvexPolygon":
        """Return the convex hull of this region together with new points.

        Points with a non-positive :meth:`signed_margin` lie inside the
        region and cannot be vertices of the new hull, so only the points
        outside it are re-hulled with the current vertices.  A NaN or
        infinite point raises ``ValueError`` (its margin would compare
        false and drop it silently).
        """
        extra = np.asarray(points, dtype=float)
        if extra.ndim == 1:
            extra = extra[None, :]
        if not np.all(np.isfinite(extra)):
            raise ValueError("cannot expand a region with non-finite points")
        outside = extra[self.signed_margin(extra) > 0.0]
        return ConvexPolygon(np.vstack([self.vertices, outside]))

    def simplified(self, tolerance: float, min_vertices: int = 8) -> "ConvexPolygon":
        """Drop vertices that deviate less than ``tolerance`` from their chord.

        Hulls of smooth trajectory clouds carry thousands of nearly
        collinear vertices; removing a vertex whose perpendicular
        distance to the chord of its neighbours is below ``tolerance``
        changes the region by at most ``tolerance`` locally while
        collapsing the vertex count.  The result is a subset of the
        original region (vertex removal only shrinks a convex polygon).
        """
        if tolerance <= 0:
            return ConvexPolygon(self.vertices)
        vertices = self.vertices
        changed = True
        while changed and vertices.shape[0] > min_vertices:
            changed = False
            keep = np.ones(vertices.shape[0], dtype=bool)
            n = vertices.shape[0]
            i = 0
            while i < n and np.count_nonzero(keep) > min_vertices:
                if not keep[i]:
                    i += 1
                    continue
                prev_i = (i - 1) % n
                next_i = (i + 1) % n
                while not keep[prev_i]:
                    prev_i = (prev_i - 1) % n
                while not keep[next_i]:
                    next_i = (next_i + 1) % n
                a, b, c = vertices[prev_i], vertices[i], vertices[next_i]
                chord = c - a
                norm = np.hypot(*chord)
                if norm < 1e-15:
                    deviation = float(np.hypot(*(b - a)))
                else:
                    deviation = abs(_cross(a, c, b)) / norm
                if deviation < tolerance:
                    keep[i] = False
                    changed = True
                    i += 2  # skip the neighbour to avoid cascading drops
                else:
                    i += 1
            vertices = vertices[keep]
        if vertices.shape[0] < 3:
            return ConvexPolygon(self.vertices)
        return ConvexPolygon(vertices)

    def __repr__(self) -> str:
        return f"ConvexPolygon({self.n_vertices} vertices, area={self.area:.4g})"
