"""Planar geometry utilities supporting the Birkhoff-centre algorithm.

The steady-state construction of Section V-C represents the candidate
Birkhoff centre of a two-dimensional differential inclusion as a convex
region delimited by trajectories.  This package provides the polygon
machinery that construction needs:

- :func:`convex_hull` — Andrew monotone-chain convex hull.
- :class:`ConvexPolygon` — a convex region with membership tests, outward
  normals, boundary sampling and distance queries.
- :func:`polygon_area`, :func:`point_in_polygon` — generic helpers that
  also work for non-convex polygons (used in tests and diagnostics).
"""

from repro.geometry.polygon import (
    ConvexPolygon,
    convex_hull,
    point_in_polygon,
    polygon_area,
)

__all__ = [
    "convex_hull",
    "ConvexPolygon",
    "polygon_area",
    "point_in_polygon",
]
