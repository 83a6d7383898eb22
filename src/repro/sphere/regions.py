"""Spherical regions used by the AREA clause and the HTM cover algorithm.

Two region shapes are provided:

* :class:`Cap` — a spherical cap ("circle on the sky"), the paper's AREA
  clause shape: a center (ra, dec in degrees) and an angular radius.
* :class:`ConvexPolygon` — intersection of half-spaces through the origin,
  supporting the paper's proposed extension to polygonal AREA clauses
  (Section 6, "The AREA clause can also be extended to specify arbitrary
  polygons").

Both implement the :class:`Region` interface needed by the HTM cover:
point containment plus a conservative trixel classification.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.sphere.coords import radec_to_vector
from repro.sphere.distance import angular_separation
from repro.sphere.vector import Vec3, add, cross, dot, normalize, scale
from repro.units import arcsec_to_rad


class TrixelRelation(Enum):
    """How a spherical triangle relates to a region."""

    INSIDE = "inside"
    PARTIAL = "partial"
    OUTSIDE = "outside"


class Region(ABC):
    """A region on the unit sphere."""

    @abstractmethod
    def contains(self, v: Vec3) -> bool:
        """True if the unit vector ``v`` lies inside the region."""

    @abstractmethod
    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """:meth:`contains` for every row of an ``(n, 3)`` array at once.

        Returns a boolean array. Implementations repeat ``contains``'s
        float operations in the same order, so the verdicts agree bitwise.
        """

    @abstractmethod
    def classify_triangle(self, corners: Sequence[Vec3]) -> TrixelRelation:
        """Classify a spherical triangle against the region.

        The classification must be *conservative*: INSIDE and OUTSIDE must be
        exact, anything uncertain must be reported PARTIAL. The HTM cover
        relies on this to produce a superset of matching trixels whose
        PARTIAL members are then filtered point-by-point.
        """

    @abstractmethod
    def bounding_cap(self) -> "Cap":
        """A cap that contains the whole region (used for quick rejection)."""


@dataclass(frozen=True)
class Cap(Region):
    """Spherical cap: all points within ``radius_rad`` of ``center``."""

    center: Vec3
    radius_rad: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.radius_rad <= math.pi:
            raise GeometryError(
                f"cap radius {self.radius_rad!r} rad outside [0, pi]"
            )
        object.__setattr__(self, "center", normalize(self.center))

    @classmethod
    def from_radec(cls, ra_deg: float, dec_deg: float, radius_arcsec: float) -> "Cap":
        """Build a cap from the paper's AREA(ra, dec, radius) convention.

        The AREA radius is given in arcseconds, matching the sample query
        AREA(185.0, -0.5, 4.5) whose radius the paper describes as
        "4.5 arc seconds".
        """
        if radius_arcsec < 0:
            raise GeometryError(f"negative AREA radius {radius_arcsec!r}")
        return cls(radec_to_vector(ra_deg, dec_deg), arcsec_to_rad(radius_arcsec))

    @property
    def cos_radius(self) -> float:
        """Cosine of the angular radius (containment threshold)."""
        return math.cos(self.radius_rad)

    def contains(self, v: Vec3) -> bool:
        return dot(self.center, v) >= self.cos_radius - 1e-15

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        cx, cy, cz = self.center
        return (
            cx * points[:, 0] + cy * points[:, 1] + cz * points[:, 2]
            >= self.cos_radius - 1e-15
        )

    def classify_triangle(self, corners: Sequence[Vec3]) -> TrixelRelation:
        inside = [self.contains(c) for c in corners]
        if all(inside):
            # All corners inside a cap means the whole (small) triangle is
            # inside only if the cap is convex w.r.t. the triangle, which
            # holds for caps with radius <= pi/2; larger caps are handled
            # conservatively.
            if self.radius_rad <= math.pi / 2.0:
                return TrixelRelation.INSIDE
            return TrixelRelation.PARTIAL
        if any(inside):
            return TrixelRelation.PARTIAL
        # No corner inside: the cap may still poke through an edge or lie
        # strictly inside the triangle. Check edge distances and whether the
        # cap center is inside the triangle.
        if self._center_in_triangle(corners) or self._intersects_any_edge(corners):
            return TrixelRelation.PARTIAL
        return TrixelRelation.OUTSIDE

    def bounding_cap(self) -> "Cap":
        return self

    def _center_in_triangle(self, corners: Sequence[Vec3]) -> bool:
        v0, v1, v2 = corners
        return (
            dot(cross(v0, v1), self.center) >= -1e-15
            and dot(cross(v1, v2), self.center) >= -1e-15
            and dot(cross(v2, v0), self.center) >= -1e-15
        )

    def _intersects_any_edge(self, corners: Sequence[Vec3]) -> bool:
        v0, v1, v2 = corners
        for a, b in ((v0, v1), (v1, v2), (v2, v0)):
            if self._intersects_edge(a, b):
                return True
        return False

    def _intersects_edge(self, a: Vec3, b: Vec3) -> bool:
        """True if the cap boundary/interior meets the great-circle arc a-b."""
        # Distance from cap center to the great circle through a, b.
        try:
            plane_normal = normalize(cross(a, b))
        except GeometryError:
            return False  # degenerate edge
        sin_dist = dot(plane_normal, self.center)
        if abs(sin_dist) > math.sin(min(self.radius_rad, math.pi / 2.0)):
            return False
        # Closest point on the great circle to the cap center.
        foot = sub_projection(self.center, plane_normal)
        try:
            foot = normalize(foot)
        except GeometryError:
            return False
        # The closest point must lie on the arc segment between a and b.
        return _on_arc(foot, a, b) and self.contains(foot)


def sub_projection(v: Vec3, unit_normal: Vec3) -> Vec3:
    """Project ``v`` onto the plane with the given unit normal."""
    return add(v, scale(unit_normal, -dot(v, unit_normal)))


def _on_arc(p: Vec3, a: Vec3, b: Vec3) -> bool:
    """True if unit vector ``p`` on the great circle of a,b lies between them."""
    ab = angular_separation(a, b)
    return (
        angular_separation(a, p) <= ab + 1e-12
        and angular_separation(p, b) <= ab + 1e-12
    )


class ConvexPolygon(Region):
    """Convex spherical polygon given by vertices in counter-clockwise order.

    Interior = intersection of the half-spaces defined by consecutive vertex
    pairs. Implements the polygon extension the paper lists as future work.
    """

    def __init__(self, vertices: Sequence[Vec3]) -> None:
        if len(vertices) < 3:
            raise GeometryError("a spherical polygon needs at least 3 vertices")
        self.vertices: Tuple[Vec3, ...] = tuple(normalize(v) for v in vertices)
        self._edges: Tuple[Vec3, ...] = tuple(
            normalize(cross(self.vertices[i], self.vertices[(i + 1) % len(self.vertices)]))
            for i in range(len(self.vertices))
        )
        # Verify convexity / orientation: every vertex must be on the
        # non-negative side of every edge plane.
        for v in self.vertices:
            for e in self._edges:
                if dot(e, v) < -1e-9:
                    raise GeometryError(
                        "polygon vertices are not in counter-clockwise convex order"
                    )

    @classmethod
    def from_radec(cls, points_deg: Sequence[Tuple[float, float]]) -> "ConvexPolygon":
        """Build from (ra, dec) pairs in degrees."""
        return cls([radec_to_vector(ra, dec) for ra, dec in points_deg])

    def contains(self, v: Vec3) -> bool:
        return all(dot(e, v) >= -1e-15 for e in self._edges)

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        inside = np.ones(len(points), dtype=bool)
        for ex, ey, ez in self._edges:
            inside &= (
                ex * points[:, 0] + ey * points[:, 1] + ez * points[:, 2]
                >= -1e-15
            )
        return inside

    def classify_triangle(self, corners: Sequence[Vec3]) -> TrixelRelation:
        inside = [self.contains(c) for c in corners]
        if all(inside):
            return TrixelRelation.INSIDE
        # Conservative: unless the triangle is clearly disjoint from the
        # polygon's bounding cap, call it PARTIAL.
        if any(inside):
            return TrixelRelation.PARTIAL
        bound = self.bounding_cap()
        if bound.classify_triangle(corners) is TrixelRelation.OUTSIDE:
            return TrixelRelation.OUTSIDE
        return TrixelRelation.PARTIAL

    def bounding_cap(self) -> Cap:
        centroid = normalize(
            (
                sum(v[0] for v in self.vertices),
                sum(v[1] for v in self.vertices),
                sum(v[2] for v in self.vertices),
            )
        )
        radius = max(angular_separation(centroid, v) for v in self.vertices)
        return Cap(centroid, min(math.pi, radius + 1e-12))
