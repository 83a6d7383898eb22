"""Spherical regions used by the AREA clause and the HTM cover algorithm.

Two region shapes are provided:

* :class:`Cap` — a spherical cap ("circle on the sky"), the paper's AREA
  clause shape: a center (ra, dec in degrees) and an angular radius.
* :class:`ConvexPolygon` — intersection of half-spaces through the origin,
  supporting the paper's proposed extension to polygonal AREA clauses
  (Section 6, "The AREA clause can also be extended to specify arbitrary
  polygons").

Both implement the :class:`Region` interface needed by the HTM cover:
point containment plus a conservative trixel classification, one
triangle at a time (:meth:`Region.classify_triangle`) or a whole array
of triangles at once (:meth:`Region.classify_triangles`). The array form
repeats the scalar float operations in the same order, so both give the
same verdict for every triangle.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence, Tuple

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


#: Relation codes of the array classifiers, one int8 per triangle.
INSIDE, PARTIAL, OUTSIDE = 0, 1, 2

#: Edge verdicts whose arc angle lies this close (radians) to its
#: ``ab + 1e-12`` threshold are decided again by the scalar
#: ``Cap._intersects_edge``. ``np.arctan2`` is not guaranteed bitwise equal
#: to ``math.atan2``; both are within a few ulps (under 4.4e-16 rad) of the
#: true angle, so every verdict outside this band agrees.
ATAN2_GUARD_RAD = 1e-14

#: Index rolls by one and by two: the second vertex of each triangle edge
#: (v0,v1), (v1,v2), (v2,v0), and the cross product's component pattern.
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


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
    def classify_triangles(self, corners: np.ndarray) -> np.ndarray:
        """:meth:`classify_triangle` for ``(n, 3, 3)`` triangles at once.

        Returns an int8 array of :data:`INSIDE` / :data:`PARTIAL` /
        :data:`OUTSIDE` codes that agrees with the scalar verdicts
        triangle for triangle.
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

    def classify_triangles(self, corners: np.ndarray) -> np.ndarray:
        return self._as_rows.classify(corners)

    @cached_property
    def _as_rows(self) -> "CapRows":
        return CapRows((self,))

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


def _per_row(value, ndim: int):
    """A scalar as is; a per-row array shaped to broadcast over ``ndim`` axes."""
    return value.reshape((-1,) + (1,) * (ndim - 1)) if np.ndim(value) else value


def _dots(vectors: np.ndarray, center: np.ndarray) -> np.ndarray:
    """``dot(center, v)`` for every vector of ``(n, ..., 3)`` rows.

    ``center`` is one ``(3,)`` vector or one per row, ``(n, 3)``; the
    products are summed x, y, z left to right, as :func:`dot` does.
    """
    if center.ndim > 1:
        center = center.reshape((len(center),) + (1,) * (vectors.ndim - 2) + (3,))
    return (
        vectors[..., 0] * center[..., 0]
        + vectors[..., 1] * center[..., 1]
        + vectors[..., 2] * center[..., 2]
    )


def _crosses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`cross` of matching rows of two ``(..., 3)`` arrays.

    Component ``i`` is ``a[i+1] * b[i+2] - a[i+2] * b[i+1]`` (indices mod
    3), the scalar formula component for component.
    """
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _norms(v: np.ndarray) -> np.ndarray:
    """:func:`repro.sphere.vector.norm` of every row of a ``(..., 3)`` array."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2])


def _separations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`angular_separation` of matching rows, with ``np.arctan2``."""
    dots = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]
    return np.arctan2(_norms(_crosses(a, b)), dots)


class CapRows:
    """Caps as parameter arrays, for classifying many triangles at once.

    :meth:`classify` is :meth:`Cap.classify_triangle` for ``n`` rows of
    triangles, each against one cap of the set: the same center, the same
    ``math``-computed thresholds and the same float operations in the same
    order, so every verdict is the scalar one. One cap classifying a whole
    quad-tree level and many caps classifying their own frontiers share
    this code.
    """

    def __init__(self, caps: Sequence[Cap]) -> None:
        self.caps: Tuple[Cap, ...] = tuple(caps)
        self.centers = np.array([cap.center for cap in self.caps], dtype=np.float64)
        self.contains_thr = np.array(
            [cap.cos_radius - 1e-15 for cap in self.caps], dtype=np.float64
        )
        self.sin_bound = np.array(
            [math.sin(min(cap.radius_rad, math.pi / 2.0)) for cap in self.caps],
            dtype=np.float64,
        )
        self.wide = np.array(
            [cap.radius_rad > math.pi / 2.0 for cap in self.caps], dtype=bool
        )

    def _params(self, owner: Optional[np.ndarray]):
        """``(center, contains threshold, sin bound, wide)`` per row, or
        cap 0's for every row when ``owner`` is None."""
        pick = 0 if owner is None else owner
        return (
            self.centers[pick], self.contains_thr[pick],
            self.sin_bound[pick], self.wide[pick],
        )

    def classify(
        self, corners: np.ndarray, owner: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Relation codes of ``(n, 3, 3)`` triangles.

        Row ``i`` is classified against cap ``owner[i]``, or against the
        set's only cap when ``owner`` is None.
        """
        center, thr, _, wide = self._params(owner)
        inside = _dots(corners, center) >= _per_row(thr, 2)
        any_in = inside.any(axis=1)
        codes = np.where(any_in, np.int8(PARTIAL), np.int8(OUTSIDE))
        # All corners inside: INSIDE, except for caps wider than a
        # hemisphere, which are not convex and stay PARTIAL.
        codes[inside.all(axis=1) & ~wide] = INSIDE
        rest = np.flatnonzero(~any_in)
        if len(rest):
            sub = None if owner is None else owner[rest]
            codes[rest[self._meets(corners[rest], sub)]] = PARTIAL
        return codes

    def _meets(self, corners: np.ndarray, owner: Optional[np.ndarray]) -> np.ndarray:
        """For triangles with no corner inside: the cap center lies in the
        triangle (``Cap._center_in_triangle``), or the cap meets one of
        its edges (``Cap._intersects_any_edge``)."""
        center, _, bound, _ = self._params(owner)
        ends = corners[:, _NEXT]
        crosses = _crosses(corners, ends)
        met = (_dots(crosses, center) >= -1e-15).all(axis=1)
        rest = np.flatnonzero(~met)
        if not len(rest):
            return met
        crosses = crosses[rest]
        # _intersects_edge's early exits: a degenerate edge, or a great
        # circle farther from the center than the radius.
        lengths = _norms(crosses)
        usable = lengths >= 1e-300
        normals = crosses / np.where(usable, lengths, 1.0)[..., None]
        sin_dist = _dots(normals, center if owner is None else center[rest])
        near = usable & (np.abs(sin_dist) <= _per_row(bound if owner is None else bound[rest], 2))
        row, edge = np.nonzero(near)
        if len(row):
            sub = rest[row]
            hit = self._meets_arc(
                corners[sub, edge], ends[sub, edge], normals[row, edge],
                sin_dist[row, edge], None if owner is None else owner[sub],
            )
            met[sub[hit]] = True
        return met

    def _meets_arc(
        self,
        a: np.ndarray,
        b: np.ndarray,
        normals: np.ndarray,
        sin_dist: np.ndarray,
        owner: Optional[np.ndarray],
    ) -> np.ndarray:
        """The rest of ``Cap._intersects_edge`` for edges ``a``-``b``
        (``(k, 3)`` each) whose great circle passes within the radius:
        the foot of the center on that circle lies on the arc and in the
        cap."""
        center, thr, _, _ = self._params(owner)
        foot = center + normals * -sin_dist[:, None]
        foot_len = _norms(foot)
        found = foot_len >= 1e-300
        foot = foot / np.where(found, foot_len, 1.0)[:, None]
        # _on_arc: the angles a-b, a-foot and foot-b in one pass.
        angles = _separations(np.stack((a, a, foot)), np.stack((b, foot, b)))
        limit = angles[0] + 1e-12
        verdict = (
            found
            & (angles[1] <= limit)
            & (angles[2] <= limit)
            & (_dots(foot, center) >= thr)
        )
        unsure = np.flatnonzero(
            found & (np.abs(angles[1:] - limit).min(axis=0) <= ATAN2_GUARD_RAD)
        )
        for k in unsure.tolist():
            cap = self.caps[0 if owner is None else owner[k]]
            verdict[k] = cap._intersects_edge(tuple(a[k].tolist()), tuple(b[k].tolist()))
        return verdict


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
        self._bound = _enclosing_cap(self.vertices)

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
        if self._bound.classify_triangle(corners) is TrixelRelation.OUTSIDE:
            return TrixelRelation.OUTSIDE
        return TrixelRelation.PARTIAL

    def classify_triangles(self, corners: np.ndarray) -> np.ndarray:
        inside = self.contains_many(corners.reshape(-1, 3)).reshape(-1, 3)
        codes = np.where(inside.all(axis=1), INSIDE, PARTIAL).astype(np.int8)
        rest = np.flatnonzero(~inside.any(axis=1))
        if len(rest):
            apart = self._bound.classify_triangles(corners[rest]) == OUTSIDE
            codes[rest[apart]] = OUTSIDE
        return codes

    def bounding_cap(self) -> Cap:
        return self._bound


def _enclosing_cap(vertices: Sequence[Vec3]) -> Cap:
    """A cap about the vertices' normalized centroid that holds them all."""
    centroid = normalize(
        (
            sum(v[0] for v in vertices),
            sum(v[1] for v in vertices),
            sum(v[2] for v in vertices),
        )
    )
    radius = max(angular_separation(centroid, v) for v in vertices)
    return Cap(centroid, min(math.pi, radius + 1e-12))
