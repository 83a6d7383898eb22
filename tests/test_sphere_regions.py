"""Spherical regions: caps and convex polygons."""

import math
import random

import pytest

from repro.errors import GeometryError
from repro.sphere.coords import radec_to_vector
from repro.sphere.random import random_in_cap, random_on_sphere
from repro.sphere.regions import Cap, ConvexPolygon, TrixelRelation


class TestCap:
    def test_contains_center(self):
        cap = Cap.from_radec(185.0, -0.5, 4.5)
        assert cap.contains(radec_to_vector(185.0, -0.5))

    def test_contains_point_just_inside(self):
        cap = Cap.from_radec(185.0, 0.0, 10.0)
        assert cap.contains(radec_to_vector(185.0, 9.9 / 3600.0))

    def test_excludes_point_just_outside(self):
        cap = Cap.from_radec(185.0, 0.0, 10.0)
        assert not cap.contains(radec_to_vector(185.0, 10.5 / 3600.0))

    def test_negative_radius_rejected(self):
        with pytest.raises(GeometryError):
            Cap.from_radec(0.0, 0.0, -1.0)

    def test_radius_beyond_pi_rejected(self):
        with pytest.raises(GeometryError):
            Cap(radec_to_vector(0.0, 0.0), math.pi + 0.1)

    def test_whole_sphere_cap(self):
        cap = Cap(radec_to_vector(0.0, 0.0), math.pi)
        rng = random.Random(1)
        assert all(cap.contains(random_on_sphere(rng)) for _ in range(50))

    def test_center_normalized(self):
        cap = Cap((2.0, 0.0, 0.0), 0.1)
        assert cap.center == pytest.approx((1.0, 0.0, 0.0))

    def test_classify_triangle_far_away(self):
        cap = Cap.from_radec(0.0, 0.0, 10.0)
        corners = [
            radec_to_vector(180.0, 10.0),
            radec_to_vector(182.0, 10.0),
            radec_to_vector(181.0, 12.0),
        ]
        assert cap.classify_triangle(corners) is TrixelRelation.OUTSIDE

    def test_classify_triangle_containing_cap(self):
        # Tiny cap strictly inside a big triangle: must be PARTIAL, not OUTSIDE.
        cap = Cap.from_radec(45.0, 45.0, 1.0)
        corners = [
            radec_to_vector(0.0, 0.0),
            radec_to_vector(90.0, 0.0),
            radec_to_vector(45.0, 89.0),
        ]
        assert cap.classify_triangle(corners) is TrixelRelation.PARTIAL

    def test_classify_triangle_inside_cap(self):
        cap = Cap.from_radec(45.0, 45.0, 36000.0)  # 10 degrees
        corners = [
            radec_to_vector(45.0, 45.0),
            radec_to_vector(45.5, 45.0),
            radec_to_vector(45.25, 45.4),
        ]
        assert cap.classify_triangle(corners) is TrixelRelation.INSIDE

    def test_classify_triangle_straddling(self):
        cap = Cap.from_radec(45.0, 45.0, 3600.0)
        corners = [
            radec_to_vector(45.0, 45.0),  # inside
            radec_to_vector(50.0, 45.0),  # outside
            radec_to_vector(47.0, 48.0),  # outside
        ]
        assert cap.classify_triangle(corners) is TrixelRelation.PARTIAL

    def test_cap_poking_through_edge(self):
        # Cap centered just outside an edge but overlapping it.
        cap = Cap.from_radec(45.0, 0.05, 600.0)  # center north of the edge
        corners = [
            radec_to_vector(44.0, 0.0),
            radec_to_vector(46.0, 0.0),
            radec_to_vector(45.0, -2.0),
        ]
        assert cap.classify_triangle(corners) is not TrixelRelation.OUTSIDE

    def test_bounding_cap_is_self(self):
        cap = Cap.from_radec(1.0, 2.0, 3.0)
        assert cap.bounding_cap() is cap


class TestConvexPolygon:
    def _square(self):
        return ConvexPolygon.from_radec(
            [(10.0, 10.0), (20.0, 10.0), (20.0, 20.0), (10.0, 20.0)]
        )

    def test_contains_centroid(self):
        poly = self._square()
        assert poly.contains(radec_to_vector(15.0, 15.0))

    def test_excludes_outside_point(self):
        poly = self._square()
        assert not poly.contains(radec_to_vector(30.0, 15.0))

    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            ConvexPolygon.from_radec([(0.0, 0.0), (1.0, 1.0)])

    def test_wrong_winding_rejected(self):
        with pytest.raises(GeometryError):
            ConvexPolygon.from_radec(
                [(10.0, 20.0), (20.0, 20.0), (20.0, 10.0), (10.0, 10.0)]
            )

    def test_bounding_cap_contains_vertices(self):
        poly = self._square()
        bound = poly.bounding_cap()
        assert all(bound.contains(v) for v in poly.vertices)

    def test_classify_triangle_inside(self):
        poly = self._square()
        corners = [
            radec_to_vector(14.0, 14.0),
            radec_to_vector(16.0, 14.0),
            radec_to_vector(15.0, 16.0),
        ]
        assert poly.classify_triangle(corners) is TrixelRelation.INSIDE

    def test_classify_triangle_outside(self):
        poly = self._square()
        corners = [
            radec_to_vector(180.0, -40.0),
            radec_to_vector(182.0, -40.0),
            radec_to_vector(181.0, -42.0),
        ]
        assert poly.classify_triangle(corners) is TrixelRelation.OUTSIDE

    def test_membership_against_sampling(self):
        poly = self._square()
        rng = random.Random(5)
        center = radec_to_vector(15.0, 15.0)
        for _ in range(300):
            p = random_in_cap(rng, center, math.radians(10.0))
            from repro.sphere.coords import vector_to_radec

            ra, dec = vector_to_radec(p)
            manual = 10.0 <= ra <= 20.0 and 10.0 <= dec <= 20.0
            # Spherical quadrilateral edges are great circles, not
            # iso-latitude lines, so allow disagreement near the boundary.
            near_edge = (
                min(abs(ra - 10), abs(ra - 20)) < 0.2
                or min(abs(dec - 10), abs(dec - 20)) < 0.2
            )
            if not near_edge:
                assert poly.contains(p) == manual


def test_polygon_bounding_cap_computed_once(monkeypatch):
    """The bounding cap is built in ``__init__``, not per classified
    trixel, and it is the cap the per-call computation used to build:
    the centroid cap with the largest vertex separation plus 1e-12."""
    from repro.htm.cover import cover
    from repro.sphere import regions
    from repro.sphere.distance import angular_separation
    from repro.sphere.vector import normalize
    from tests.cover_reference import cover_reference

    builds = []
    enclosing = regions._enclosing_cap
    monkeypatch.setattr(
        regions, "_enclosing_cap", lambda vs: builds.append(1) or enclosing(vs)
    )
    poly = ConvexPolygon.from_radec(
        [(10.0, 10.0), (12.0, 10.0), (12.0, 12.0), (10.0, 12.0)]
    )
    for depth in (4, 8, 11):
        got, want = cover(poly, depth), cover_reference(poly, depth)
        assert got.full == want.full and got.partial == want.partial
    assert len(builds) == 1
    centroid = normalize(tuple(sum(v[i] for v in poly.vertices) for i in range(3)))
    radius = max(angular_separation(centroid, v) for v in poly.vertices)
    assert poly.bounding_cap() == Cap(centroid, min(math.pi, radius + 1e-12))
