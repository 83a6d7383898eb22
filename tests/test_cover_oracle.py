"""The HTM cover against its per-trixel oracle, range for range.

:func:`repro.htm.cover.cover` walks small frontiers one trixel at a time
and wide ones a whole level at a time on arrays; ``cover_reference`` (in
``tests/cover_reference.py``) is the per-trixel walk throughout. The two
must return the same full and partial ranges for every region and depth.
The strategies aim at the hard geometry on purpose: the poles, the RA
0/360 seam, radius 0, radii a hair either side of a hemisphere, caps wider
than a hemisphere, and caps centred exactly on trixel corners and edge
midpoints, where corner and edge tests sit on their epsilons.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.htm.cover import cover
from repro.htm.index import id_for_point
from repro.htm.mesh import trixel_by_id
from repro.htm.trixel import children_arrays
from repro.sphere import regions
from repro.sphere.coords import radec_to_vector
from repro.sphere.regions import (
    INSIDE,
    OUTSIDE,
    PARTIAL,
    Cap,
    ConvexPolygon,
    TrixelRelation,
)
from repro.sphere.vector import add, cross, midpoint, normalize, scale
from tests.cover_reference import cover_reference

#: A walk this many leaves wide is the most one example may cost.
_LEAF_BUDGET = 1500

_CODES = {
    TrixelRelation.INSIDE: INSIDE,
    TrixelRelation.PARTIAL: PARTIAL,
    TrixelRelation.OUTSIDE: OUTSIDE,
}


def _affordable(depth, radius):
    """The deepest depth at most ``depth`` whose walk stays in budget.

    A cap's partial leaves lie along its boundary, about ``8 sin(r) 2^d``
    of them; a cap wider than a hemisphere is never INSIDE-convex, so
    every leaf it touches is partial, about ``4^d`` of them.
    """
    def leaves(d):
        if radius > math.pi / 2.0:
            return 8 * 4 ** d
        return 8 * 2 ** d * math.sin(radius) + 8

    while depth > 0 and leaves(depth) > _LEAF_BUDGET:
        depth -= 1
    return depth


def _trixel_point(draw):
    """A corner or an edge midpoint of some trixel, exactly."""
    level = draw(st.integers(0, 12))
    hid = draw(st.integers(8 << (2 * level), (16 << (2 * level)) - 1))
    corners = trixel_by_id(hid).corners
    k = draw(st.integers(0, 2))
    if draw(st.booleans()):
        return corners[k]
    return midpoint(corners[k], corners[(k + 1) % 3])


@st.composite
def centers(draw):
    kind = draw(st.sampled_from(("any", "pole", "seam", "trixel")))
    if kind == "trixel":
        return _trixel_point(draw)
    if kind == "pole":
        dec = draw(st.sampled_from((90.0, -90.0, 89.9999999, -89.9999999, 89.5, -89.5)))
        ra = draw(st.floats(0.0, 360.0))
    elif kind == "seam":
        ra = draw(st.sampled_from((0.0, 1e-9, 359.9999999, 360.0 - 1e-12, 180.0)))
        dec = draw(st.floats(-89.0, 89.0))
    else:
        ra = draw(st.floats(0.0, 360.0))
        dec = draw(st.floats(-90.0, 90.0))
    return radec_to_vector(ra, dec)


radii = st.one_of(
    st.sampled_from(
        (0.0, math.pi / 2.0, math.pi / 2.0 - 1e-9, math.pi / 2.0 + 1e-9, math.pi)
    ),
    st.floats(math.pi / 2.0, math.pi),
    st.floats(-7.0, -0.3).map(lambda e: 10.0 ** e),
)


def _same(region, depth):
    got, want = cover(region, depth), cover_reference(region, depth)
    assert got.full == want.full
    assert got.partial == want.partial


@settings(max_examples=60, deadline=None)
@given(center=centers(), radius=radii, depth=st.integers(0, 14))
def test_cap_cover_matches_reference(center, radius, depth):
    _same(Cap(center, radius), _affordable(depth, radius))


def _polygon(center, width, sides, turn):
    """A regular ``sides``-gon of angular ``width`` about ``center``."""
    axis = (0.0, 0.0, 1.0) if abs(center[2]) < 0.9 else (1.0, 0.0, 0.0)
    e1 = normalize(cross(axis, center))
    e2 = cross(center, e1)
    angles = [turn + 2.0 * math.pi * k / sides for k in range(sides)]
    vertices = [
        normalize(add(center, add(scale(e1, width * math.cos(a)), scale(e2, width * math.sin(a)))))
        for a in angles
    ]
    try:
        return ConvexPolygon(vertices)
    except GeometryError:
        return ConvexPolygon(vertices[::-1])


@settings(max_examples=25, deadline=None)
@given(
    center=centers(),
    width=st.floats(-4.0, -0.5).map(lambda e: 10.0 ** e),
    sides=st.integers(3, 6),
    turn=st.floats(0.0, 2.0 * math.pi),
    depth=st.integers(0, 14),
)
def test_polygon_cover_matches_reference(center, width, sides, turn, depth):
    poly = _polygon(center, width, sides, turn)
    _same(poly, _affordable(depth, min(math.pi / 2.0, 2.0 * width)))


@pytest.mark.parametrize("radius_arcsec", [120.0, 300.0, 900.0, 3600.0])
def test_ledger_areas_match_reference(radius_arcsec):
    """The AREA radii the ledger workloads query, at the tables' depth."""
    _same(Cap.from_radec(185.0, -0.5, radius_arcsec), 12)


@settings(max_examples=20, deadline=None)
@given(center=centers(), radius=radii, level=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_classify_triangles_matches_scalar(center, radius, level, seed):
    """The array classifier agrees with ``classify_triangle`` trixel for
    trixel, for trixels near the region (the one holding its center and
    that one's siblings) and far from it."""
    rng = np.random.default_rng(seed)
    first, last = 8 << (2 * level), (16 << (2 * level)) - 1
    home = id_for_point(center, level)
    siblings = [home ^ k for k in range(4)] if level else list(range(8, 16))
    hids = sorted(set(rng.integers(first, last + 1, size=40).tolist() + siblings))
    trixels = [trixel_by_id(hid) for hid in hids]
    corners = np.array([t.corners for t in trixels], dtype=np.float64)
    for region in (Cap(center, radius), _polygon(center, min(radius, 1.0) + 1e-6, 4, 0.3)):
        want = [_CODES[region.classify_triangle(t.corners)] for t in trixels]
        assert region.classify_triangles(corners).tolist() == want


def test_scalar_fallback_decides_every_edge(monkeypatch):
    """Widening the atan2 guard band until every arc verdict is decided by
    the scalar ``Cap._intersects_edge`` leaves every cover unchanged, and
    the fallback does run."""
    calls = []
    scalar = Cap._intersects_edge

    def counting(self, a, b):
        calls.append(1)
        return scalar(self, a, b)

    monkeypatch.setattr(Cap, "_intersects_edge", counting)
    caps = [
        Cap.from_radec(185.0, -0.5, 3600.0),
        Cap.from_radec(0.0, 89.9, 900.0),
        Cap(trixel_by_id(8 << 12).v1, 0.002),
    ]
    banded = [cover(cap, 12) for cap in caps]
    in_band = len(calls)
    monkeypatch.setattr(regions, "ATAN2_GUARD_RAD", math.inf)
    everywhere = [cover(cap, 12) for cap in caps]
    assert len(calls) > in_band * 2
    for cap, a, b in zip(caps, banded, everywhere):
        assert a.full == b.full and a.partial == b.partial
        want = cover_reference(cap, 12)
        assert b.full == want.full and b.partial == want.partial


def test_children_arrays_match_scalar():
    parents = [trixel_by_id(hid) for hid in (8, 13, 57, 1000, 8 << 16 | 12345)]
    ids, corners = children_arrays(
        np.array([t.hid for t in parents], dtype=np.int64),
        np.array([t.corners for t in parents], dtype=np.float64),
    )
    kids = [kid for t in parents for kid in t.children()]
    assert ids.tolist() == [kid.hid for kid in kids]
    assert [tuple(map(tuple, c)) for c in corners.tolist()] == [kid.corners for kid in kids]
