"""Region covers: soundness and conservativeness."""

import random

import pytest

from repro.errors import HTMError
from repro.htm.cover import cover
from repro.htm.index import id_for_point
from repro.sphere.coords import radec_to_vector
from repro.sphere.random import random_in_cap
from repro.sphere.regions import Cap, ConvexPolygon
from repro.units import arcsec_to_rad


def test_full_and_partial_disjoint():
    cap = Cap.from_radec(185.0, -0.5, 3600.0)
    result = cover(cap, 8)
    for lo, hi in result.full:
        for hid in (lo, hi):
            assert not result.partial.contains(hid)


def test_cover_sound_for_cap():
    """No point of the region may fall outside the cover; no point of a
    'full' trixel may fall outside the region."""
    cap = Cap.from_radec(185.0, -0.5, 1800.0)
    result = cover(cap, 9)
    rng = random.Random(0)
    for _ in range(1500):
        p = random_in_cap(rng, cap.center, cap.radius_rad * 1.4)
        hid = id_for_point(p, 9)
        if cap.contains(p):
            assert result.full.contains(hid) or result.partial.contains(hid)
        if result.full.contains(hid):
            assert cap.contains(p)


def test_cover_tightens_with_depth():
    cap = Cap.from_radec(185.0, -0.5, 1800.0)
    shallow = cover(cap, 6)
    deep = cover(cap, 10)
    # Fraction of covered area that is 'partial' must shrink with depth.
    def partial_fraction(c, depth):
        scale = 4 ** (10 - depth)
        total = c.full.id_count() + c.partial.id_count()
        return c.partial.id_count() / total

    assert partial_fraction(deep, 10) < partial_fraction(shallow, 6)


def test_tiny_cap_cover_nonempty():
    cap = Cap.from_radec(185.0, -0.5, 4.5)
    result = cover(cap, 12)
    assert result.all_ranges().id_count() >= 1
    hid = id_for_point(radec_to_vector(185.0, -0.5), 12)
    assert result.all_ranges().contains(hid)


def test_depth_zero_cover():
    cap = Cap.from_radec(185.0, -0.5, 3600.0)
    result = cover(cap, 0)
    assert result.partial.id_count() >= 1
    assert all(8 <= lo <= hi <= 15 for lo, hi in result.all_ranges())


def test_polygon_cover_sound():
    poly = ConvexPolygon.from_radec(
        [(10.0, 10.0), (12.0, 10.0), (12.0, 12.0), (10.0, 12.0)]
    )
    result = cover(poly, 8)
    rng = random.Random(3)
    center = radec_to_vector(11.0, 11.0)
    for _ in range(500):
        p = random_in_cap(rng, center, arcsec_to_rad(3600.0 * 3))
        hid = id_for_point(p, 8)
        if poly.contains(p):
            assert result.full.contains(hid) or result.partial.contains(hid)
        if result.full.contains(hid):
            assert poly.contains(p)


def test_bad_depth_rejected():
    cap = Cap.from_radec(0.0, 0.0, 10.0)
    with pytest.raises(HTMError):
        cover(cap, -1)
    with pytest.raises(HTMError):
        cover(cap, 99)


def test_full_ranges_at_target_depth():
    from repro.htm.mesh import depth_of_id

    cap = Cap.from_radec(185.0, -0.5, 3600.0)
    result = cover(cap, 8)
    for lo, hi in result.full:
        assert depth_of_id(lo) == 8
        assert depth_of_id(hi) == 8
