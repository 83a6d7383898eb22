"""HTM point lookups."""

import random

import pytest

from repro.errors import HTMError
from repro.htm.index import id_for_point, id_for_radec
from repro.htm.mesh import depth_of_id, trixel_by_id
from repro.sphere.coords import radec_to_vector
from repro.sphere.random import random_on_sphere


def test_id_has_requested_depth():
    for depth in (0, 1, 5, 12):
        hid = id_for_radec(185.0, -0.5, depth)
        assert depth_of_id(hid) == depth


def test_point_inside_its_trixel():
    rng = random.Random(0)
    for _ in range(100):
        p = random_on_sphere(rng)
        hid = id_for_point(p, 8)
        assert trixel_by_id(hid).contains(p)


def test_nested_ids_are_prefixes():
    p = radec_to_vector(123.0, 45.0)
    deep = id_for_point(p, 10)
    shallow = id_for_point(p, 6)
    assert deep >> (2 * 4) == shallow


def test_nearby_points_share_coarse_trixel():
    a = id_for_radec(185.0, -0.5, 6)
    b = id_for_radec(185.0001, -0.5001, 6)
    assert a == b


def test_distant_points_differ():
    assert id_for_radec(0.0, 0.0, 4) != id_for_radec(180.0, 0.0, 4)


def test_depth_bounds_enforced():
    with pytest.raises(HTMError):
        id_for_point((1.0, 0.0, 0.0), -1)
    with pytest.raises(HTMError):
        id_for_point((1.0, 0.0, 0.0), 25)


def test_deterministic():
    v = radec_to_vector(271.3, -12.0)
    assert id_for_point(v, 12) == id_for_point(v, 12)


def _hard_points():
    """Seams, poles, RA 0/360, octant corners and exact trixel corners."""
    from repro.htm.mesh import trixel_by_id

    points = [radec_to_vector(ra, dec)
              for ra in (0.0, 1e-12, 90.0, 180.0, 270.0, 359.9999999999, 45.0)
              for dec in (-90.0, -89.99999, -45.0, -1e-13, 0.0, 1e-13,
                          35.264389682754654, 89.99999, 90.0)]
    points += [(1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (3.0, 4.0, 0.0)]
    rng = random.Random(5)
    for depth in (1, 3, 7):
        for _ in range(12):
            hid = rng.randrange(8 * 4**depth, 16 * 4**depth)
            points.extend(trixel_by_id(hid).corners)
    points += [random_on_sphere(rng) for _ in range(200)]
    return points


def test_batch_ids_equal_scalar_ids_at_every_depth():
    import numpy as np

    from repro.htm.index import ids_for_points

    points = _hard_points()
    matrix = np.asarray(points, dtype=np.float64)
    for depth in range(0, 21):
        assert ids_for_points(matrix, depth).tolist() == [
            id_for_point(p, depth) for p in points
        ], depth


def test_batch_ids_validate_like_the_scalar_lookup():
    import numpy as np

    from repro.errors import GeometryError
    from repro.htm.index import ids_for_points

    assert ids_for_points(np.empty((0, 3)), 5).tolist() == []
    with pytest.raises(HTMError):
        ids_for_points(np.ones((1, 3)), 25)
    with pytest.raises(GeometryError):
        ids_for_points(np.zeros((1, 3)), 5)
