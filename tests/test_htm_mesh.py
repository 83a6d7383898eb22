"""HTM mesh: roots, ids, names."""

import pytest

from repro.errors import HTMError
from repro.htm.mesh import (
    depth_of_id,
    id_range_at_depth,
    roots,
    trixel_by_id,
)
from repro.sphere.random import random_on_sphere
from repro.sphere.vector import norm


def test_eight_roots_with_ids_8_to_15():
    root_list = roots()
    assert [t.hid for t in root_list] == list(range(8, 16))


def test_roots_cover_sphere():
    import random

    rng = random.Random(0)
    root_list = roots()
    for _ in range(500):
        p = random_on_sphere(rng)
        assert any(t.contains(p) for t in root_list)


def test_root_corners_are_unit():
    for t in roots():
        for corner in t.corners:
            assert norm(corner) == pytest.approx(1.0)


def test_depth_of_root_is_zero():
    assert depth_of_id(8) == 0
    assert depth_of_id(15) == 0


def test_depth_increments_with_children():
    assert depth_of_id(8 * 4 + 2) == 1
    assert depth_of_id((8 * 4 + 2) * 4) == 2


def test_depth_rejects_small_ids():
    for bad in (0, 1, 7):
        with pytest.raises(HTMError):
            depth_of_id(bad)


def test_depth_rejects_odd_bitlength():
    with pytest.raises(HTMError):
        depth_of_id(16)  # bit_length 5


def test_children_ids():
    root = roots()[0]
    kids = root.children()
    assert [k.hid for k in kids] == [32, 33, 34, 35]


def test_children_tile_parent():
    import random

    rng = random.Random(1)
    root = roots()[3]
    kids = root.children()
    for _ in range(300):
        p = random_on_sphere(rng)
        if root.contains(p):
            assert sum(k.contains(p) for k in kids) >= 1


def test_trixel_by_id_consistent_with_children():
    root = roots()[0]
    kid = root.children()[2]
    rebuilt = trixel_by_id(kid.hid)
    for rebuilt_corner, kid_corner in zip(rebuilt.corners, kid.corners):
        assert rebuilt_corner == pytest.approx(kid_corner)


def test_id_range_at_depth():
    lo, hi = id_range_at_depth(8, 2)
    assert (lo, hi) == (8 << 4, (9 << 4) - 1)
    assert hi - lo + 1 == 16


def test_id_range_same_depth_is_singleton():
    assert id_range_at_depth(10, 0) == (10, 10)


def test_id_range_above_depth_rejected():
    child = 8 * 4
    with pytest.raises(HTMError):
        id_range_at_depth(child, 0)
