"""Point-to-trixel lookups."""

from __future__ import annotations

import numpy as np

from repro.errors import HTMError
from repro.htm.mesh import DEPTH_MAX, roots
from repro.htm.trixel import _EPS, CHILD_CORNERS, corner_slots
from repro.sphere.coords import radec_to_vector
from repro.sphere.vector import Vec3, normalize, normalize_rows


def id_for_point(v: Vec3, depth: int) -> int:
    """The id of the depth-``depth`` trixel containing unit vector ``v``."""
    if not 0 <= depth <= DEPTH_MAX:
        raise HTMError(f"depth {depth!r} outside [0, {DEPTH_MAX}]")
    v = normalize(v)
    node = None
    for root in roots():
        if root.contains(v):
            node = root
            break
    if node is None:  # numerically on a seam; snap to the nearest root
        node = roots()[0]
    for _ in range(depth):
        node = node.child_for_point(v)
    return node.hid


#: The second vertex of each child edge (v0,v1), (v1,v2), (v2,v0).
_EDGE_NEXT = np.array([1, 2, 0])


def _edge_tests(corners: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``Trixel.contains`` for ``(..., 3 corners, 3)`` triangles at once.

    ``points`` broadcasts against the triangles' leading axes. Each edge
    plane is ``cross(a, b)`` dotted with the point, component for
    component as :func:`repro.sphere.vector.cross` and ``dot`` compute it.
    """
    a = corners
    b = corners[..., _EDGE_NEXT, :]
    px = points[..., 0][..., None]
    py = points[..., 1][..., None]
    pz = points[..., 2][..., None]
    dots = (
        (a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]) * px
        + (a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]) * py
        + (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]) * pz
    )
    return np.all(dots >= _EPS, axis=-1)


def ids_for_points(vectors: np.ndarray, depth: int) -> np.ndarray:
    """Trixel ids of many unit vectors: :func:`id_for_point` for each row.

    ``vectors`` is an ``(n, 3)`` float64 array; the result is an int64
    array of ``n`` ids. The descent copies :func:`id_for_point` step for
    step, for every point at once: the same normalisation, the first root
    that contains the point (root 0 on a seam where none does), then per
    level the same edge-midpoint corners and the first of children 0..2
    that contains the point, child 3 otherwise. Every float operation is
    the scalar code's, in the same order, so the ids agree bitwise.
    """
    if not 0 <= depth <= DEPTH_MAX:
        raise HTMError(f"depth {depth!r} outside [0, {DEPTH_MAX}]")
    points = normalize_rows(np.asarray(vectors, dtype=np.float64))
    n = len(points)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    root_nodes = roots()
    root_corners = np.array([node.corners for node in root_nodes])
    inside = _edge_tests(root_corners, points[:, None, :])
    first = np.where(inside.any(axis=1), inside.argmax(axis=1), 0)
    ids = np.array([node.hid for node in root_nodes], dtype=np.int64)[first]
    corners = root_corners[first]
    rows = np.arange(n)[:, None]
    for _ in range(depth):
        slots = corner_slots(corners)
        inside = _edge_tests(slots[:, CHILD_CORNERS[:3]], points[:, None, :])
        child = np.where(inside.any(axis=1), inside.argmax(axis=1), 3)
        ids = ids * 4 + child
        corners = slots[rows, CHILD_CORNERS[child]]
    return ids


def id_for_radec(ra_deg: float, dec_deg: float, depth: int) -> int:
    """The id of the depth-``depth`` trixel containing (ra, dec) degrees."""
    return id_for_point(radec_to_vector(ra_deg, dec_deg), depth)
