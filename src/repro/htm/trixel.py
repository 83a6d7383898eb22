"""A single HTM trixel: a spherical triangle node of the quad tree."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.sphere.vector import Vec3, cross, dot, midpoint, normalize_rows

# Corners are stored counter-clockwise as seen from outside the sphere, so a
# point is inside iff it is on the non-negative side of each edge plane.
_EPS = -1e-12

#: Corner slots of one subdivision: the parent's v0, v1, v2, then the edge
#: midpoints w0, w1, w2 (opposite v0, v1, v2), as in ``Trixel.children``.
_MIDPOINT_ENDS = (np.array([1, 0, 0]), np.array([2, 2, 1]))
#: Each child's corners as slots of that six-corner table, children 0..3.
CHILD_CORNERS = np.array([[0, 5, 4], [1, 3, 5], [2, 4, 3], [3, 4, 5]])


@dataclass(frozen=True)
class Trixel:
    """An HTM node: integer id plus its three (unit-vector) corners."""

    hid: int
    v0: Vec3
    v1: Vec3
    v2: Vec3

    @property
    def corners(self) -> Tuple[Vec3, Vec3, Vec3]:
        """The three corner unit vectors."""
        return (self.v0, self.v1, self.v2)

    def contains(self, p: Vec3) -> bool:
        """True if the unit vector ``p`` lies inside this spherical triangle."""
        return (
            dot(cross(self.v0, self.v1), p) >= _EPS
            and dot(cross(self.v1, self.v2), p) >= _EPS
            and dot(cross(self.v2, self.v0), p) >= _EPS
        )

    def children(self) -> Tuple["Trixel", "Trixel", "Trixel", "Trixel"]:
        """The four child trixels, ids ``hid*4 + 0..3``.

        Standard HTM subdivision: w0, w1, w2 are the midpoints of the edges
        opposite v0, v1, v2 respectively.
        """
        w0 = midpoint(self.v1, self.v2)
        w1 = midpoint(self.v0, self.v2)
        w2 = midpoint(self.v0, self.v1)
        base = self.hid * 4
        return (
            Trixel(base + 0, self.v0, w2, w1),
            Trixel(base + 1, self.v1, w0, w2),
            Trixel(base + 2, self.v2, w1, w0),
            Trixel(base + 3, w0, w1, w2),
        )

    def child_for_point(self, p: Vec3) -> "Trixel":
        """The child containing ``p`` (ties resolved to the first match).

        ``p`` must be inside this trixel; because the four children tile the
        parent, at least one child always matches.
        """
        kids = self.children()
        for kid in kids[:3]:
            if kid.contains(p):
                return kid
        return kids[3]


def corner_slots(corners: np.ndarray) -> np.ndarray:
    """The six subdivision corners of ``(n, 3, 3)`` trixels, ``(n, 6, 3)``.

    Slots 0..2 are the trixel's own corners, 3..5 the edge midpoints
    ``Trixel.children`` computes: the same sum and the same normalisation
    per component, so every midpoint is bitwise the scalar one.
    """
    mids = normalize_rows(corners[:, _MIDPOINT_ENDS[0]] + corners[:, _MIDPOINT_ENDS[1]])
    return np.concatenate((corners, mids), axis=1)


def children_arrays(
    hids: np.ndarray, corners: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`Trixel.children` for ``n`` trixels held as arrays.

    ``hids`` is an int64 array of ``n`` ids and ``corners`` their
    ``(n, 3, 3)`` corners. Returns the ``4n`` children in order (every
    parent's children 0..3 together) as ids and ``(4n, 3, 3)`` corners.
    """
    kids = corner_slots(corners)[:, CHILD_CORNERS]
    child_ids = (hids[:, None] * 4 + np.arange(4)).reshape(-1)
    return child_ids, kids.reshape(-1, 3, 3)
