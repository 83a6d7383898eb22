"""Hierarchical Triangular Mesh (HTM) spatial index.

The HTM [Hie02 in the paper] builds a quad tree on the sky: the unit sphere
is split into 8 root spherical triangles (an octahedron), and each triangle
("trixel") is recursively split into 4 children by the midpoints of its
edges. Every trixel has a 64-bit-style integer id: roots are 8..15 and a
child's id is ``parent*4 + k``; at depth ``d`` every id has exactly
``d+2`` base-4 digits with a leading 1 bit, so ids at one depth form a
contiguous range and a region cover can be expressed as a set of id ranges.

The paper uses the HTM exactly the way :func:`repro.htm.cover.cover` does:
"triangles that are entirely within or intersect the range are first
computed. All objects in the triangles that are entirely within the range
are in the range too. Objects that are in intersecting triangles, however,
are again individually tested."
"""

from repro.htm.trixel import Trixel
from repro.htm.mesh import (
    DEPTH_MAX,
    depth_of_id,
    roots,
    trixel_by_id,
)
from repro.htm.index import id_for_point, id_for_radec, ids_for_points
from repro.htm.ranges import HTMRanges
from repro.htm.cover import Cover, cover

__all__ = [
    "Trixel",
    "DEPTH_MAX",
    "depth_of_id",
    "roots",
    "trixel_by_id",
    "id_for_point",
    "id_for_radec",
    "ids_for_points",
    "HTMRanges",
    "Cover",
    "cover",
]
