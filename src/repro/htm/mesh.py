"""The HTM root octahedron, id arithmetic, and trixel reconstruction."""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import HTMError
from repro.htm.trixel import Trixel
from repro.sphere.vector import Vec3

DEPTH_MAX = 24  # ids stay well below 2**63

# Octahedron vertices, standard HTM convention (Szalay et al.).
_V: Tuple[Vec3, ...] = (
    (0.0, 0.0, 1.0),   # v0: north pole
    (1.0, 0.0, 0.0),   # v1
    (0.0, 1.0, 0.0),   # v2
    (-1.0, 0.0, 0.0),  # v3
    (0.0, -1.0, 0.0),  # v4
    (0.0, 0.0, -1.0),  # v5: south pole
)

# Root faces: name -> (id, corner indices). Ids 8..15 so every valid id's
# base-4 representation has a fixed-width prefix ("10".."13" for S, ...).
_ROOTS: Tuple[Tuple[str, int, Tuple[int, int, int]], ...] = (
    ("S0", 8, (1, 5, 2)),
    ("S1", 9, (2, 5, 3)),
    ("S2", 10, (3, 5, 4)),
    ("S3", 11, (4, 5, 1)),
    ("N0", 12, (1, 0, 4)),
    ("N1", 13, (4, 0, 3)),
    ("N2", 14, (3, 0, 2)),
    ("N3", 15, (2, 0, 1)),
)

_NAME_BY_ROOT_ID = {hid: name for name, hid, _ in _ROOTS}


def roots() -> List[Trixel]:
    """The 8 root trixels (depth 0), ids 8..15."""
    return [
        Trixel(hid, _V[a], _V[b], _V[c]) for _, hid, (a, b, c) in _ROOTS
    ]


def depth_of_id(hid: int) -> int:
    """Depth of a trixel id (roots are depth 0).

    Raises :class:`~repro.errors.HTMError` for invalid ids.
    """
    if hid < 8:
        raise HTMError(f"invalid HTM id {hid!r}: ids start at 8")
    bits = hid.bit_length()
    if bits % 2 != 0:
        raise HTMError(f"invalid HTM id {hid!r}: odd bit length")
    return (bits - 4) // 2


def trixel_by_id(hid: int) -> Trixel:
    """Reconstruct a trixel from its id by walking down from its root."""
    depth = depth_of_id(hid)
    path = []
    h = hid
    for _ in range(depth):
        path.append(h & 3)
        h >>= 2
    if h not in _NAME_BY_ROOT_ID:
        raise HTMError(f"invalid HTM id {hid!r}: bad root {h}")
    node = _root_by_id(h)
    for k in reversed(path):
        node = node.children()[k]
    return node


def _root_by_id(hid: int) -> Trixel:
    name, _, (a, b, c) = _ROOTS[hid - 8]
    return Trixel(hid, _V[a], _V[b], _V[c])


def id_range_at_depth(hid: int, depth: int) -> Tuple[int, int]:
    """Inclusive id range covered by trixel ``hid`` at a deeper ``depth``.

    All depth-``depth`` descendants of ``hid`` form the contiguous range
    returned here; this is what lets region covers be expressed as range
    predicates pushed into SQL (``htm_id BETWEEN lo AND hi``).
    """
    own = depth_of_id(hid)
    if depth < own:
        raise HTMError(f"target depth {depth} above trixel depth {own}")
    shift = 2 * (depth - own)
    return (hid << shift, ((hid + 1) << shift) - 1)
