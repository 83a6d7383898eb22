"""Batched HTM covers: classify many caps against the quad tree at once.

:func:`repro.htm.cover.cover` walks the quad tree per region — fine for one
AREA clause, but the HTM arm of the cross-match kernel probes the index
with one cap *per incoming tuple*, so a chain step issues hundreds of
covers. :func:`batch_cap_covers` walks every cap's frontier together:
each level's (cap, trixel) rows go through one
:meth:`repro.sphere.regions.CapRows.classify` call and one vectorised
subdivision, the same array walk (:func:`repro.htm.cover.walk_arrays`)
that a single wide cover runs. The classifier repeats
``Cap.classify_triangle`` operation for operation, so every cover returned
here is identical — full and partial ranges alike — to ``cover()``'s.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import HTMError
from repro.htm.cover import Cover, walk_arrays
from repro.htm.mesh import DEPTH_MAX, roots
from repro.htm.ranges import split_disjoint
from repro.sphere.regions import Cap, CapRows


def batch_cap_covers(caps: Sequence[Cap], depth: int) -> List[Cover]:
    """Covers of many caps at one depth; identical to per-cap ``cover()``."""
    if not 0 <= depth <= DEPTH_MAX:
        raise HTMError(f"depth {depth!r} outside [0, {DEPTH_MAX}]")
    m = len(caps)
    if m == 0:
        return []
    nodes = roots()
    root_ids = np.array([t.hid for t in nodes], dtype=np.int64)
    root_corners = np.array([t.corners for t in nodes], dtype=np.float64)
    lo, hi, full_owner, leaves, leaf_owner = walk_arrays(
        CapRows(caps).classify,
        np.tile(root_ids, m),
        np.tile(root_corners, (m, 1, 1)),
        0,
        depth,
        owner=np.repeat(np.arange(m, dtype=np.intp), len(nodes)),
    )
    return [
        Cover(depth=depth, full=full, partial=partial)
        for full, partial in zip(
            split_disjoint(full_owner, lo, hi, m),
            split_disjoint(leaf_owner, leaves, leaves, m),
        )
    ]
