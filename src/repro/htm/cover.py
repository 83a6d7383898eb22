"""Region covers: which trixels intersect a spherical region.

Implements the paper's Section 5.4 description verbatim: the cover returns
trixels *entirely within* the region (their objects need no further test)
and trixels that merely *intersect* it (their objects must be individually
tested).

The walk is breadth-first. While a level's frontier is small it runs one
trixel at a time; once it is wide, :func:`walk_arrays` classifies each
whole level in a few numpy passes (:meth:`Region.classify_triangles`) and
builds the children with vectorised midpoints. Both classify with the same
float operations, so the cover is the same whichever runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.errors import HTMError
from repro.htm.mesh import DEPTH_MAX, id_range_at_depth, roots
from repro.htm.ranges import HTMRanges
from repro.htm.trixel import Trixel, children_arrays
from repro.sphere.regions import INSIDE, PARTIAL, Region, TrixelRelation

#: Frontier size at which :func:`cover` hands the rest of its walk to
#: :func:`walk_arrays`. An array level costs a fixed ~100 numpy calls
#: whatever its size; a scalar trixel costs a few microseconds each. Swept
#: over 16, 32, 48, 64, 128 and 256 (depth 12, AREAs of 120", 300", 480",
#: 900" and 3600" at the ledger's field centre; 5th-best of 60 interleaved
#: runs on a 2-vCPU machine), 32 was within 3 % of the fastest cut-off at
#: every radius: 0.85 / 1.10 / 1.37 / 1.68 / 3.10 ms against 0.86 / 1.52 /
#: 2.30 / 4.04 / 16.7 ms for the scalar walk throughout. A 120" cap reaches
#: it only at its last level, where both walks cost the same.
ARRAY_FRONTIER = 32

#: Classifies ``(n, 3, 3)`` triangles, row ``i`` against region
#: ``owner[i]`` (or the one region when ``owner`` is None).
Classifier = Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray]


@dataclass(frozen=True)
class Cover:
    """A region cover at a fixed depth.

    ``full`` ranges contain only ids whose trixels are entirely inside the
    region; ``partial`` ranges contain ids whose trixels intersect its
    boundary. ``full`` and ``partial`` are disjoint.
    """

    depth: int
    full: HTMRanges
    partial: HTMRanges

    def all_ranges(self) -> HTMRanges:
        """Union of full and partial ranges (every candidate id)."""
        return self.full.union(self.partial)


def cover(region: Region, depth: int) -> Cover:
    """Compute the trixel cover of ``region`` at the given mesh depth.

    Walks the quad tree breadth-first; INSIDE subtrees are emitted as whole
    id ranges without descending (this is what makes covers cheap), OUTSIDE
    subtrees are pruned, and PARTIAL nodes are split until ``depth``. From
    the first level whose frontier holds :data:`ARRAY_FRONTIER` trixels on,
    the walk runs on arrays.
    """
    if not 0 <= depth <= DEPTH_MAX:
        raise HTMError(f"depth {depth!r} outside [0, {DEPTH_MAX}]")

    full: List[Tuple[int, int]] = []
    partial: List[Tuple[int, int]] = []
    frontier: List[Trixel] = list(roots())
    level = 0
    while frontier:
        split: List[Trixel] = []
        for trixel in frontier:
            relation = region.classify_triangle(trixel.corners)
            if relation is TrixelRelation.OUTSIDE:
                continue
            if relation is TrixelRelation.INSIDE:
                full.append(id_range_at_depth(trixel.hid, depth))
            elif level == depth:
                partial.append((trixel.hid, trixel.hid))
            else:
                split.append(trixel)
        level += 1
        if 4 * len(split) >= ARRAY_FRONTIER:
            return _array_cover(region, depth, level, split, full)
        frontier = [kid for trixel in split for kid in trixel.children()]
    return Cover(depth=depth, full=HTMRanges(full), partial=HTMRanges(partial))


def _array_cover(
    region: Region,
    depth: int,
    level: int,
    parents: List[Trixel],
    full: List[Tuple[int, int]],
) -> Cover:
    """The rest of :func:`cover` on arrays, from the children of ``parents``
    at ``level`` down. ``full`` holds the ranges the scalar levels found;
    no partial ids exist yet, since only the last level makes them."""
    hids, corners = children_arrays(
        np.fromiter((t.hid for t in parents), dtype=np.int64, count=len(parents)),
        np.array([t.corners for t in parents], dtype=np.float64),
    )
    lo, hi, _, leaves, _ = walk_arrays(
        lambda tri, _owner: region.classify_triangles(tri), hids, corners, level, depth
    )
    done = np.array(full, dtype=np.int64).reshape(-1, 2)
    return Cover(
        depth=depth,
        full=HTMRanges.from_arrays(
            np.concatenate((done[:, 0], lo)), np.concatenate((done[:, 1], hi))
        ),
        partial=HTMRanges.from_arrays(leaves, leaves),
    )


def walk_arrays(
    classify: Classifier,
    hids: np.ndarray,
    corners: np.ndarray,
    level: int,
    depth: int,
    owner: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray, Optional[np.ndarray]]:
    """The breadth-first cover walk on arrays, from ``level`` down to ``depth``.

    ``hids`` and ``corners`` (``(n, 3, 3)``) are the frontier at
    ``level``; ``owner`` optionally tags each row with the region it is
    classified against, so many regions' frontiers walk together. Each
    level is one ``classify`` call: INSIDE rows become full id ranges at
    ``depth``, OUTSIDE rows drop out and PARTIAL rows split into their
    four children (at ``depth``, they are the partial ids).

    Returns ``(full_lo, full_hi, full_owner, partial_ids, partial_owner)``;
    the owner arrays are None when ``owner`` is.
    """
    lows: List[np.ndarray] = []
    highs: List[np.ndarray] = []
    owners: List[np.ndarray] = []
    leaves = hids[:0]
    leaf_owner = None if owner is None else owner[:0]
    while len(hids):
        codes = classify(corners, owner)
        shift = 2 * (depth - level)
        inside = codes == INSIDE
        whole = hids[inside]
        lows.append(whole << shift)
        highs.append(((whole + 1) << shift) - 1)
        split = codes == PARTIAL
        if owner is not None:
            owners.append(owner[inside])
            owner = owner[split]
        if level == depth:
            leaves, leaf_owner = hids[split], owner
            break
        hids, corners = children_arrays(hids[split], corners[split])
        if owner is not None:
            owner = np.repeat(owner, 4)
        level += 1
    full_owner = None if owner is None else np.concatenate(owners)
    return np.concatenate(lows), np.concatenate(highs), full_owner, leaves, leaf_owner
