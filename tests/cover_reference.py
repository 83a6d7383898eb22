"""The HTM cover's per-trixel quad-tree walk, kept as a testing oracle.

:func:`cover_reference` is the walk :func:`repro.htm.cover.cover` ran
before it learned to hand wide frontiers to arrays: breadth-first, one
scalar ``Region.classify_triangle`` call per visited trixel, children
from ``Trixel.children``. Production keeps only this walk's
small-frontier prefix; ``tests/test_cover_oracle.py`` holds the array
walk to it range for range.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import HTMError
from repro.htm.cover import Cover
from repro.htm.mesh import DEPTH_MAX, id_range_at_depth, roots
from repro.htm.ranges import HTMRanges
from repro.htm.trixel import Trixel
from repro.sphere.regions import Region, TrixelRelation


def cover_reference(region: Region, depth: int) -> Cover:
    """The trixel cover of ``region`` at ``depth``, one trixel at a time."""
    if not 0 <= depth <= DEPTH_MAX:
        raise HTMError(f"depth {depth!r} outside [0, {DEPTH_MAX}]")

    full: List[Tuple[int, int]] = []
    partial: List[Tuple[int, int]] = []
    frontier: List[Trixel] = list(roots())
    level = 0
    while frontier:
        next_frontier: List[Trixel] = []
        for trixel in frontier:
            relation = region.classify_triangle(trixel.corners)
            if relation is TrixelRelation.OUTSIDE:
                continue
            if relation is TrixelRelation.INSIDE:
                full.append(id_range_at_depth(trixel.hid, depth))
            elif level == depth:
                partial.append((trixel.hid, trixel.hid))
            else:
                next_frontier.extend(trixel.children())
        frontier = next_frontier
        level += 1
        if level > depth:
            break
    return Cover(depth=depth, full=HTMRanges(full), partial=HTMRanges(partial))
