"""Sorted, merged sets of inclusive HTM id ranges."""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


class HTMRanges:
    """An immutable set of non-overlapping, sorted inclusive ``[lo, hi]`` ranges.

    Used to express region covers compactly: membership tests are a binary
    search, and ranges translate directly into SQL BETWEEN predicates.
    """

    __slots__ = ("_lows", "_highs", "_bounds")

    def __init__(self, ranges: Iterable[Tuple[int, int]] = ()) -> None:
        merged = self._merge(list(ranges))
        self._lows: List[int] = [lo for lo, _ in merged]
        self._highs: List[int] = [hi for _, hi in merged]
        self._bounds: Optional[np.ndarray] = None

    @classmethod
    def from_arrays(cls, lows: np.ndarray, highs: np.ndarray) -> "HTMRanges":
        """The ranges ``[lows[i], highs[i]]``, sorted and merged in numpy.

        Equal to ``HTMRanges(zip(lows, highs))``: inverted ranges are
        dropped, and a range that overlaps or abuts the running reach of
        the ones sorted before it joins them (``maximum.accumulate``
        finds the reach, ``maximum.reduceat`` each merged range's end).
        """
        keep = lows <= highs
        lo, hi = lows[keep], highs[keep]
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
        if not len(lo):
            return cls()
        reach = np.maximum.accumulate(hi)
        starts = np.flatnonzero(np.concatenate(([True], lo[1:] > reach[:-1] + 1)))
        lo, hi = lo[starts], np.maximum.reduceat(hi, starts)
        return cls._merged(lo.tolist(), hi.tolist(), np.stack((lo, hi), axis=1))

    @classmethod
    def _merged(
        cls, lows: List[int], highs: List[int], bounds: Optional[np.ndarray] = None
    ) -> "HTMRanges":
        """Ranges already sorted, merged and disjoint."""
        ranges = cls.__new__(cls)
        ranges._lows = lows
        ranges._highs = highs
        ranges._bounds = bounds
        return ranges

    @staticmethod
    def _merge(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
        cleaned = sorted((lo, hi) for lo, hi in ranges if lo <= hi)
        merged: List[Tuple[int, int]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1] + 1:
                prev_lo, prev_hi = merged[-1]
                merged[-1] = (prev_lo, max(prev_hi, hi))
            else:
                merged.append((lo, hi))
        return merged

    def __len__(self) -> int:
        return len(self._lows)

    def __bool__(self) -> bool:
        return bool(self._lows)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(zip(self._lows, self._highs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HTMRanges):
            return NotImplemented
        return self._lows == other._lows and self._highs == other._highs

    def __repr__(self) -> str:
        inner = ", ".join(f"[{lo}, {hi}]" for lo, hi in self)
        return f"HTMRanges({inner})"

    def bounds(self) -> np.ndarray:
        """The ranges as an ``(n, 2)`` int64 array of inclusive bounds."""
        if self._bounds is None:
            self._bounds = np.array([self._lows, self._highs], dtype=np.int64).T
        return self._bounds

    def contains(self, hid: int) -> bool:
        """True if ``hid`` falls inside any range."""
        i = bisect.bisect_right(self._lows, hid) - 1
        return i >= 0 and hid <= self._highs[i]

    def union(self, other: "HTMRanges") -> "HTMRanges":
        """Set union of two range sets."""
        return HTMRanges(list(self) + list(other))

    def id_count(self) -> int:
        """Total number of ids covered."""
        return sum(hi - lo + 1 for lo, hi in self)

    def as_tuples(self) -> Sequence[Tuple[int, int]]:
        """The ranges as a list of ``(lo, hi)`` tuples."""
        return list(self)


def split_disjoint(
    owner: np.ndarray, lows: np.ndarray, highs: np.ndarray, count: int
) -> List[HTMRanges]:
    """One :class:`HTMRanges` per owner ``0..count-1`` of tagged ranges.

    The ranges of any one owner must be pairwise disjoint, as a quad-tree
    walk emits them (each trixel's range once, none inside another). Then
    sorting by ``(owner, lo)`` and joining abutting neighbours is the
    whole merge, done for every owner in one pass.
    """
    if not len(lows):
        return [HTMRanges() for _ in range(count)]
    order = np.lexsort((lows, owner))
    owner, lo, hi = owner[order], lows[order], highs[order]
    start = np.ones(len(lo), dtype=bool)
    start[1:] = (owner[1:] != owner[:-1]) | (lo[1:] != hi[:-1] + 1)
    firsts = np.flatnonzero(start)
    lasts = np.append(firsts[1:], len(lo)) - 1
    cuts = np.searchsorted(owner[firsts], np.arange(count + 1)).tolist()
    merged_lo, merged_hi = lo[firsts].tolist(), hi[lasts].tolist()
    return [
        HTMRanges._merged(merged_lo[a:b], merged_hi[a:b])
        for a, b in zip(cuts, cuts[1:])
    ]
