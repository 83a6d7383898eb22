"""A simulated LRU buffer pool.

The paper's count-star performance queries have a side effect the authors
call out explicitly (Section 5.3): they "warm the database cache on each
SkyNode with index pages that satisfy the main cross match query, and thus
aid in reducing processing time". To make that effect measurable, every row
access in the engine is routed through this pool and classified as a logical
read (always) plus a physical read when the page was not resident.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Tuple

import numpy as np

PageKey = Tuple[str, int]


@dataclass
class BufferStats:
    """Cumulative read counters."""

    logical_reads: int = 0
    physical_reads: int = 0
    evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of logical reads served from the pool."""
        if self.logical_reads == 0:
            return 0.0
        return 1.0 - self.physical_reads / self.logical_reads


class BufferPool:
    """Fixed-capacity LRU page cache keyed by (table name, page number)."""

    def __init__(self, capacity_pages: int = 1024) -> None:
        if capacity_pages < 1:
            raise ValueError(f"capacity_pages must be >= 1, got {capacity_pages}")
        self.capacity_pages = capacity_pages
        self._pages: "OrderedDict[PageKey, None]" = OrderedDict()
        self.stats = BufferStats()

    def access(self, table: str, page_no: int) -> bool:
        """Touch a page; returns True on a cache hit."""
        key = (table, page_no)
        self.stats.logical_reads += 1
        if key in self._pages:
            self._pages.move_to_end(key)
            return True
        self.stats.physical_reads += 1
        self._pages[key] = None
        if len(self._pages) > self.capacity_pages:
            self._pages.popitem(last=False)
            self.stats.evictions += 1
        return False

    def access_pages(self, table: str, pages: np.ndarray) -> None:
        """Touch a sequence of pages in order, as one :meth:`access` each.

        The resident pages, their LRU order and every counter end up
        exactly as per-element ``access`` calls would leave them, for the
        price of one ``access`` per run of one page: re-touching the page
        just touched is a hit that leaves the LRU order as it was. When
        the pool can take every page the sequence misses without an
        eviction, one ``access`` per distinct page, in order of its last
        touch, already reaches that end state.
        """
        if len(pages) == 0:
            return
        starts = np.flatnonzero(pages[1:] != pages[:-1]) + 1
        runs = pages[np.concatenate(([0], starts))].tolist()
        newest_first = list(dict.fromkeys(reversed(runs)))
        missing = sum((table, page) not in self._pages for page in newest_first)
        if len(self._pages) + missing <= self.capacity_pages:
            runs = newest_first[::-1]
        for page_no in runs:
            self.access(table, page_no)
        self.stats.logical_reads += len(pages) - len(runs)

    def invalidate_table(self, table: str) -> None:
        """Drop every cached page of one table (after DROP/bulk load)."""
        for key in [k for k in self._pages if k[0] == table]:
            del self._pages[key]

    def clear(self) -> None:
        """Drop all pages (a cold cache), keeping the counters."""
        self._pages.clear()

    def reset_stats(self) -> None:
        """Zero the counters, keeping resident pages."""
        self.stats = BufferStats()

    def resident_order(self) -> Tuple[PageKey, ...]:
        """Resident pages from least to most recently used."""
        return tuple(self._pages)

    @property
    def resident_pages(self) -> int:
        """Number of pages currently cached."""
        return len(self._pages)
