"""The simulated buffer pool."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.buffer import BufferPool


def test_first_access_is_miss():
    pool = BufferPool(4)
    assert pool.access("t", 0) is False
    assert pool.stats.physical_reads == 1
    assert pool.stats.logical_reads == 1


def test_second_access_is_hit():
    pool = BufferPool(4)
    pool.access("t", 0)
    assert pool.access("t", 0) is True
    assert pool.stats.physical_reads == 1
    assert pool.stats.logical_reads == 2


def test_lru_eviction():
    pool = BufferPool(2)
    pool.access("t", 0)
    pool.access("t", 1)
    pool.access("t", 2)  # evicts page 0
    assert pool.stats.evictions == 1
    assert pool.access("t", 0) is False  # miss again


def test_lru_touch_order():
    pool = BufferPool(2)
    pool.access("t", 0)
    pool.access("t", 1)
    pool.access("t", 0)  # 0 becomes most recent
    pool.access("t", 2)  # evicts 1, not 0
    assert pool.access("t", 0) is True
    assert pool.access("t", 1) is False


def test_tables_are_distinct():
    pool = BufferPool(4)
    pool.access("a", 0)
    assert pool.access("b", 0) is False


def test_invalidate_table():
    pool = BufferPool(8)
    pool.access("a", 0)
    pool.access("b", 0)
    pool.invalidate_table("a")
    assert pool.access("a", 0) is False
    assert pool.access("b", 0) is True


def test_clear_keeps_counters():
    pool = BufferPool(4)
    pool.access("t", 0)
    pool.clear()
    assert pool.resident_pages == 0
    assert pool.stats.physical_reads == 1


def test_reset_stats_keeps_pages():
    pool = BufferPool(4)
    pool.access("t", 0)
    pool.reset_stats()
    assert pool.stats.logical_reads == 0
    assert pool.access("t", 0) is True


def test_hit_ratio():
    pool = BufferPool(4)
    assert pool.stats.hit_ratio == 0.0
    pool.access("t", 0)
    pool.access("t", 0)
    pool.access("t", 0)
    assert pool.stats.hit_ratio == pytest.approx(2 / 3)


def test_capacity_validation():
    with pytest.raises(ValueError):
        BufferPool(0)


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 6),
    warm=st.lists(st.integers(0, 9), max_size=8),
    pages=st.lists(st.integers(0, 9), max_size=40),
)
def test_run_collapsed_access_equals_one_access_per_page(capacity, warm, pages):
    """access_pages leaves the counters and the LRU order exactly as one
    access per element would — runs of one page included."""
    one_by_one, collapsed = BufferPool(capacity), BufferPool(capacity)
    for pool in (one_by_one, collapsed):
        for page in warm:
            pool.access("t", page)
    for page in pages:
        one_by_one.access("t", page)
    collapsed.access_pages("t", np.asarray(pages, dtype=np.int64))
    assert collapsed.stats == one_by_one.stats
    assert collapsed.resident_order() == one_by_one.resident_order()
