"""HTM id range sets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm.ranges import HTMRanges, split_disjoint


def test_empty():
    ranges = HTMRanges()
    assert len(ranges) == 0
    assert not ranges
    assert not ranges.contains(5)
    assert ranges.id_count() == 0


def test_single_range_contains():
    ranges = HTMRanges([(10, 20)])
    assert ranges.contains(10)
    assert ranges.contains(20)
    assert ranges.contains(15)
    assert not ranges.contains(9)
    assert not ranges.contains(21)


def test_merge_overlapping():
    ranges = HTMRanges([(10, 20), (15, 30)])
    assert ranges.as_tuples() == [(10, 30)]


def test_merge_adjacent():
    ranges = HTMRanges([(10, 20), (21, 30)])
    assert ranges.as_tuples() == [(10, 30)]


def test_keeps_gaps():
    ranges = HTMRanges([(10, 20), (22, 30)])
    assert ranges.as_tuples() == [(10, 20), (22, 30)]
    assert not ranges.contains(21)


def test_sorts_input():
    ranges = HTMRanges([(30, 40), (10, 20)])
    assert ranges.as_tuples() == [(10, 20), (30, 40)]


def test_drops_inverted_ranges():
    ranges = HTMRanges([(20, 10), (1, 2)])
    assert ranges.as_tuples() == [(1, 2)]


def test_union():
    a = HTMRanges([(1, 5)])
    b = HTMRanges([(4, 10), (20, 25)])
    merged = a.union(b)
    assert merged.as_tuples() == [(1, 10), (20, 25)]


def test_id_count():
    ranges = HTMRanges([(1, 5), (10, 10)])
    assert ranges.id_count() == 6


def test_equality():
    assert HTMRanges([(1, 5)]) == HTMRanges([(1, 3), (4, 5)])
    assert HTMRanges([(1, 5)]) != HTMRanges([(1, 6)])


def test_iteration_order():
    ranges = HTMRanges([(10, 12), (1, 2)])
    assert list(ranges) == [(1, 2), (10, 12)]


def test_repr():
    assert "1, 2" in repr(HTMRanges([(1, 2)]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 200), st.integers(-3, 12)), max_size=30
    )
)
def test_from_arrays_equals_list_constructor(pairs):
    """Overlapping, abutting, nested, inverted and duplicate ranges merge
    in numpy exactly as the list constructor merges them."""
    ranges = [(lo, lo + span) for lo, span in pairs]
    lows = np.array([lo for lo, _ in ranges], dtype=np.int64)
    highs = np.array([hi for _, hi in ranges], dtype=np.int64)
    merged = HTMRanges.from_arrays(lows, highs)
    assert merged == HTMRanges(ranges)
    assert merged.bounds().tolist() == [list(r) for r in HTMRanges(ranges)]


def test_bounds_of_list_built_ranges():
    ranges = HTMRanges([(30, 40), (10, 20)])
    assert ranges.bounds().dtype == np.int64
    assert ranges.bounds().tolist() == [[10, 20], [30, 40]]
    assert HTMRanges().bounds().shape == (0, 2)


def test_split_disjoint_per_owner():
    owner = np.array([1, 0, 1, 1, 0, 3], dtype=np.intp)
    lows = np.array([10, 5, 4, 11, 1, 7], dtype=np.int64)
    highs = np.array([10, 6, 9, 12, 2, 8], dtype=np.int64)
    split = split_disjoint(owner, lows, highs, 4)
    assert [r.as_tuples() for r in split] == [
        [(1, 2), (5, 6)],
        [(4, 12)],
        [],
        [(7, 8)],
    ]
    empty = np.empty(0, dtype=np.int64)
    assert [len(r) for r in split_disjoint(empty, empty, empty, 2)] == [0, 0]
