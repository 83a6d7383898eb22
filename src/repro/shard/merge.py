"""Canonical merge order for partitioned chains.

Byte-identity with the monolithic twin hinges on reproducing the exact
row order the monolithic engine emits. Shard tables therefore carry each
row's original table position in a trailing ``_skyq_pos`` column
(assigned at provisioning time from the monolithic insert order, and
shard rows are stored in that order).

**Seed hops.** The engine's spatial probe yields rows of the cover's
*full* ranges first (those need no geometric recheck), then rows of the
*partial* ranges, each group in ``(htm_id, position)`` order — that is
the order a monolithic seed query returns. A shard's seed returns the
same order restricted to the rows it owns, and tags every 1-tuple with
its place in the monolithic order, :func:`seed_order_keys`: ``(group,
htm_id, position)`` packed into one int, where ``group`` is 0 for ids
inside the cover's full ranges and 1 otherwise, and ``htm_id`` is the
trixel id the table stored for the row when it was inserted — the very
id the engine ordered it by. Without an AREA the query is a full scan
and the key is the plain position.

Every later hop keeps its incoming tuples' order and appends each
tuple's matches in position order, so each partition chain's answer is
sorted on the seed key, and seeds are owned by exactly one partition:
:func:`merge_seed_rows` merging the partitions' answers on that key is
the monolithic answer.

**Match hops.** The monolithic step emits matches as ``for seq in
sorted(matches): for obj in objects`` with each tuple's objects in
ascending row-position order; a shard probes its owned rows and its
margin copies separately, and per-seq concatenation sorted by
``_skyq_pos`` (:func:`merge_match_lists`) reproduces it (a row is either
owned or a margin copy, never both).
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Any, List, Optional, Sequence, Tuple


#: The hidden per-row column carrying a row's position in the monolithic
#: insert order; shard tables gain it at provisioning time.
SHARD_POS_COLUMN = "_skyq_pos"

#: The attribute a partition chain's seed hop tags each tuple with — its
#: :func:`seed_order_keys` value — carried as the last column of every
#: batch and stripped by the Portal's merge.
SEED_KEY = "_skyq_key"

#: Bits of a packed seed key given to the row position.
_POSITION_BITS = 40


def seed_order_keys(
    positions: Sequence[int],
    hids: Sequence[int] = (),
    full_rows: Optional[int] = None,
    htm_depth: int = 0,
) -> List[int]:
    """Seed rows' places in the monolithic probe order, as ints.

    ``positions`` are the rows' ``_skyq_pos`` values, in scan order. With
    an AREA pass the rows' stored depth-``htm_depth`` trixel ids and how
    many leading rows came from the cover's full ranges (the engine's
    ``QueryStats.rows_from_full_ranges``); every later row is from a
    partial range. ``None`` means a full scan, which the engine returns
    in plain position order.
    """
    if full_rows is None:
        return [int(pos) for pos in positions]
    id_bits = 4 + 2 * htm_depth  # depth-d ids are below 16 * 4**d
    return [
        ((((0 if i < full_rows else 1) << id_bits) | hid)
         << _POSITION_BITS) | int(pos)
        for i, (pos, hid) in enumerate(zip(positions, hids))
    ]


def merge_seed_rows(
    streams: Sequence[Sequence[Tuple[Any, ...]]],
) -> List[Tuple[Any, ...]]:
    """Merge partition answers into monolithic order, dropping the key.

    Each stream is one partition chain's answer rows, sorted on their
    trailing seed key; rows of one seed stay in their stream's order.
    """
    return [row[:-1] for row in heapq.merge(*streams, key=itemgetter(-1))]


def merge_match_lists(
    rows: Sequence[Tuple[Any, ...]],
) -> List[Tuple[int, List[Tuple[Any, ...]]]]:
    """Group match rows of several probes into monolithic emission order.

    Each row is ``(seq, _skyq_pos, *payload)``. Returns ``(seq,
    rows-of-that-seq)`` pairs with seqs ascending and each tuple's rows
    in ascending position order — exactly the monolithic
    ``sorted(matches.items())`` traversal.
    """
    by_seq: dict = {}
    for row in rows:
        by_seq.setdefault(int(row[0]), []).append(row)
    return [
        (seq, sorted(by_seq[seq], key=lambda row: row[1]))
        for seq in sorted(by_seq)
    ]
