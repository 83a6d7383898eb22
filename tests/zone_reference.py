"""The zone-window probe's loop over zone offsets, kept as a testing oracle.

:func:`window_pairs_reference` is the body :meth:`ZoneArrays.window_pairs`
ran before it laid out every (window, zone) pair at once: one pass per
zone offset from each window's lowest zone, two ``searchsorted`` calls per
RA interval and pass. ``tests/test_zone_index.py`` holds the flattened
production probe to it pair set for pair set.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.zone.index import ZoneArrays, _zone_ids


def window_pairs_reference(
    za: ZoneArrays,
    dec_lo_deg: np.ndarray,
    dec_hi_deg: np.ndarray,
    ra_c_deg: np.ndarray,
    ra_halfwidth_deg: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (window, member) hits, one zone offset at a time."""
    m = len(ra_c_deg)
    if m == 0 or len(za) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    zmin = _zone_ids(np.asarray(dec_lo_deg, dtype=np.float64), za.zone_height_deg)
    zmax = _zone_ids(np.asarray(dec_hi_deg, dtype=np.float64), za.zone_height_deg)
    full = ra_halfwidth_deg >= 180.0
    ra_lo = ra_c_deg - ra_halfwidth_deg
    ra_hi = ra_c_deg + ra_halfwidth_deg
    wrap_lo = (~full) & (ra_lo < 0.0)
    wrap_hi = (~full) & (ra_hi > 360.0)
    a_lo = np.where(full | wrap_lo, 0.0, ra_lo)
    a_hi = np.where(full | wrap_hi, 360.0, ra_hi)
    b_lo = np.where(wrap_lo, ra_lo + 360.0, np.where(wrap_hi, 0.0, 1.0))
    b_hi = np.where(wrap_lo, 360.0, np.where(wrap_hi, ra_hi - 360.0, 0.0))

    widx = np.arange(m, dtype=np.int64)
    pair_t_parts = []
    pair_i_parts = []
    max_span = int(np.max(zmax - zmin))
    for d in range(max_span + 1):
        z = zmin + d
        active = z <= zmax
        if not np.any(active):
            break
        zbase = z[active].astype(np.float64) * 360.0
        for lo, hi in ((a_lo, a_hi), (b_lo, b_hi)):
            starts = np.searchsorted(za.keys, zbase + lo[active], side="left")
            stops = np.searchsorted(za.keys, zbase + hi[active], side="right")
            lengths = stops - starts
            nonzero = lengths > 0
            if not np.any(nonzero):
                continue
            starts = starts[nonzero]
            lengths = lengths[nonzero]
            tuple_ids = widx[active][nonzero]
            total = int(lengths.sum())
            offsets = np.cumsum(lengths) - lengths
            flat = (
                np.arange(total, dtype=np.int64)
                - np.repeat(offsets, lengths)
                + np.repeat(starts, lengths)
            )
            pair_t_parts.append(np.repeat(tuple_ids, lengths))
            pair_i_parts.append(za.order[flat])
    if not pair_t_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(pair_t_parts), np.concatenate(pair_i_parts)
