"""Zone-id arithmetic and the sorted ``(zone, ra)`` search arrays.

A *zone* is a declination stripe of fixed angular height::

    zone_id = floor((dec + 90) / zone_height)

Objects are sorted by ``(zone, ra)`` once; a spatial search for a cap then
touches only the zones its declination window overlaps, and inside each
zone an RA interval resolves to one ``searchsorted`` slice (two when the
interval wraps through 0/360).

Every window this module produces is a deliberate *superset* of the cap it
was derived from: the callers (the cross-match kernels and the stored
procedure) always re-filter candidates with an exact geometric or
chi-squared test, so the window math can round outward freely — missing a
true candidate would lose matches, admitting an extra one only costs a
rejected test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import GeometryError

#: Default zone height: 30 arcseconds. Search radii in this system are
#: ``threshold * (sigma + 1/sqrt(a))`` with arcsecond-scale sigmas (about
#: 0.7-7 arcsec), so a 30 arcsec stripe keeps every window within one or
#: two zones of the cap center while each zone stays densely populated.
DEFAULT_ZONE_HEIGHT_DEG = 30.0 / 3600.0

#: Outward padding (degrees) applied to every window bound. Covers the
#: float rounding of the window trigonometry and of the composite
#: ``zone*360 + ra`` sort key — both are orders of magnitude below this.
_WINDOW_PAD_DEG = 1e-7


def zone_count(zone_height_deg: float) -> int:
    """Number of zones covering the full declination range."""
    if zone_height_deg <= 0.0:
        raise GeometryError(
            f"zone height must be positive, got {zone_height_deg!r}"
        )
    return int(math.ceil(180.0 / zone_height_deg))


def zone_of(dec_deg: float, zone_height_deg: float = DEFAULT_ZONE_HEIGHT_DEG) -> int:
    """The zone id of one declination: ``floor((dec + 90) / height)``.

    The north pole itself (dec exactly +90) is clamped into the last zone
    so every valid declination owns exactly one zone.
    """
    n = zone_count(zone_height_deg)
    z = int(math.floor((dec_deg + 90.0) / zone_height_deg))
    return min(max(z, 0), n - 1)


def _zone_ids(dec_deg: np.ndarray, zone_height_deg: float) -> np.ndarray:
    """Vectorized :func:`zone_of` over a float64 declination array."""
    n = zone_count(zone_height_deg)
    z = np.floor((dec_deg + 90.0) / zone_height_deg).astype(np.int64)
    return np.clip(z, 0, n - 1)


def unit_vectors_to_radec(
    positions: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Columnar (ra_deg, dec_deg) of an ``(n, 3)`` unit-vector matrix.

    Only used to *place* objects into zone/RA buckets — the buckets gate a
    superset search, so this need not be bitwise-equal to any scalar path.
    """
    ra = np.degrees(np.arctan2(positions[:, 1], positions[:, 0]))
    ra = np.mod(ra, 360.0)
    ra[ra >= 360.0] = 0.0
    dec = np.degrees(np.arcsin(np.clip(positions[:, 2], -1.0, 1.0)))
    return ra, dec


def cap_windows(
    ra_c_deg: np.ndarray,
    dec_c_deg: np.ndarray,
    radius_rad: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cap (dec_lo, dec_hi, ra_halfwidth) windows, all in degrees.

    The declination window is ``dec_c ± r``; the RA half-width is the
    exact extreme-longitude bound of a small circle,
    ``asin(sin r / cos dec_c)``, falling back to the full circle (180°)
    when the cap reaches a pole or the ratio leaves ``[0, 1]``. All three
    bounds are padded outward (superset; callers re-filter exactly).
    """
    r_deg = np.degrees(radius_rad) + _WINDOW_PAD_DEG
    dec_lo = dec_c_deg - r_deg
    dec_hi = dec_c_deg + r_deg
    cos_dec = np.cos(np.radians(dec_c_deg))
    sin_r = np.sin(np.minimum(radius_rad, math.pi / 2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(cos_dec > 0.0, sin_r / np.where(cos_dec > 0.0, cos_dec, 1.0), 2.0)
    polar = (np.abs(dec_c_deg) + r_deg >= 90.0) | (ratio >= 1.0) | (
        np.minimum(radius_rad, np.pi) >= math.pi / 2.0
    )
    halfwidth = np.where(
        polar,
        180.0,
        np.degrees(np.arcsin(np.clip(ratio, 0.0, 1.0))) + _WINDOW_PAD_DEG,
    )
    return dec_lo, dec_hi, halfwidth


def _expand(
    starts: np.ndarray, lengths: np.ndarray, owners: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Runs ``starts[k] .. starts[k] + lengths[k] - 1`` laid end to end.

    Returns, per element, the index of its run (or ``owners`` of that run)
    and its value.
    """
    run = np.repeat(np.arange(len(starts), dtype=np.int64), lengths)
    offsets = np.cumsum(lengths) - lengths
    values = np.arange(len(run), dtype=np.int64) - offsets[run] + starts[run]
    return (run if owners is None else owners[run]), values


@dataclass(frozen=True)
class ZoneArrays:
    """One table's (or object list's) zone index, sorted by ``(zone, ra)``.

    ``order[k]`` is the original row position / object index of the k-th
    entry in zone-major, RA-ascending order. ``keys`` is the composite
    float64 sort key ``zone * 360 + ra`` — globally ascending because RA
    lives in [0, 360) — which lets a batch of (zone, RA-interval) probes
    resolve as *one* vectorized ``searchsorted`` per interval side.
    """

    zone_height_deg: float
    n_zones: int
    zones: np.ndarray  # (n,) int64, ascending
    ra: np.ndarray  # (n,) float64, ascending within each zone
    keys: np.ndarray  # (n,) float64 = zones * 360 + ra, ascending
    order: np.ndarray  # (n,) int64 original positions

    @classmethod
    def build(
        cls,
        ra_deg: np.ndarray,
        dec_deg: np.ndarray,
        zone_height_deg: float = DEFAULT_ZONE_HEIGHT_DEG,
    ) -> "ZoneArrays":
        """Sort positions into the zone arrays (stable on row position)."""
        n_zones = zone_count(zone_height_deg)
        ra = np.mod(np.asarray(ra_deg, dtype=np.float64), 360.0)
        ra[ra >= 360.0] = 0.0
        dec = np.asarray(dec_deg, dtype=np.float64)
        if ra.shape != dec.shape or ra.ndim != 1:
            raise GeometryError(
                f"ra/dec arrays must be parallel 1-d, got {ra.shape} / {dec.shape}"
            )
        zones = _zone_ids(dec, zone_height_deg)
        order = np.lexsort((np.arange(len(ra), dtype=np.int64), ra, zones))
        zones_sorted = zones[order]
        ra_sorted = ra[order]
        return cls(
            zone_height_deg=zone_height_deg,
            n_zones=n_zones,
            zones=zones_sorted,
            ra=ra_sorted,
            keys=zones_sorted * 360.0 + ra_sorted,
            order=np.ascontiguousarray(order),
        )

    def __len__(self) -> int:
        return len(self.order)

    def window_pairs(
        self,
        dec_lo_deg: np.ndarray,
        dec_hi_deg: np.ndarray,
        ra_c_deg: np.ndarray,
        ra_halfwidth_deg: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All (window, member) hits for a batch of dec/RA windows.

        Returns parallel int64 arrays ``(window_index, original_index)``
        covering every indexed position whose zone falls in the window's
        declination range and whose RA falls in ``ra_c ± halfwidth``
        (wrapping through 0/360; a half-width >= 180 scans whole zones).
        Pair order is unspecified — callers sort as needed.
        """
        m = len(ra_c_deg)
        if m == 0 or len(self) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        zmin = _zone_ids(np.asarray(dec_lo_deg, dtype=np.float64), self.zone_height_deg)
        zmax = _zone_ids(np.asarray(dec_hi_deg, dtype=np.float64), self.zone_height_deg)
        full = ra_halfwidth_deg >= 180.0
        ra_lo = ra_c_deg - ra_halfwidth_deg
        ra_hi = ra_c_deg + ra_halfwidth_deg
        wrap_lo = (~full) & (ra_lo < 0.0)
        wrap_hi = (~full) & (ra_hi > 360.0)
        # Primary interval A and (for wrapped windows) secondary interval B;
        # B defaults to an empty [1, 0] interval when there is no wrap.
        a_lo = np.where(full | wrap_lo, 0.0, ra_lo)
        a_hi = np.where(full | wrap_hi, 360.0, ra_hi)
        b_lo = np.where(wrap_lo, ra_lo + 360.0, np.where(wrap_hi, 0.0, 1.0))
        b_hi = np.where(wrap_lo, 360.0, np.where(wrap_hi, ra_hi - 360.0, 0.0))

        # Every (window, zone) pair at once, once per interval; then one
        # searchsorted per bound serves them all.
        per_zone, zone = _expand(zmin, np.maximum(zmax - zmin + 1, 0))
        window = np.tile(per_zone, 2)
        zbase = np.tile(zone.astype(np.float64) * 360.0, 2)
        starts = np.searchsorted(
            self.keys,
            zbase + np.concatenate((a_lo[per_zone], b_lo[per_zone])),
            side="left",
        )
        stops = np.searchsorted(
            self.keys,
            zbase + np.concatenate((a_hi[per_zone], b_hi[per_zone])),
            side="right",
        )
        hit = stops > starts
        pair_t, flat = _expand(starts[hit], stops[hit] - starts[hit], window[hit])
        return pair_t, self.order[flat]
