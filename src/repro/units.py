"""Angle unit conversions.

All internal geometry is done in radians on the unit sphere; the public query
language follows the paper's conventions: AREA coordinates in degrees, AREA
radius and positional errors (sigma) in arcseconds.
"""

from __future__ import annotations

import math

DEG_PER_RAD = 180.0 / math.pi
ARCSEC_PER_DEG = 3600.0
ARCSEC_PER_RAD = ARCSEC_PER_DEG * DEG_PER_RAD


def deg_to_rad(degrees: float) -> float:
    """Convert degrees to radians."""
    return degrees / DEG_PER_RAD


def rad_to_deg(radians: float) -> float:
    """Convert radians to degrees."""
    return radians * DEG_PER_RAD


def arcsec_to_rad(arcsec: float) -> float:
    """Convert arcseconds to radians."""
    return arcsec / ARCSEC_PER_RAD


def rad_to_arcsec(radians: float) -> float:
    """Convert radians to arcseconds."""
    return radians * ARCSEC_PER_RAD


def normalize_ra_deg(ra: float) -> float:
    """Normalize a right ascension into [0, 360) degrees."""
    ra = math.fmod(ra, 360.0)
    if ra < 0.0:
        ra += 360.0
    return ra
