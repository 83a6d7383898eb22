"""Minimal 3-vector arithmetic on plain tuples.

The hot paths of the cross-match algorithm and the HTM index work on
individual positions, where tuple arithmetic is faster and simpler than
creating numpy arrays per object. Bulk operations (survey generation) use
numpy directly in :mod:`repro.workloads.skysim`.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import GeometryError

Vec3 = Tuple[float, float, float]


def add(a: Vec3, b: Vec3) -> Vec3:
    """Component-wise sum."""
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub(a: Vec3, b: Vec3) -> Vec3:
    """Component-wise difference ``a - b``."""
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def scale(a: Vec3, s: float) -> Vec3:
    """Multiply every component by ``s``."""
    return (a[0] * s, a[1] * s, a[2] * s)


def dot(a: Vec3, b: Vec3) -> float:
    """Inner product."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Vec3, b: Vec3) -> Vec3:
    """Cross product ``a x b``."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm(a: Vec3) -> float:
    """Euclidean length."""
    return math.sqrt(dot(a, a))


def normalize(a: Vec3) -> Vec3:
    """Return ``a`` scaled to unit length.

    Raises :class:`~repro.errors.GeometryError` for (near-)zero vectors.
    """
    length = norm(a)
    if length < 1e-300:
        raise GeometryError("cannot normalize a zero vector")
    return (a[0] / length, a[1] / length, a[2] / length)


def midpoint(a: Vec3, b: Vec3) -> Vec3:
    """Unit vector halfway along the great circle between ``a`` and ``b``."""
    return normalize(add(a, b))


def normalize_rows(vectors: np.ndarray) -> np.ndarray:
    """:func:`normalize` applied to every row of an ``(..., 3)`` array.

    The same float operations in the same order as the scalar
    ``normalize``: the squared length summed x, y, z left to right, one
    correctly rounded ``sqrt``, one division per component.
    """
    x, y, z = vectors[..., 0], vectors[..., 1], vectors[..., 2]
    length = np.sqrt(x * x + y * y + z * z)
    if np.any(length < 1e-300):
        raise GeometryError("cannot normalize a zero vector")
    return vectors / length[..., None]
