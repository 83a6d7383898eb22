"""Seeded random sampling on the sphere, used by the synthetic sky generator."""

from __future__ import annotations

import math
import random

from repro.sphere.vector import Vec3, add, cross, normalize, scale


def random_on_sphere(rng: random.Random) -> Vec3:
    """Uniformly distributed unit vector."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return (r * math.cos(phi), r * math.sin(phi), z)


def random_in_cap(rng: random.Random, center: Vec3, radius_rad: float) -> Vec3:
    """Uniformly distributed unit vector within a spherical cap.

    Uniform in area: cos(theta) is uniform on [cos(radius), 1].
    """
    center = normalize(center)
    cos_theta = rng.uniform(math.cos(radius_rad), 1.0)
    sin_theta = math.sqrt(max(0.0, 1.0 - cos_theta * cos_theta))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    east, north = tangent_basis(center)
    offset = add(
        scale(east, sin_theta * math.cos(phi)),
        scale(north, sin_theta * math.sin(phi)),
    )
    return normalize(add(scale(center, cos_theta), offset))


def perturb_gaussian(rng: random.Random, v: Vec3, sigma_rad: float) -> Vec3:
    """Scatter a position by a circular Gaussian error of width ``sigma_rad``.

    This is the paper's measurement model: the measured position is a random
    variable distributed normally around the true position with a circular
    standard deviation that depends on the survey's instruments.
    """
    if sigma_rad <= 0.0:
        return normalize(v)
    east, north = tangent_basis(v)
    dx = rng.gauss(0.0, sigma_rad)
    dy = rng.gauss(0.0, sigma_rad)
    return normalize(add(v, add(scale(east, dx), scale(north, dy))))


def tangent_basis(v: Vec3) -> tuple[Vec3, Vec3]:
    """Two orthonormal vectors spanning the tangent plane at unit vector ``v``."""
    v = normalize(v)
    pole: Vec3 = (0.0, 0.0, 1.0)
    if abs(v[2]) > 0.999999:
        pole = (1.0, 0.0, 0.0)
    east = normalize(cross(pole, v))
    north = cross(v, east)
    return east, north
