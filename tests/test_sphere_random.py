"""Random sampling on the sphere."""

import math
import random

import pytest

from repro.sphere.coords import radec_to_vector
from repro.sphere.distance import angular_separation
from repro.sphere.random import (
    perturb_gaussian,
    random_in_cap,
    random_on_sphere,
    tangent_basis,
)
from repro.sphere.vector import dot, norm
from repro.units import arcsec_to_rad


def test_random_on_sphere_unit_length():
    rng = random.Random(0)
    for _ in range(100):
        assert norm(random_on_sphere(rng)) == pytest.approx(1.0)


def test_random_on_sphere_covers_hemispheres():
    rng = random.Random(0)
    zs = [random_on_sphere(rng)[2] for _ in range(500)]
    assert any(z > 0.5 for z in zs) and any(z < -0.5 for z in zs)


def test_random_in_cap_stays_inside():
    rng = random.Random(1)
    center = radec_to_vector(185.0, -0.5)
    radius = math.radians(2.0)
    for _ in range(300):
        p = random_in_cap(rng, center, radius)
        assert angular_separation(center, p) <= radius + 1e-12


def test_random_in_cap_fills_cap():
    # Area-uniform: about half the samples beyond sqrt(1/2) of the radius.
    rng = random.Random(2)
    center = radec_to_vector(0.0, 90.0)
    radius = math.radians(1.0)
    far = sum(
        angular_separation(center, random_in_cap(rng, center, radius))
        > radius * math.sqrt(0.5)
        for _ in range(2000)
    )
    assert 0.42 < far / 2000 < 0.58


def test_perturb_gaussian_scale():
    rng = random.Random(3)
    center = radec_to_vector(185.0, -0.5)
    sigma = arcsec_to_rad(1.0)
    seps = [
        angular_separation(center, perturb_gaussian(rng, center, sigma))
        for _ in range(2000)
    ]
    # Rayleigh distribution: mean = sigma * sqrt(pi/2).
    mean = sum(seps) / len(seps)
    assert mean == pytest.approx(sigma * math.sqrt(math.pi / 2), rel=0.1)


def test_perturb_zero_sigma_identity():
    rng = random.Random(4)
    v = radec_to_vector(10.0, 20.0)
    assert perturb_gaussian(rng, v, 0.0) == pytest.approx(v)


def test_tangent_basis_orthonormal():
    for ra, dec in [(0.0, 0.0), (185.0, -0.5), (10.0, 89.9), (300.0, -89.99)]:
        v = radec_to_vector(ra, dec)
        east, north = tangent_basis(v)
        assert norm(east) == pytest.approx(1.0)
        assert norm(north) == pytest.approx(1.0)
        assert dot(east, north) == pytest.approx(0.0, abs=1e-12)
        assert dot(east, v) == pytest.approx(0.0, abs=1e-12)
        assert dot(north, v) == pytest.approx(0.0, abs=1e-12)
