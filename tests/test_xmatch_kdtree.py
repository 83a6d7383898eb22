"""The cKDTree candidate search vs the brute-force reference."""

import math
import random

import pytest

from repro.sphere.coords import radec_to_vector
from repro.sphere.random import perturb_gaussian, random_in_cap
from repro.units import arcsec_to_rad
from repro.xmatch.kdtree import KDTreeSearch, kdtree_search
from repro.xmatch.stream import in_memory_search, run_chain
from repro.xmatch.tuples import LocalObject


def make_objects(n=300, seed=1, radius_arcsec=1200.0):
    rng = random.Random(seed)
    center = radec_to_vector(185.0, -0.5)
    return [
        LocalObject(i, random_in_cap(rng, center, arcsec_to_rad(radius_arcsec)))
        for i in range(n)
    ]


def test_kdtree_matches_brute_force_search():
    objects = make_objects()
    tree = kdtree_search(objects)
    brute = in_memory_search(objects)
    rng = random.Random(2)
    center_base = radec_to_vector(185.0, -0.5)
    for _ in range(50):
        center = random_in_cap(rng, center_base, arcsec_to_rad(1200.0))
        radius = arcsec_to_rad(rng.uniform(1.0, 300.0))
        tree_ids = {o.object_id for o in tree(center, radius)}
        brute_ids = {o.object_id for o in brute(center, radius)}
        assert tree_ids == brute_ids


def test_kdtree_empty_set():
    tree = kdtree_search([])
    assert list(tree(radec_to_vector(0.0, 0.0), 1.0)) == []
    assert len(KDTreeSearch([])) == 0


def test_kdtree_whole_sphere_radius():
    objects = make_objects(n=20)
    tree = kdtree_search(objects)
    found = list(tree(radec_to_vector(0.0, 0.0), math.pi))
    assert len(found) == 20


def test_run_chain_same_results_with_and_without_kdtree():
    rng = random.Random(5)
    center = radec_to_vector(185.0, -0.5)
    bodies = [
        random_in_cap(rng, center, arcsec_to_rad(600.0)) for _ in range(60)
    ]
    archives = []
    for alias, sigma_arcsec in (("A", 0.1), ("B", 0.4), ("C", 1.0)):
        sigma = arcsec_to_rad(sigma_arcsec)
        objects = [
            LocalObject(i, perturb_gaussian(rng, b, sigma))
            for i, b in enumerate(bodies)
            if rng.random() < 0.85
        ]
        archives.append((alias, objects, sigma, False))
    with_tree = {
        frozenset(t.members) for t in run_chain(archives, 3.5, engine="kdtree")
    }
    without = {
        frozenset(t.members) for t in run_chain(archives, 3.5, engine="scalar")
    }
    assert with_tree == without


def test_kdtree_faster_on_large_sets():
    import time

    objects = make_objects(n=20000, radius_arcsec=7200.0)
    tree = kdtree_search(objects)
    brute = in_memory_search(objects)
    center = radec_to_vector(185.0, -0.5)
    radius = arcsec_to_rad(60.0)

    start = time.perf_counter()
    for _ in range(50):
        list(tree(center, radius))
    tree_time = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(50):
        list(brute(center, radius))
    brute_time = time.perf_counter() - start
    assert tree_time < brute_time
