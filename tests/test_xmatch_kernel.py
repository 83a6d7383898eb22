"""The vectorized batch kernel against the scalar reference oracle.

These tests need only numpy (no scipy, no hypothesis) so the clean-install
CI job can run them after a bare ``pip install .``.
"""

import itertools
import random

import pytest

from repro.errors import GeometryError
from repro.htm.batch import batch_cap_covers
from repro.htm.cover import cover
from repro.sphere.coords import radec_to_vector
from repro.sphere.random import perturb_gaussian, random_in_cap
from repro.sphere.regions import Cap
from repro.units import arcsec_to_rad
from repro.xmatch.kernel import (
    ColumnarObjects,
    batch_dropout_step,
    batch_match_step,
)
from repro.xmatch.stream import (
    dropout_step,
    in_memory_search,
    match_step,
    run_chain,
    seed_tuples,
)
from repro.xmatch.tuples import LocalObject


def make_sky(n_bodies=40, seed=0, sigmas=(0.1, 0.3, 1.0), detection=(1.0, 1.0, 1.0)):
    rng = random.Random(seed)
    center = radec_to_vector(185.0, -0.5)
    bodies = [
        random_in_cap(rng, center, arcsec_to_rad(600.0)) for _ in range(n_bodies)
    ]
    archives = []
    for sigma_arcsec, rate in zip(sigmas, detection):
        objects = []
        for body_id, true in enumerate(bodies):
            if rng.random() >= rate:
                continue
            objects.append(
                LocalObject(
                    object_id=body_id,
                    position=perturb_gaussian(
                        rng, true, arcsec_to_rad(sigma_arcsec)
                    ),
                    attributes={"flux": float(body_id)},
                )
            )
        archives.append((objects, arcsec_to_rad(sigma_arcsec)))
    return archives


def assert_same_tuples(batch, scalar):
    """Same survivors in the same order with bitwise-equal accumulators."""
    assert [t.members for t in batch] == [t.members for t in scalar]
    assert [t.attributes for t in batch] == [t.attributes for t in scalar]
    for b, s in zip(batch, scalar):
        assert (b.acc.a, b.acc.ax, b.acc.ay, b.acc.az) == (
            s.acc.a, s.acc.ax, s.acc.ay, s.acc.az
        )


def test_batch_match_step_equals_scalar():
    (obj_a, sig_a), (obj_b, sig_b), _ = make_sky(n_bodies=30, seed=1)
    tuples = seed_tuples("A", obj_a, sig_a)
    scalar = match_step(tuples, "B", in_memory_search(obj_b), sig_b, 3.5)
    batch = batch_match_step(tuples, "B", ColumnarObjects(obj_b), sig_b, 3.5)
    assert scalar  # the scenario actually matches something
    assert_same_tuples(batch, scalar)


def test_batch_match_step_accepts_plain_object_list():
    (obj_a, sig_a), (obj_b, sig_b), _ = make_sky(n_bodies=10, seed=2)
    tuples = seed_tuples("A", obj_a, sig_a)
    scalar = match_step(tuples, "B", in_memory_search(obj_b), sig_b, 3.5)
    assert_same_tuples(
        batch_match_step(tuples, "B", obj_b, sig_b, 3.5), scalar
    )


def test_batch_dropout_step_equals_scalar():
    archives = make_sky(n_bodies=25, seed=3, detection=(1.0, 1.0, 0.5))
    (obj_a, sig_a), (obj_b, sig_b), (obj_c, sig_c) = archives
    tuples = match_step(
        seed_tuples("A", obj_a, sig_a), "B", in_memory_search(obj_b), sig_b, 3.5
    )
    scalar = dropout_step(tuples, in_memory_search(obj_c), sig_c, 3.5)
    batch = batch_dropout_step(tuples, ColumnarObjects(obj_c), sig_c, 3.5)
    assert scalar
    assert_same_tuples(batch, scalar)


def test_batch_steps_with_empty_inputs():
    (obj_a, sig_a), (obj_b, sig_b), _ = make_sky(n_bodies=5, seed=4)
    tuples = seed_tuples("A", obj_a, sig_a)
    assert batch_match_step([], "B", obj_b, sig_b, 3.5) == []
    assert batch_match_step(tuples, "B", [], sig_b, 3.5) == []
    assert batch_dropout_step([], obj_b, sig_b, 3.5) == []
    # An empty drop-out archive excludes nothing.
    assert batch_dropout_step(tuples, [], sig_b, 3.5) == tuples


def test_small_block_size_is_equivalent():
    (obj_a, sig_a), (obj_b, sig_b), _ = make_sky(n_bodies=40, seed=5)
    tuples = seed_tuples("A", obj_a, sig_a)
    scalar = match_step(tuples, "B", in_memory_search(obj_b), sig_b, 3.5)
    batch = batch_match_step(
        tuples, "B", obj_b, sig_b, 3.5, block_size=7
    )
    assert_same_tuples(batch, scalar)


def test_batch_match_rejects_nonpositive_sigma():
    (obj_a, sig_a), (obj_b, _), _ = make_sky(n_bodies=3, seed=6)
    tuples = seed_tuples("A", obj_a, sig_a)
    with pytest.raises(GeometryError):
        batch_match_step(tuples, "B", obj_b, 0.0, 3.5)


def test_run_chain_engines_agree_over_all_orders():
    archives = make_sky(n_bodies=15, seed=7, detection=(1.0, 0.9, 0.7))
    named = [("A", *archives[0]), ("B", *archives[1]), ("C", *archives[2])]
    for perm in itertools.permutations(named):
        for dropout_last in (False, True):
            spec = [
                (alias, objs, sigma, dropout_last and i == 2)
                for i, (alias, objs, sigma) in enumerate(perm)
            ]
            scalar = run_chain(spec, 3.5, engine="scalar")
            vectorized = run_chain(spec, 3.5, engine="vectorized")
            assert_same_tuples(vectorized, scalar)


def test_run_chain_default_engine_is_vectorized():
    archives = make_sky(n_bodies=10, seed=8)
    spec = [("A", archives[0][0], archives[0][1], False),
            ("B", archives[1][0], archives[1][1], False)]
    default = run_chain(spec, 3.5)
    assert_same_tuples(default, run_chain(spec, 3.5, engine="vectorized"))


def test_run_chain_rejects_unknown_engine():
    archives = make_sky(n_bodies=3, seed=9)
    spec = [("A", archives[0][0], archives[0][1], False)]
    with pytest.raises(ValueError):
        run_chain(spec, 3.5, engine="quantum")


def test_scalar_engine_matches_the_default_engine():
    archives = make_sky(n_bodies=10, seed=10)
    spec = [("A", archives[0][0], archives[0][1], False),
            ("B", archives[1][0], archives[1][1], False)]
    scalar = run_chain(spec, 3.5, engine="scalar")
    assert_same_tuples(scalar, run_chain(spec, 3.5))


# -- batched HTM cap covers ------------------------------------------------


def random_caps(seed, count, radius_exp_range=(-6.0, -2.0)):
    rng = random.Random(seed)
    caps = []
    for _ in range(count):
        ra = rng.uniform(0.0, 360.0)
        dec = rng.uniform(-89.0, 89.0)
        radius = 10.0 ** rng.uniform(*radius_exp_range)
        caps.append(Cap(radec_to_vector(ra, dec), radius))
    return caps


@pytest.mark.parametrize("depth", [0, 4, 8, 12])
def test_batch_cap_covers_equal_scalar_cover(depth):
    caps = random_caps(seed=depth, count=60)
    caps.append(Cap(radec_to_vector(185.0, -0.5), 0.0))  # degenerate radius
    for cap, batched in zip(caps, batch_cap_covers(caps, depth)):
        reference = cover(cap, depth)
        assert batched.full == reference.full
        assert batched.partial == reference.partial


def test_batch_cap_covers_wide_caps():
    # Radii beyond pi/2 take the conservative PARTIAL branch.
    caps = [
        Cap(radec_to_vector(10.0, 40.0), 2.0),
        Cap(radec_to_vector(200.0, -70.0), 3.0),
        Cap((0.0, 0.0, 1.0), 1.6),
    ]
    for cap, batched in zip(caps, batch_cap_covers(caps, 4)):
        reference = cover(cap, 4)
        assert batched.full == reference.full
        assert batched.partial == reference.partial


def test_batch_cap_covers_empty():
    assert batch_cap_covers([], 8) == []
