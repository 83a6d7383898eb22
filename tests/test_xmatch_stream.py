"""The incremental matcher: seeding, matching, drop-outs, symmetry."""

import itertools
import random

import pytest

from repro.sphere.coords import radec_to_vector
from repro.sphere.random import perturb_gaussian, random_in_cap
from repro.units import arcsec_to_rad
from repro.xmatch.stream import (
    dropout_step,
    in_memory_search,
    match_step,
    run_chain,
    seed_tuples,
)
from repro.xmatch.tuples import LocalObject, PartialTuple


def make_sky(n_bodies=40, seed=0, sigmas=(0.1, 0.3, 1.0), detection=(1.0, 1.0, 1.0)):
    """Three archives observing the same bodies; returns per-archive objects
    and the ground-truth body id of every object."""
    rng = random.Random(seed)
    center = radec_to_vector(185.0, -0.5)
    bodies = [random_in_cap(rng, center, arcsec_to_rad(600.0)) for _ in range(n_bodies)]
    archives = []
    for sigma_arcsec, rate in zip(sigmas, detection):
        objects = []
        for body_id, true in enumerate(bodies):
            if rng.random() >= rate:
                continue
            objects.append(
                LocalObject(
                    object_id=body_id,
                    position=perturb_gaussian(rng, true, arcsec_to_rad(sigma_arcsec)),
                )
            )
        archives.append((objects, arcsec_to_rad(sigma_arcsec)))
    return archives


def test_seed_tuples():
    archives = make_sky(n_bodies=5)
    objects, sigma = archives[0]
    tuples = seed_tuples("A", objects, sigma)
    assert len(tuples) == 5
    assert all(t.length == 1 for t in tuples)
    assert all(t.acc.chi2() == pytest.approx(0.0, abs=1e-3) for t in tuples)


def test_match_step_finds_true_pairs():
    archives = make_sky(n_bodies=30, seed=1)
    (obj_a, sig_a), (obj_b, sig_b), _ = archives
    tuples = seed_tuples("A", obj_a, sig_a)
    matched = match_step(tuples, "B", in_memory_search(obj_b), sig_b, 3.5)
    pairs = {(t.member_id("A"), t.member_id("B")) for t in matched}
    true_pairs = {(i, i) for i in range(30)}
    # Nearly all true pairs found (chi-square 3.5 keeps ~everything).
    assert len(true_pairs & pairs) >= 28
    # And very few spurious ones at this density.
    assert len(pairs - true_pairs) <= 2


def test_match_step_tightens_with_threshold():
    archives = make_sky(n_bodies=30, seed=2)
    (obj_a, sig_a), (obj_b, sig_b), _ = archives
    tuples = seed_tuples("A", obj_a, sig_a)
    loose = match_step(tuples, "B", in_memory_search(obj_b), sig_b, 5.0)
    tight = match_step(tuples, "B", in_memory_search(obj_b), sig_b, 0.5)
    assert len(tight) <= len(loose)


def test_dropout_step_excludes_matched():
    archives = make_sky(n_bodies=20, seed=3, detection=(1.0, 1.0, 0.5))
    (obj_a, sig_a), (obj_b, sig_b), (obj_c, sig_c) = archives
    tuples = seed_tuples("A", obj_a, sig_a)
    tuples = match_step(tuples, "B", in_memory_search(obj_b), sig_b, 3.5)
    survivors = dropout_step(tuples, in_memory_search(obj_c), sig_c, 3.5)
    detected_in_c = {o.object_id for o in obj_c}
    for t in survivors:
        assert t.member_id("A") not in detected_in_c
    # Drop-out passes tuples through unchanged (no new member).
    assert all(t.length == 2 for t in survivors)


def test_mandatory_plus_dropout_partition():
    """Every 2-tuple either matches C or survives !C — never both, and
    together they cover all 2-tuples."""
    archives = make_sky(n_bodies=25, seed=4, detection=(1.0, 1.0, 0.6))
    (obj_a, sig_a), (obj_b, sig_b), (obj_c, sig_c) = archives
    base = match_step(
        seed_tuples("A", obj_a, sig_a), "B", in_memory_search(obj_b), sig_b, 3.5
    )
    with_c = match_step(base, "C", in_memory_search(obj_c), sig_c, 3.5)
    without_c = dropout_step(base, in_memory_search(obj_c), sig_c, 3.5)
    matched_bases = {t.members[:2] for t in with_c}
    surviving_bases = {t.members for t in without_c}
    assert matched_bases.isdisjoint(surviving_bases)
    assert matched_bases | surviving_bases == {t.members for t in base}


def test_run_chain_symmetry_over_all_orders():
    archives = make_sky(n_bodies=15, seed=5)
    named = [("A", *archives[0]), ("B", *archives[1]), ("C", *archives[2])]

    def result_set(order):
        spec = [(alias, objs, sigma, False) for alias, objs, sigma in order]
        return {
            frozenset(t.members) for t in run_chain(spec, 3.5)
        }

    reference = result_set(named)
    for perm in itertools.permutations(named):
        assert result_set(list(perm)) == reference


def test_run_chain_requires_mandatory_first():
    archives = make_sky(n_bodies=3)
    spec = [("A", archives[0][0], archives[0][1], True)]
    with pytest.raises(ValueError):
        run_chain(spec, 3.5)


def test_partial_tuple_attributes_accumulate():
    obj_a = LocalObject(1, radec_to_vector(185.0, 0.0), {"flux": 10.0})
    obj_b = LocalObject(2, radec_to_vector(185.0, 0.0001), {"flux": 12.0})
    sigma = arcsec_to_rad(1.0)
    t = PartialTuple.seed("A", obj_a, sigma).extended("B", obj_b, sigma)
    assert t.attributes == {"A.flux": 10.0, "B.flux": 12.0}
    assert t.member_id("A") == 1
    assert t.member_id("B") == 2
    with pytest.raises(KeyError):
        t.member_id("C")


@pytest.mark.parametrize("batch_size", [1, 7, 64, 1000])
def test_run_chain_batched_matches_unbatched(batch_size):
    # The streaming chain's partition invariant: splitting the seed set
    # into batches and concatenating per-batch results must reproduce the
    # unbatched tuples exactly, in order — including drop-out steps.
    archives = make_sky(n_bodies=60, seed=4, detection=(1.0, 0.9, 0.8))
    spec = [
        ("A", archives[0][0], archives[0][1], False),
        ("B", archives[1][0], archives[1][1], False),
        ("C", archives[2][0], archives[2][1], True),  # dropout (optional)
    ]
    reference = run_chain(spec, 3.5)
    batched = run_chain(spec, 3.5, batch_size=batch_size)
    assert [t.members for t in batched] == [t.members for t in reference]
    assert [t.attributes for t in batched] == [t.attributes for t in reference]
