"""The per-archive cross-match step.

Section 5.4 of the paper, verbatim logic: archive *i* receives tuples
``R_{i-1}`` with cumulative values; for each it range-searches its own
objects near the current best position, appends each candidate, recomputes
the chi-squared from the updated cumulative values, and forwards only the
tuples whose log likelihood still clears the threshold. Drop-out archives
invert the test: a tuple survives only if *no* local candidate would have
cleared the threshold.

The search itself is abstracted as a :class:`CandidateSearch` callable so
the same algorithm runs against the pure in-memory matcher (tests, property
checks) and the SkyNode's stored procedure (temp table + HTM range scan).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Protocol, Sequence

from repro.sphere.vector import Vec3
from repro.xmatch.tuples import LocalObject, PartialTuple

#: Engines :func:`run_chain` can match with. ``vectorized`` (the default)
#: is the numpy broadcast batch kernel and needs only numpy; ``zone`` is
#: the declination-zone sorted-merge batch kernel (also numpy-only);
#: ``scalar`` is the per-tuple brute-force reference.
ENGINES = ("vectorized", "zone", "scalar")


class CandidateSearch(Protocol):
    """Range search over one archive's objects.

    Must return every local object within ``radius_rad`` of ``center`` that
    also satisfies the archive's local (non-spatial) predicates. Returning
    a superset is allowed — the chi-squared test re-filters — but missing a
    true candidate loses matches.
    """

    def __call__(self, center: Vec3, radius_rad: float) -> Iterable[LocalObject]:
        ...


def seed_tuples(
    alias: str, objects: Iterable[LocalObject], sigma_rad: float
) -> List[PartialTuple]:
    """Step 1 of the chain: every qualifying local object starts a 1-tuple.

    The paper: "The first archive just needs to send 1-tuples comprising of
    objects that satisfy the other clauses in the query."
    """
    return [PartialTuple.seed(alias, obj, sigma_rad) for obj in objects]


def match_step(
    incoming: Sequence[PartialTuple],
    alias: str,
    search: CandidateSearch,
    sigma_rad: float,
    threshold: float,
) -> List[PartialTuple]:
    """Extend incoming tuples with this mandatory archive's candidates."""
    survivors: List[PartialTuple] = []
    for partial in incoming:
        center = partial.acc.best_position()
        radius = partial.acc.search_radius(sigma_rad, threshold)
        for candidate in search(center, radius):
            extended = partial.extended(alias, candidate, sigma_rad)
            if extended.acc.accepts(threshold):
                survivors.append(extended)
    return survivors


def dropout_step(
    incoming: Sequence[PartialTuple],
    search: CandidateSearch,
    sigma_rad: float,
    threshold: float,
) -> List[PartialTuple]:
    """Filter tuples that DO have a match in a drop-out archive.

    The paper's "exclusive outer join": a tuple survives a ``!A`` archive
    iff appending any of A's objects would fail the chi-squared bound.
    The tuple's members and cumulative values pass through unchanged.
    """
    survivors: List[PartialTuple] = []
    for partial in incoming:
        center = partial.acc.best_position()
        radius = partial.acc.search_radius(sigma_rad, threshold)
        has_match = any(
            partial.acc.with_observation(candidate.position, sigma_rad).chi2()
            <= threshold * threshold
            for candidate in search(center, radius)
        )
        if not has_match:
            survivors.append(partial)
    return survivors


def in_memory_search(
    objects: Sequence[LocalObject],
) -> CandidateSearch:
    """A brute-force CandidateSearch over a list (reference implementation)."""
    from repro.sphere.distance import angular_separation

    def search(center: Vec3, radius_rad: float) -> Iterable[LocalObject]:
        return [
            obj
            for obj in objects
            if angular_separation(center, obj.position) <= radius_rad
        ]

    return search


def run_chain(
    archives: Sequence[tuple[str, Sequence[LocalObject], float, bool]],
    threshold: float,
    *,
    engine: str = "vectorized",
    batch_size: Optional[int] = None,
) -> List[PartialTuple]:
    """End-to-end matcher over in-memory archives.

    ``archives`` is ordered by *computation* order: each entry is
    ``(alias, objects, sigma_rad, is_dropout)``. Mandatory archives must
    precede dropout archives (a dropout needs a mean position to test
    against); the first entry must be mandatory.

    Used as the oracle the distributed implementation is checked against
    and as the pull-to-portal baseline's matcher. ``engine`` selects the
    matcher: the numpy broadcast batch kernel (``vectorized``, the
    default), the declination-zone sorted-merge batch
    kernel (``zone``, also numpy-only), or the per-tuple brute-force scan
    (``scalar``, the reference oracle). All three return identical match
    sets; the tests verify it.

    ``batch_size`` mirrors the pipelined wire protocol in memory: the seed
    tuples are partitioned into batches and the rest of the chain runs per
    batch, with the surviving tuples concatenated in batch order. The
    result is identical to the unbatched run (the tests verify it) — the
    knob exists so the streaming protocol has an in-process oracle.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown xmatch engine {engine!r}; expected one of {ENGINES}"
        )
    if not archives or archives[0][3]:
        raise ValueError("the chain must start with a mandatory archive")
    alias0, objects0, sigma0, _ = archives[0]
    seeds = seed_tuples(alias0, objects0, sigma0)
    if batch_size is not None:
        from repro.transport.chunking import batch_slices

        out: List[PartialTuple] = []
        for start, stop in batch_slices(len(seeds), batch_size):
            out.extend(
                _chain_rest(seeds[start:stop], archives[1:], threshold, engine)
            )
        return out
    return _chain_rest(seeds, archives[1:], threshold, engine)


def _chain_rest(
    tuples: List[PartialTuple],
    rest: Sequence[tuple[str, Sequence[LocalObject], float, bool]],
    threshold: float,
    engine: str,
) -> List[PartialTuple]:
    """Run every post-seed step of the chain over one tuple set."""
    for alias, objects, sigma_rad, is_dropout in rest:
        if engine == "vectorized":
            from repro.xmatch.kernel import (
                ColumnarObjects,
                batch_dropout_step,
                batch_match_step,
            )

            columnar = ColumnarObjects(objects)
            if is_dropout:
                tuples = batch_dropout_step(
                    tuples, columnar, sigma_rad, threshold
                )
            else:
                tuples = batch_match_step(
                    tuples, alias, columnar, sigma_rad, threshold
                )
            continue
        if engine == "zone":
            from repro.xmatch.zone import (
                ZoneObjects,
                zone_dropout_step,
                zone_match_step,
            )

            zoned = ZoneObjects(objects)
            if is_dropout:
                tuples = zone_dropout_step(tuples, zoned, sigma_rad, threshold)
            else:
                tuples = zone_match_step(
                    tuples, alias, zoned, sigma_rad, threshold
                )
            continue
        search = in_memory_search(objects)
        if is_dropout:
            tuples = dropout_step(tuples, search, sigma_rad, threshold)
        else:
            tuples = match_step(tuples, alias, search, sigma_rad, threshold)
    return tuples
