"""The numpy-vectorized batch cross-match kernel.

Set-at-a-time evaluation of the Section 5.4 chi-squared recurrence, the
way the follow-up SkyQuery papers (Dobos et al. 2012's parallel
probabilistic join engine; Nieto-Santisteban et al. 2005's zone batch
cross-match) replaced per-tuple matching: stack every incoming tuple's
cumulative values ``(a, ax, ay, az)`` into arrays, run the candidate
search as one broadcasted chord/cosine test against a columnar ``(n, 3)``
position matrix, and evaluate the extended chi-squared for all (tuple,
candidate) pairs in a single pass.

The arithmetic is kept operation-for-operation identical to the scalar
reference in :mod:`repro.xmatch.chi2` / :mod:`repro.xmatch.stream`
(float64 throughout, same association order), so the surviving tuples
carry bitwise-identical accumulators — the scalar path stays available
everywhere as the testing oracle, and the wire traffic does not change.

Only numpy is required.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GeometryError
from repro.xmatch.chi2 import Accumulator
from repro.xmatch.tuples import LocalObject, PartialTuple

#: Tuples per broadcast block: bounds the (block, n) pair matrix so a big
#: incoming batch against a big archive stays within a few MB of scratch.
DEFAULT_BLOCK_SIZE = 1024

#: Slack applied to the cosine of the search radius, mirroring the
#: ``chord + 1e-12`` slack of the k-d-tree matcher: the radius is a
#: superset bound (the chi-squared test re-filters), so erring towards
#: admitting a boundary candidate is always safe.
_COS_SLACK = 1e-12


class ColumnarObjects:
    """A structure-of-arrays view over one archive's objects.

    Keeps the original :class:`LocalObject` list for survivor
    construction plus an ``(n, 3)`` float64 position matrix for the
    broadcasted candidate search. Positions are copied component-wise so
    they stay bitwise equal to the tuples the scalar path reads.
    """

    def __init__(self, objects: Sequence[LocalObject]) -> None:
        self.objects: List[LocalObject] = list(objects)
        n = len(self.objects)
        self.positions = np.empty((n, 3), dtype=np.float64)
        for i, obj in enumerate(self.objects):
            self.positions[i, 0] = obj.position[0]
            self.positions[i, 1] = obj.position[1]
            self.positions[i, 2] = obj.position[2]

    def __len__(self) -> int:
        return len(self.objects)


def _as_columnar(
    objects: Union[ColumnarObjects, Sequence[LocalObject]],
) -> ColumnarObjects:
    if isinstance(objects, ColumnarObjects):
        return objects
    return ColumnarObjects(objects)


def stack_accumulators(
    incoming: Sequence[PartialTuple],
) -> Tuple[np.ndarray, np.ndarray]:
    """Stack tuples' cumulative values into ``a`` (m,) and ``avec`` (m, 3)."""
    m = len(incoming)
    a = np.empty(m, dtype=np.float64)
    avec = np.empty((m, 3), dtype=np.float64)
    for i, partial in enumerate(incoming):
        acc = partial.acc
        a[i] = acc.a
        avec[i, 0] = acc.ax
        avec[i, 1] = acc.ay
        avec[i, 2] = acc.az
    return a, avec


def _offending_tuple(
    bad: np.ndarray, tuples: Optional[Sequence[PartialTuple]]
) -> str:
    """Identify the first offending batch row for a GeometryError message.

    The scalar path fails per tuple, so its errors name the culprit for
    free; the batch path validates whole arrays and would otherwise
    condemn the batch anonymously. Includes the tuple's members when the
    caller can supply them.
    """
    i = int(np.argmax(bad))
    detail = f" (tuple {i} of {bad.size} in the batch"
    if tuples is not None and i < len(tuples):
        detail += f", members {tuples[i].members!r}"
    return detail + ")"


def best_positions(
    a: np.ndarray,
    avec: np.ndarray,
    *,
    tuples: Optional[Sequence[PartialTuple]] = None,
) -> np.ndarray:
    """Row-wise maximum-likelihood positions (unit vectors), ``(m, 3)``.

    Same operations as :meth:`Accumulator.best_position` — component
    squares summed left to right, one sqrt, component-wise division — so
    the centers are bitwise equal to the scalar path's. ``tuples``
    optionally supplies the batch's partial tuples so a degenerate row is
    identified by index and members instead of failing anonymously.
    """
    nonpositive = a <= 0.0
    if np.any(nonpositive):
        raise GeometryError(
            "accumulator has no observations"
            + _offending_tuple(nonpositive, tuples)
        )
    norms = np.sqrt(
        avec[:, 0] * avec[:, 0] + avec[:, 1] * avec[:, 1]
        + avec[:, 2] * avec[:, 2]
    )
    degenerate = norms < 1e-300
    if np.any(degenerate):
        raise GeometryError(
            "cannot normalize a zero vector"
            + _offending_tuple(degenerate, tuples)
        )
    return avec / norms[:, None]


def search_radii(
    a: np.ndarray, sigma_rad: float, threshold: float
) -> np.ndarray:
    """Row-wise safe candidate-search radii (radians).

    The vectorized :meth:`Accumulator.search_radius`: the bound
    ``threshold * (sigma_new + 1/sqrt(a))`` is a superset of everything
    that could pass the chi-squared test.
    """
    return threshold * (sigma_rad + 1.0 / np.sqrt(a))


def extend_pairs(
    a: np.ndarray,
    avec: np.ndarray,
    positions: np.ndarray,
    sigma_rad: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extend aligned (tuple, candidate) pairs with one observation each.

    ``a``/``avec`` hold the pair's tuple accumulator (already gathered to
    pair order), ``positions`` the candidate unit vectors, one row per
    pair. Returns ``(a_new, avec_new, chi2)`` where the arithmetic is the
    exact float64 operation sequence of
    :meth:`Accumulator.with_observation` followed by
    :meth:`Accumulator.chi2` (including the clamp at zero).
    """
    if sigma_rad <= 0.0:
        raise GeometryError(f"sigma must be positive, got {sigma_rad!r}")
    w = 1.0 / (sigma_rad * sigma_rad)
    a_new = a + w
    avec_new = np.empty_like(avec)
    avec_new[:, 0] = avec[:, 0] + w * positions[:, 0]
    avec_new[:, 1] = avec[:, 1] + w * positions[:, 1]
    avec_new[:, 2] = avec[:, 2] + w * positions[:, 2]
    norm_new = np.sqrt(
        avec_new[:, 0] * avec_new[:, 0]
        + avec_new[:, 1] * avec_new[:, 1]
        + avec_new[:, 2] * avec_new[:, 2]
    )
    chi2 = np.maximum(0.0, 2.0 * (a_new - norm_new))
    return a_new, avec_new, chi2


def _candidate_blocks(
    incoming: Sequence[PartialTuple],
    columnar: ColumnarObjects,
    sigma_rad: float,
    threshold: float,
    block_size: int,
) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield per-block accepted pairs.

    Each yield is ``(base, ti, ci, a_new, avec_new)``: the block's first
    tuple index, pair tuple indexes (block-relative), pair candidate
    indexes, and the extended accumulators of the pairs that pass the
    chi-squared test. Pairs come out tuple-major, candidates in archive
    order — the same order the scalar loop visits them.
    """
    if sigma_rad <= 0.0:
        raise GeometryError(f"sigma must be positive, got {sigma_rad!r}")
    a_all, avec_all = stack_accumulators(incoming)
    centers_all = best_positions(a_all, avec_all, tuples=incoming)
    radii = search_radii(a_all, sigma_rad, threshold)
    cos_radii = np.cos(np.minimum(radii, np.pi)) - _COS_SLACK
    threshold_sq = threshold * threshold
    positions = columnar.positions

    for base in range(0, len(incoming), block_size):
        stop = min(base + block_size, len(incoming))
        # Angular cap test as a cosine test: unit vectors, so
        # dot >= cos(radius) iff separation <= radius.
        dots = centers_all[base:stop] @ positions.T
        in_radius = dots >= cos_radii[base:stop, None]
        ti, ci = np.nonzero(in_radius)
        if ti.size == 0:
            continue
        a_new, avec_new, chi2 = extend_pairs(
            a_all[base + ti], avec_all[base + ti], positions[ci], sigma_rad
        )
        ok = chi2 <= threshold_sq
        yield base, ti[ok], ci[ok], a_new[ok], avec_new[ok]


def batch_match_step(
    incoming: Sequence[PartialTuple],
    alias: str,
    objects: Union[ColumnarObjects, Sequence[LocalObject]],
    sigma_rad: float,
    threshold: float,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> List[PartialTuple]:
    """Vectorized :func:`repro.xmatch.stream.match_step`.

    Returns the same survivors in the same order (tuple-major, candidates
    in archive order) with bitwise-identical accumulators.
    """
    columnar = _as_columnar(objects)
    survivors: List[PartialTuple] = []
    if not incoming or not len(columnar):
        return survivors
    for base, ti, ci, a_new, avec_new in _candidate_blocks(
        incoming, columnar, sigma_rad, threshold, block_size
    ):
        for k in range(ti.size):
            partial = incoming[base + int(ti[k])]
            obj = columnar.objects[int(ci[k])]
            acc = Accumulator(
                a=float(a_new[k]),
                ax=float(avec_new[k, 0]),
                ay=float(avec_new[k, 1]),
                az=float(avec_new[k, 2]),
            )
            merged = dict(partial.attributes)
            for name, value in obj.attributes.items():
                merged[f"{alias}.{name}"] = value
            survivors.append(
                PartialTuple(
                    members=partial.members + ((alias, obj.object_id),),
                    acc=acc,
                    attributes=merged,
                )
            )
    return survivors


def batch_dropout_step(
    incoming: Sequence[PartialTuple],
    objects: Union[ColumnarObjects, Sequence[LocalObject]],
    sigma_rad: float,
    threshold: float,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> List[PartialTuple]:
    """Vectorized :func:`repro.xmatch.stream.dropout_step`.

    A tuple survives the drop-out archive iff none of its in-radius
    candidates passes the chi-squared bound; members and cumulative
    values pass through unchanged.
    """
    columnar = _as_columnar(objects)
    if not incoming:
        return []
    if not len(columnar):
        return list(incoming)
    has_match = np.zeros(len(incoming), dtype=bool)
    for base, ti, _, _, _ in _candidate_blocks(
        incoming, columnar, sigma_rad, threshold, block_size
    ):
        has_match[base + ti] = True
    return [
        partial for i, partial in enumerate(incoming) if not has_match[i]
    ]
