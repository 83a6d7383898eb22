"""The Portal's epoch-aware semantic result cache.

A federation serving millions of users sees the same popular queries over
and over (zipf-shaped workloads); re-running the whole probe + chain
pipeline for each repeat wastes both wire bytes and node time. This
module memoizes two things, each guarded by the snapshot-epoch
machinery PR 6 introduced so a cached answer is valid *exactly* while the
epochs it was computed at are still the archives' current ones:

* **whole-query results** — a clean :class:`FederatedResult` keyed two
  ways: by the canonical query text + planner knobs (consultable before a
  single byte hits the wire — the zero-wire fast path) and by
  ``ExecutionPlan.fingerprint`` (consultable once a plan exists, catching
  textually different submissions that compile to the same chain). The
  fingerprint folds in every pinned epoch and the portal's execution
  profile but covers only the node-side work, so a fingerprint hit also
  needs the same Portal-side finish (:meth:`SemanticCache.finish_key`):
  "fingerprint + finish + epochs live" is the full validity condition.
* **AREA-containment reuse** — a cached cross-match over a circle keeps
  its pre-projection partial tuples; a later query whose circle is
  contained in the cached one is answered by re-filtering those tuples
  with the *same* per-row predicate the nodes would run
  (``region.contains(radec_to_vector(ra, dec))`` per member), skipping
  the federation entirely.

Invalidation is push-based: the federation builder chains
``SemanticCache.note_epoch`` onto every primary's
``TransactionService.on_epoch_commit`` hook, so the instant an ingest
commit advances an archive's epoch, every entry pinned to the previous
epoch of that archive is dropped. Federations that mutate archive tables
without going through the ingest service must call :meth:`note_epoch`
(or :meth:`invalidate_all`) themselves.

Result rows are immutable tuples, so serving a hit shallow-copies the
row list and deep-copies only the small mutable node-stat dicts; a
caller mutating a served result cannot corrupt the cache.

Honest contract for the three hit kinds:

* exact / fingerprint hits are byte-identical to a fresh run — rows,
  order, counts, epochs, node stats, warnings.
* containment hits are row-identical **as a multiset** (and exactly
  identical under a total ``ORDER BY``): final row order without one is
  plan-order dependent, and the fresh order cannot be reconstructed
  without re-probing. ``counts`` is empty (the smaller area was never
  counted) and ``node_stats`` carries provenance instead of per-hop
  timings. Queries with ``LIMIT`` but no ``ORDER BY``, with drop-out
  archives (fewer rows in a smaller area can mean *more* survivors), or
  with pinned epochs never take this path.
"""

from __future__ import annotations

import copy
import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.sphere.coords import radec_to_vector
from repro.sphere.distance import angular_separation
from repro.sql.area import region_for
from repro.sql.ast import AreaClause, Query, and_together
from repro.sql.printer import to_sql
from repro.units import arcsec_to_rad

if TYPE_CHECKING:
    from repro.portal.decompose import DecomposedQuery
    from repro.portal.executor import FederatedResult
    from repro.portal.plan import ExecutionPlan
    from repro.xmatch.tuples import PartialTuple


@dataclass(frozen=True)
class CacheConfig:
    """Knobs of the semantic cache (see docs/SCHEDULING.md)."""

    #: Whole-query result entries kept (LRU-evicted beyond this).
    max_entries: int = 128
    #: Serve contained-circle queries from cached partial tuples. Also
    #: controls whether the planner widens ``attr_select`` with each
    #: mandatory archive's position columns (needed to re-filter).
    containment: bool = True

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("cache max_entries must be >= 1")


@dataclass
class CacheStats:
    """Observable counters (reported by E21 and the serve driver)."""

    hits: int = 0  # exact (pre-wire) result hits
    fingerprint_hits: int = 0  # post-plan fingerprint hits
    containment_hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass
class _ResultEntry:
    """One cached whole-query result and what keeps it valid."""

    exact_key: str
    fingerprint: Optional[str]
    #: The Portal-side finish the cached rows went through
    #: (:meth:`SemanticCache.finish_key`).
    finish: str
    #: archive name -> the epoch this answer was computed at.
    archive_epochs: Dict[str, int]
    result: "FederatedResult"
    #: Pre-cross-conjunct partial tuples (containment raw material);
    #: only kept for containment-eligible entries.
    raw_tuples: Optional[List["PartialTuple"]] = None
    #: Area-independent key of the node-side computation (containment
    #: index) and the circle it was evaluated over.
    containment_key: Optional[str] = None
    area: Optional[AreaClause] = None
    plan: Optional["ExecutionPlan"] = None


def _digest(payload: object) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:24]


class SemanticCache:
    """Epoch-validated memoization of results and regions."""

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        self.config = config or CacheConfig()
        self.stats = CacheStats()
        #: exact_key -> entry, in LRU order (oldest first).
        self._entries: "OrderedDict[str, _ResultEntry]" = OrderedDict()
        #: (fingerprint, finish) -> entry.
        self._by_fingerprint: Dict[Tuple[str, str], _ResultEntry] = {}
        #: containment_key -> exact keys of circle entries sharing it.
        self._containment: Dict[str, List[str]] = {}
        #: archive -> last epoch committed while this cache was watching.
        self._current_epochs: Dict[str, int] = {}

    # -- keys -----------------------------------------------------------------

    @staticmethod
    def exact_key(
        canonical_sql: str,
        strategy: str,
        random_seed: int,
        pins: Tuple[Tuple[str, int], ...],
        profile: Tuple[Tuple[str, str], ...],
    ) -> str:
        """Pre-wire key: the canonical query text plus every planner knob
        that can change the answer's bytes."""
        return _digest((canonical_sql, strategy, random_seed, pins, profile))

    @staticmethod
    def finish_key(decomposed: "DecomposedQuery") -> str:
        """What the Portal does to the chain's tuples, as canonical SQL:
        the select list, DISTINCT, the cross-archive conjuncts, ORDER BY
        and LIMIT. Two queries with one plan fingerprint share rows only
        if they also share this."""
        query = decomposed.query
        return to_sql(
            Query(
                items=query.items,
                tables=(),
                distinct=query.distinct,
                where=and_together(
                    tuple(decomposed.analysis.cross_conjuncts)
                ),
                order_by=query.order_by,
                limit=query.limit,
            )
        )

    @staticmethod
    def containment_key(
        decomposed: "DecomposedQuery",
        profile: Tuple[Tuple[str, str], ...],
    ) -> Optional[str]:
        """Area-independent key of the node-side computation.

        Two queries share it when every node would compute the same thing
        modulo the AREA — same archives/tables/residuals/attribute
        columns and the same chi-squared threshold — so the larger
        query's partial tuples are a superset of the smaller's.
        Cross-archive conjuncts, SELECT/DISTINCT/ORDER BY/LIMIT are
        *excluded* on purpose: they are applied portal-side during the
        re-finish. Returns None for queries that can never participate
        (drop-outs present, or no circular AREA).
        """
        if decomposed.dropout_aliases:
            return None
        if not isinstance(decomposed.area, AreaClause):
            return None
        assert decomposed.xmatch is not None
        terms = tuple(
            sorted(
                (
                    sub.alias,
                    sub.archive,
                    sub.table,
                    sub.residual_sql,
                    sub.attr_select,
                )
                for sub in decomposed.subqueries.values()
            )
        )
        return _digest(
            (terms, round(decomposed.xmatch.threshold, 12), profile)
        )

    # -- epoch validity -------------------------------------------------------

    def note_epoch(self, archive: str, epoch: int) -> None:
        """An archive committed a new epoch: drop everything it pinned.

        Wired onto ``TransactionService.on_epoch_commit`` by the
        federation builder; also the hook tests/tools call by hand when
        they advance epochs without the ingest service.
        """
        previous = self._current_epochs.get(archive)
        self._current_epochs[archive] = epoch
        if previous == epoch:
            return
        stale = [
            key
            for key, entry in self._entries.items()
            if archive in entry.archive_epochs
            and entry.archive_epochs[archive] != epoch
        ]
        for key in stale:
            self._drop(key)
            self.stats.invalidations += 1

    def invalidate_all(self) -> None:
        """Drop every entry (the blunt instrument for out-of-band writes)."""
        dropped = len(self._entries)
        self._entries.clear()
        self._by_fingerprint.clear()
        self._containment.clear()
        self.stats.invalidations += dropped

    def _epochs_live(self, archive_epochs: Dict[str, int]) -> bool:
        """True while every pinned archive is still at its pinned epoch.

        An archive this cache has never seen commit is assumed unchanged:
        epochs only move through the commit hook that feeds
        :meth:`note_epoch`.
        """
        return all(
            self._current_epochs.get(archive, epoch) == epoch
            for archive, epoch in archive_epochs.items()
        )

    # -- whole-query results --------------------------------------------------

    def lookup_exact(self, exact_key: str) -> Optional["FederatedResult"]:
        """A byte-identical served copy for a repeat submission, or None."""
        entry = self._entries.get(exact_key)
        if entry is None or not self._epochs_live(entry.archive_epochs):
            if entry is not None:
                self._drop(exact_key)
                self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(exact_key)
        self.stats.hits += 1
        served = self._served_copy(entry.result)
        served.cache = "exact"
        return served

    def lookup_fingerprint(
        self, fingerprint: str, finish: str
    ) -> Optional["FederatedResult"]:
        """Post-plan lookup: catches different SQL text compiling to the
        same chain and the same Portal-side ``finish``
        (:meth:`finish_key`). The fingerprint embeds the pinned epochs and
        profile; liveness is still re-checked so a commit between planning
        and lookup cannot serve a stale answer."""
        entry = self._by_fingerprint.get((fingerprint, finish))
        if entry is None or not self._epochs_live(entry.archive_epochs):
            if entry is not None:
                self._drop(entry.exact_key)
                self.stats.invalidations += 1
            return None
        self._entries.move_to_end(entry.exact_key)
        self.stats.fingerprint_hits += 1
        served = self._served_copy(entry.result)
        served.cache = "fingerprint"
        return served

    def store_result(
        self,
        exact_key: str,
        result: "FederatedResult",
        *,
        archives_by_alias: Dict[str, str],
        finish: str,
        containment_key: Optional[str] = None,
        area: Optional[AreaClause] = None,
    ) -> None:
        """Admit a freshly computed result.

        Only *clean* answers are cacheable: degraded results, results with
        warnings, and failed-over results reflect transient federation
        state, not the query's semantics. Served hits (``result.cache``
        set) are never re-admitted.
        """
        if (
            result.cache is not None
            or result.degraded
            or result.failovers
            or result.warnings
        ):
            return
        archive_epochs = {
            archives_by_alias[alias]: epoch
            for alias, epoch in result.epochs.items()
            if alias in archives_by_alias
        }
        if not archive_epochs or not self._epochs_live(archive_epochs):
            return
        raw = result.raw_tuples if self.config.containment else None
        entry = _ResultEntry(
            exact_key=exact_key,
            fingerprint=(
                result.plan.fingerprint(0) if result.plan is not None else None
            ),
            finish=finish,
            archive_epochs=archive_epochs,
            result=self._stored_copy(result),
            raw_tuples=list(raw) if raw is not None else None,
            containment_key=(
                containment_key if raw is not None else None
            ),
            area=area if raw is not None else None,
            plan=result.plan,
        )
        if exact_key in self._entries:
            self._drop(exact_key)
        self._entries[exact_key] = entry
        if entry.fingerprint is not None:
            self._by_fingerprint.setdefault((entry.fingerprint, finish), entry)
        if entry.containment_key is not None:
            self._containment.setdefault(entry.containment_key, []).append(
                exact_key
            )
        self.stats.stores += 1
        while len(self._entries) > self.config.max_entries:
            oldest, _ = self._entries.popitem(last=False)
            self._unindex(oldest=oldest)
            self.stats.evictions += 1

    # -- AREA containment -----------------------------------------------------

    def covering_entry(
        self, containment_key: Optional[str], area: Optional[AreaClause]
    ) -> Optional[_ResultEntry]:
        """A live cached circle that geometrically contains ``area``.

        Circle-in-circle test: ``sep(centers) + r_query <= r_entry`` (no
        tolerance — a false negative costs a miss, a false positive would
        cost correctness). The newest qualifying entry wins.
        """
        if not self.config.containment:
            return None
        if containment_key is None or not isinstance(area, AreaClause):
            return None
        candidates = self._containment.get(containment_key, [])
        center = radec_to_vector(area.ra_deg, area.dec_deg)
        radius_rad = arcsec_to_rad(area.radius_arcsec)
        best: Optional[_ResultEntry] = None
        for exact_key in candidates:
            entry = self._entries.get(exact_key)
            if entry is None or entry.area is None:
                continue
            if not self._epochs_live(entry.archive_epochs):
                continue
            cached = region_for(entry.area)
            sep = angular_separation(cached.center, center)
            if sep + radius_rad <= cached.radius_rad:
                best = entry
        if best is not None:
            self._entries.move_to_end(best.exact_key)
            self.stats.containment_hits += 1
        return best

    # -- internals ------------------------------------------------------------

    def _drop(self, exact_key: str) -> None:
        self._entries.pop(exact_key, None)
        self._unindex(oldest=exact_key)

    def _unindex(self, *, oldest: str) -> None:
        for key in [
            key
            for key, entry in self._by_fingerprint.items()
            if entry.exact_key == oldest
        ]:
            del self._by_fingerprint[key]
        for ckey in list(self._containment):
            keys = [k for k in self._containment[ckey] if k != oldest]
            if keys:
                self._containment[ckey] = keys
            else:
                del self._containment[ckey]

    @staticmethod
    def _stored_copy(result: "FederatedResult") -> "FederatedResult":
        """Snapshot a result for the cache (drop per-run trace/raw refs)."""
        stored = SemanticCache._served_copy(result)
        stored.cache = None
        return stored

    @staticmethod
    def _served_copy(result: "FederatedResult") -> "FederatedResult":
        from repro.portal.executor import FederatedResult

        return FederatedResult(
            columns=list(result.columns),
            rows=list(result.rows),
            node_stats=copy.deepcopy(result.node_stats),
            plan=result.plan,
            counts=dict(result.counts),
            epochs=dict(result.epochs),
            matched_tuples=result.matched_tuples,
            warnings=list(result.warnings),
            degraded=result.degraded,
            failovers=result.failovers,
        )


