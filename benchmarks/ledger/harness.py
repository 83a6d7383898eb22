"""The timed window: per-operation clocks, failure counts, boundary counts.

One client, one thread, closed loop: the next operation starts when the
previous one returned. The window's wall and CPU are the *sums of the
per-operation timers*, so the generator and this file's bookkeeping between
operations are not charged to the program.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SkyQueryError

SETUP_REPEATS = 3


@dataclass
class QueryRecord:
    """One answered query, kept for the digest and the oracle."""

    spec: Any
    rows: List[tuple]
    epochs: Dict[str, int]
    kind: str
    node_stats: List[Dict[str, Any]]
    cache: Optional[str] = None


@dataclass
class Window:
    """Accumulates one timed window over one federation."""

    fed: Any
    tracer: Any = None  # trace.Recorder in a traced run
    query_wall: List[float] = field(default_factory=list)
    post_commit_wall: List[float] = field(default_factory=list)
    commit_wall: List[float] = field(default_factory=list)
    query_sim: List[float] = field(default_factory=list)
    sim_wait: List[float] = field(default_factory=list)
    records: List[QueryRecord] = field(default_factory=list)
    #: (message-log index at the start of a query, its spec): lets the
    #: shard counts attribute each message to the query that caused it.
    marks: List[Tuple[int, Any]] = field(default_factory=list)
    counts_before: Dict[str, Any] = field(default_factory=dict)
    counts_after: Dict[str, Any] = field(default_factory=dict)
    #: Lengths of ``query_wall`` and ``query_sim`` when the workload's
    #: ``prefix_ops`` were done (None: the window ended first).
    prefix: Optional[Tuple[int, int]] = None
    #: The noise sentinel's reading just before the first timed operation.
    sentinel_before: float = 0.0
    ops: int = 0
    queries: int = 0
    result_rows: int = 0
    rows_committed: int = 0
    commits: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    failures: List[str] = field(default_factory=list)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(what)

    def _timed(self, label: str, call):
        """Run one operation under the wall, CPU and (traced) span clocks."""
        tracer = self.tracer
        root = tracer.open_root(label) if tracer is not None else None
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            result, error = call(), None
        except SkyQueryError as exc:
            result, error = None, exc
        wall = time.perf_counter() - wall0
        self.cpu_s += time.process_time() - cpu0
        if root is not None:
            tracer.close_root(root)
        self.wall_s += wall
        self.attempted += 1
        if error is not None:
            self._fail(f"{label}: {type(error).__name__}: {error}")
        return result, wall

    def _answered(self, spec, result, kind, cache=None) -> None:
        self.queries += 1
        if result is None:
            return
        if result.degraded:
            self._fail(f"degraded: {list(result.warnings)[:1]}")
        self.result_rows += len(result.rows)
        self.records.append(
            QueryRecord(
                spec,
                [tuple(row) for row in result.rows],
                dict(result.epochs),
                kind,
                list(result.node_stats),
                cache,
            )
        )

    def query(self, client, spec, kind: str = "query") -> None:
        """One ``client.submit``; wall and sim-clock latency per query."""
        clock = self.fed.network.clock
        self.marks.append((len(self.fed.network.metrics.messages), spec))
        sim0 = clock.now
        result, wall = self._timed("query", lambda: client.submit(spec.sql))
        self.query_sim.append(clock.now - sim0)
        (self.post_commit_wall if kind == "post_commit" else self.query_wall).append(wall)
        self._answered(spec, result, kind)

    def burst(self, scheduler, specs: Sequence[Any], tenants: Sequence[str]) -> None:
        """One ``scheduler.run`` of ``len(specs)`` jobs; the per-query wall
        sample is the burst's wall divided by its size."""
        jobs = [
            {"sql": spec.sql, "tenant": tenants[i % len(tenants)]}
            for i, spec in enumerate(specs)
        ]
        outcomes, wall = self._timed("burst", lambda: scheduler.run(jobs))
        self.attempted += len(specs) - 1
        self.query_wall.append(wall / len(specs))
        for spec, outcome in zip(specs, outcomes or ()):
            if outcome.error is not None:
                self._fail(f"job: {type(outcome.error).__name__}: {outcome.error}")
            self.query_sim.append(outcome.latency_s)
            self.sim_wait.append(outcome.wait_s)
            self._answered(spec, outcome.result, "query", outcome.cache)
        if outcomes is None:
            self.queries += len(specs)

    def commit(self, ingester, table: str, columns, rows) -> None:
        """One ``ingest_rows`` call (begin, upload in batches, 2PC commit)."""
        result, wall = self._timed(
            "commit", lambda: ingester.ingest_rows(table, columns, rows)
        )
        self.commit_wall.append(wall)
        self.commits += 1
        if result is not None and not result.committed:
            self._fail(f"commit aborted: {result.abort_reason}")
        elif result is not None:
            self.rows_committed += result.rows_sent


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_setup(build, repeats: int = SETUP_REPEATS):
    """Build the federation ``repeats`` times; median wall, last one kept."""
    walls = []
    fed = None
    for _ in range(repeats):
        fed = None
        gc.collect()
        start = time.perf_counter()
        fed = build()
        walls.append(time.perf_counter() - start)
    return fed, statistics.median(walls)


def run_window(workload, fed, seed, *, seconds, ops, tracer=None) -> Window:
    """Warm up, collect garbage, then step until the box (or count) is spent."""
    workload.start(fed, seed)
    warm = Window(fed)
    for _ in range(workload.warm_ops):
        workload.step(warm)
    window = Window(fed, tracer=tracer)
    window.failed, window.failures = warm.failed, warm.failures
    window.counts_before = snapshot_counts(fed)
    gc.collect()
    # After the warm-up and the collection, so that both readings see the
    # heap at its working size: taken before them it read 4-9 % slow.
    window.sentinel_before = sentinel()
    if tracer is not None:
        tracer.enabled = True
    done = 0
    deadline = time.perf_counter() + seconds
    while True:
        workload.step(window)
        done += 1
        if done == workload.prefix_ops:
            window.prefix = (len(window.query_wall), len(window.query_sim))
        if (done >= ops) if ops else (time.perf_counter() >= deadline):
            break
    if tracer is not None:
        tracer.enabled = False
    window.ops = done
    window.counts_after = snapshot_counts(fed)
    return window


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sentinel() -> float:
    """Best-of-5 seconds of a fixed pure-Python + numpy spin (~50 ms): the
    machine's speed right now, so a noisy neighbour is told from a
    regression."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i % 7
        block = np.arange(100_000, dtype=np.float64)
        scratch = np.empty_like(block)
        for _ in range(80):  # in place: malloc state must not show up here
            np.multiply(block, block, out=scratch)
            np.add(scratch, 1.0, out=scratch)
            np.sqrt(scratch, out=block)
        best = min(best, time.perf_counter() - start)
    return best


# -- end-to-end numbers ---------------------------------------------------------


def end_to_end(window: Window, setup_s: float) -> Dict[str, Tuple[float, str]]:
    """The metrics BENCHMARK.json bounds, defined on every workload.

    The two percentiles are taken over the workload's fixed prefix of
    operations (when the window got that far): query wall grows with the
    number of queries a federation has served, so over the whole time box a
    faster program, which serves more, would report a higher median.
    """
    queries = max(window.queries, 1)
    wire_bytes = window.counts_after["bytes"] - window.counts_before["bytes"]
    n_wall, n_sim = window.prefix or (None, None)
    return {
        "setup_s": (setup_s, "s"),
        "query_wall_p50_ms": (median(window.query_wall[:n_wall]) * 1e3, "ms"),
        "queries_per_s": (window.queries / window.wall_s, "1/s"),
        "result_rows_per_s": (window.result_rows / window.wall_s, "rows/s"),
        "cpu_ms_per_query": (window.cpu_s * 1e3 / queries, "ms"),
        "query_sim_p95_s": (percentile(window.query_sim[:n_sim], 0.95), "s"),
        "wire_bytes_per_query": (wire_bytes / queries, "bytes"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def workload_metrics(window: Window) -> Dict[str, Tuple[float, str]]:
    """Timings that exist only on some workloads, or need more samples than
    every workload has; recorded untraced, reported per-layer (README)."""
    first, last = _quarters(window.query_wall)
    return {
        "client.query_wall_p95_ms": (percentile(window.query_wall, 0.95) * 1e3, "ms"),
        "client.query_wall_p99_ms": (percentile(window.query_wall, 0.99) * 1e3, "ms"),
        "client.query_sim_p50_s": (median(window.query_sim), "s"),
        "client.wall_drift_ratio": (last / first if first else 0.0, "ratio"),
        "ingest.commit_wall_p50_ms": (median(window.commit_wall) * 1e3, "ms"),
        "ingest.post_commit_query_wall_p50_ms": (
            median(window.post_commit_wall) * 1e3,
            "ms",
        ),
        "ingest.rows_per_s": (
            window.rows_committed / sum(window.commit_wall)
            if window.commit_wall
            else 0.0,
            "rows/s",
        ),
        "bench.failed_share": (window.failed / max(window.attempted, 1), "ratio"),
    }


def _quarters(values: Sequence[float]) -> Tuple[float, float]:
    """Median of the first and of the last quarter of a sample series."""
    quarter = len(values) // 4
    if quarter == 0:
        return 0.0, 0.0
    return median(values[:quarter]), median(values[-quarter:])


def rows_digest(window: Window) -> str:
    """sha256 of every result row of the window, in order."""
    digest = hashlib.sha256()
    for record in window.records:
        for row in record.rows:
            digest.update(repr(row).encode("utf-8"))
    return digest.hexdigest()


# -- counts at the layer boundaries ---------------------------------------------


def _all_nodes(fed) -> List[Any]:
    nodes = list(fed.nodes.values())
    for group in (fed.replicas, fed.shards):
        for members in group.values():
            nodes.extend(members)
    for by_shard in fed.shard_replicas.values():
        for members in by_shard.values():
            nodes.extend(members)
    return nodes


def snapshot_counts(fed) -> Dict[str, Any]:
    """Cumulative public counters, read before and after the window."""
    metrics = fed.network.metrics
    nodes = _all_nodes(fed)
    counts: Dict[str, Any] = {
        "messages": len(metrics.messages),
        "bytes": metrics.total_bytes(),
        "processing_s": metrics.processing_seconds,
        "retries": metrics.retries,
        "faults": metrics.fault_count() + metrics.timeouts,
        "logical_reads": sum(n.db.buffer.stats.logical_reads for n in nodes),
        "physical_reads": sum(n.db.buffer.stats.physical_reads for n in nodes),
        "epochs_committed": sum(n.db.committed_epoch for n in fed.nodes.values()),
        "epochs_gcd": sum(n.db.oldest_epoch for n in fed.nodes.values()),
    }
    if fed.cache is not None:
        counts["cache"] = fed.cache.stats.as_dict()
    if fed.scheduler is not None:
        counts["scheduler"] = fed.scheduler.stats.as_dict()
    return counts


_CHAIN_PHASES = ("crossmatch-chain", "batch-transfer")
_PROBE_PHASES = ("performance-query", "health-probe")


def boundary_counts(window: Window) -> Dict[str, Tuple[float, str]]:
    """Per-query work counts from the program's public stats."""
    fed = window.fed
    before, after = window.counts_before, window.counts_after
    queries = max(window.queries, 1)
    messages = fed.network.metrics.messages[before["messages"]:after["messages"]]

    def delta(key: str) -> float:
        return after[key] - before[key]

    by_phase: Dict[str, int] = {}
    by_operation: Dict[str, int] = {}
    for message in messages:
        by_phase[message.phase] = by_phase.get(message.phase, 0) + message.wire_bytes
        if message.kind == "request":
            by_operation[message.operation] = by_operation.get(message.operation, 0) + 1
    chain_bytes = sum(by_phase.get(phase, 0) for phase in _CHAIN_PHASES)

    stats = [s for r in window.records if r.cache is None for s in r.node_stats]
    matches = [s for s in stats if s.get("role") == "match"]
    tuples_in = sum(s["tuples_in"] for s in stats)
    tuples_out = sum(s["tuples_out"] for s in stats)
    match_in = sum(s["tuples_in"] for s in matches)
    match_out = sum(s["tuples_out"] for s in matches)
    candidates = sum(s["candidates_tested"] for s in matches)

    logical = delta("logical_reads")
    out: Dict[str, Tuple[float, str]] = {
        "soap.wire_bytes_per_tuple_row": (
            chain_bytes / tuples_out if tuples_out else 0.0,
            "bytes",
        ),
        "transport.messages_per_query": (len(messages) / queries, "count"),
        "transport.chain_bytes_per_query": (chain_bytes / queries, "bytes"),
        "transport.probe_bytes_per_query": (
            sum(by_phase.get(phase, 0) for phase in _PROBE_PHASES) / queries,
            "bytes",
        ),
        "transport.client_bytes_per_query": (by_phase.get("client", 0) / queries, "bytes"),
        "transport.processing_sim_s_per_query": (delta("processing_s") / queries, "s"),
        "services.retries": (delta("retries"), "count"),
        "services.faults": (delta("faults"), "count"),
        "portal.count_probes_per_query": (
            by_operation.get("ExecuteQueryPinned", 0) / queries,
            "count",
        ),
        "skynode.batches_per_query": (by_operation.get("PullBatch", 0) / queries, "count"),
        "xmatch.tuples_in_per_query": (tuples_in / queries, "count"),
        "xmatch.tuples_out_per_query": (tuples_out / queries, "count"),
        "xmatch.survival_ratio": (match_out / match_in if match_in else 0.0, "ratio"),
        "db.logical_reads_per_query": (logical / queries, "count"),
        "db.physical_reads_per_query": (delta("physical_reads") / queries, "count"),
        "db.buffer_hit_ratio": (
            1.0 - delta("physical_reads") / logical if logical else 0.0,
            "ratio",
        ),
        "db.candidates_per_match": (candidates / match_out if match_out else 0.0, "count"),
        "ingest.epochs_committed": (delta("epochs_committed"), "count"),
        "ingest.epochs_gcd": (delta("epochs_gcd"), "count"),
    }
    out.update(_portal_counts(window))
    out.update(_shard_counts(window, messages, before["messages"]))
    return out


def _portal_counts(window: Window) -> Dict[str, Tuple[float, str]]:
    before, after = window.counts_before, window.counts_after
    cache = {
        key: after["cache"][key] - before["cache"][key] for key in after.get("cache", {})
    }
    sched = {
        key: after["scheduler"][key] - before["scheduler"][key]
        for key in after.get("scheduler", {})
    }
    hits = (
        cache.get("hits", 0)
        + cache.get("fingerprint_hits", 0)
        + cache.get("containment_hits", 0)
    )
    # Every query makes one exact lookup; a fingerprint or containment hit
    # is counted after that lookup has counted a miss.
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    probes = cache.get("probe_hits", 0) + cache.get("probe_misses", 0)
    return {
        "portal.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "portal.cache_containment_share": (
            cache.get("containment_hits", 0) / hits if hits else 0.0,
            "ratio",
        ),
        "portal.probe_memo_hit_ratio": (
            cache.get("probe_hits", 0) / probes if probes else 0.0,
            "ratio",
        ),
        "portal.cache_evictions": (cache.get("evictions", 0), "count"),
        "portal.scheduler_waves": (sched.get("waves", 0), "count"),
        "portal.sim_wait_p50_s": (median(window.sim_wait), "s"),
        "portal.shed_jobs": (sched.get("rejected", 0) + sched.get("expired", 0), "count"),
    }


def _shard_counts(window: Window, messages, offset: int) -> Dict[str, Tuple[float, str]]:
    """Distinct shard hosts each query reached, against the shards of the
    archives it named; and how unevenly the worst archive's rows are split."""
    fed = window.fed
    shard_hosts = {
        node.hostname for members in fed.shards.values() for node in members
    }
    touched = pruned = 0
    if shard_hosts:
        ends = [mark - offset for mark, _ in window.marks[1:]] + [len(messages)]
        for (mark, spec), end in zip(window.marks, ends):
            reached = {m.dst for m in messages[mark - offset:end] if m.dst in shard_hosts}
            touched += len(reached)
            pruned += sum(len(fed.shards[a]) for a in spec.archives) - len(reached)
    skew = 0.0
    for members in fed.shards.values():
        sizes = [len(node.db.table(node.info.primary_table)) for node in members]
        if sum(sizes):
            skew = max(skew, max(sizes) * len(sizes) / sum(sizes))
    queries = max(window.queries, 1)
    return {
        "shard.touched_per_query": (touched / queries, "count"),
        "shard.pruned_per_query": (pruned / queries, "count"),
        "shard.row_skew": (skew, "ratio"),
    }
