"""Command-line interface: demo federations, queries, experiments.

Usage::

    python -m repro info
    python -m repro demo [--bodies N]
    python -m repro query "SELECT ..." [--bodies N] [--strategy S]
                          [--format table|votable|csv]
    python -m repro ingest [--archive A] [--rows N] [--replicas R]
    python -m repro serve [--clients N] [--tenants T] [--cache on|off]
    python -m repro experiments [--ids E1,E4,...] [--out FILE]
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro import __version__
from repro.client.formatting import format_table, to_votable
from repro.errors import (
    DeadlineExceededError,
    QueryCancelledError,
    SkyQueryError,
)
from repro.federation.builder import FederationConfig, build_federation
from repro.workloads.skysim import SkyField


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SkyQuery (CIDR 2003) reproduction: a Web-service "
        "federation of astronomy archives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version and component inventory")

    demo = sub.add_parser("demo", help="build a federation, run a sample query")
    _federation_args(demo)

    query = sub.add_parser("query", help="run a cross-match query")
    query.add_argument("sql", help="the SkyQuery SQL text")
    _federation_args(query)
    query.add_argument(
        "--strategy",
        default="count_desc",
        choices=["count_desc", "count_asc", "random", "as_written",
                 "bytes_desc"],
        help="plan ordering strategy (default: the paper's count_desc)",
    )
    query.add_argument(
        "--format", dest="output_format", default="table",
        choices=["table", "votable", "csv"],
        help="result rendering",
    )
    query.add_argument(
        "--stats", action="store_true",
        help="also print per-node and network statistics",
    )
    query.add_argument(
        "--explain", action="store_true",
        help="show the decomposition and plan without executing the chain",
    )

    trace = sub.add_parser(
        "trace",
        help="run a query and print its distributed trace as a flamegraph",
    )
    trace.add_argument(
        "sql", nargs="?", default=None,
        help="the SkyQuery SQL text (default: the demo query)",
    )
    _federation_args(trace)
    trace.add_argument(
        "--strategy",
        default="count_desc",
        choices=["count_desc", "count_asc", "random", "as_written",
                 "bytes_desc"],
        help="plan ordering strategy (default: the paper's count_desc)",
    )
    trace.add_argument(
        "--chrome", default="", metavar="FILE",
        help="also write Chrome trace_event JSON (open in about:tracing "
             "or Perfetto)",
    )
    trace.add_argument(
        "--width", type=int, default=72, metavar="COLS",
        help="flamegraph timeline width in columns (default 72)",
    )

    ingest = sub.add_parser(
        "ingest",
        help="live-ingest demo: upload new observations, commit them as a "
             "snapshot epoch, and show pinned (repeatable) reads",
    )
    _federation_args(ingest)
    ingest.add_argument(
        "--archive", default="SDSS",
        help="archive to ingest into (default SDSS)",
    )
    ingest.add_argument(
        "--rows", type=int, default=120, metavar="N",
        help="new synthetic bodies to observe and upload (default 120)",
    )

    serve = sub.add_parser(
        "serve",
        help="multi-tenant portal driver: run a zipf-repeated concurrent "
             "workload through the query scheduler and semantic cache",
    )
    _federation_args(serve)
    serve.add_argument(
        "--clients", type=int, default=4, metavar="N",
        help="concurrent clients submitting queries (default 4)",
    )
    serve.add_argument(
        "--tenants", type=int, default=2, metavar="T",
        help="tenants the clients are spread across (default 2)",
    )
    serve.add_argument(
        "--queries", type=int, default=12, metavar="Q",
        help="total queries in the workload (default 12)",
    )
    serve.add_argument(
        "--pool", type=int, default=3, metavar="P",
        help="distinct queries in the zipf pool (default 3)",
    )
    serve.add_argument(
        "--zipf", type=float, default=1.1, metavar="S",
        help="zipf skew exponent; higher = hotter head (default 1.1)",
    )
    serve.add_argument(
        "--cache", default="on", choices=["on", "off"],
        help="the Portal's semantic result cache (default on)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=4, metavar="K",
        help="queries executing concurrently per wave (default 4)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64, metavar="M",
        help="queued jobs before enqueue sheds load (default 64)",
    )
    serve.add_argument(
        "--serial", default="on", choices=["on", "off"],
        help="also run the serial uncached baseline on a twin federation "
             "for comparison (default on)",
    )
    serve.add_argument(
        "--deadline", type=float, default=0.0, metavar="S",
        help="end-to-end budget per query in simulated seconds, from "
             "enqueue; jobs that overrun are cancelled and jobs whose "
             "budget dies in the queue are shed undispatched "
             "(default 0: unbounded)",
    )

    experiments = sub.add_parser(
        "experiments", help="run the paper-reproduction experiments"
    )
    experiments.add_argument(
        "--ids", default="",
        help="comma-separated registry ids (e.g. E1,E11-sharded); "
             "default: all. SKYQUERY_BENCH_QUICK=1 runs each at its quick "
             "size",
    )
    experiments.add_argument(
        "--out", default="",
        help="also write the report (EXPERIMENTS.md's form) to this file",
    )
    return parser


def _federation_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bodies", type=int, default=1000,
                        help="synthetic bodies in the field (default 1000)")
    parser.add_argument("--seed", type=int, default=42, help="random seed")
    parser.add_argument("--radius", type=float, default=1800.0,
                        help="field radius in arcseconds (default 1800)")
    parser.add_argument(
        "--retries", type=int, default=0,
        help="retries per RPC after the first attempt (default 0: "
             "single-shot calls)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt request timeout in simulated seconds "
             "(default: no timeout)",
    )
    parser.add_argument(
        "--chain-mode", default="store-forward",
        choices=["store-forward", "pipelined"],
        help="how the chain's tuple streams are cut: store-forward "
             "(default) ships each hop's whole result as one batch "
             "inside the PerformXMatch response; pipelined cuts it into "
             "--batch-size batches pulled with overlapped transfer",
    )
    parser.add_argument(
        "--batch-size", type=int, default=200, metavar="TUPLES",
        help="tuples per batch when the chain is pipelined (default 200)",
    )
    parser.add_argument(
        "--replicas", type=int, default=0, metavar="N",
        help="replica SkyNodes provisioned per archive (2PC-replicated "
             "mirrors the Portal fails over to; default 0); with --shards "
             "also provisions that many mirrors of each shard",
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="spatial shards per archive (default 0: monolithic). Every "
             "archive's table is cut on the same N declination stripes; "
             "a query then runs as one chain per stripe, with "
             "byte-identical results",
    )


def _retry_policy(args: argparse.Namespace):
    from repro.services.retry import RetryPolicy

    if args.retries <= 0 and args.timeout is None:
        return None
    return RetryPolicy(
        max_attempts=max(1, args.retries + 1),
        timeout_s=args.timeout,
        seed=args.seed,
    )


def _make_federation(args: argparse.Namespace, *, ingest: bool = False,
                     **extra):
    return build_federation(FederationConfig(
        n_bodies=args.bodies,
        seed=args.seed,
        sky_field=SkyField(185.0, -0.5, args.radius),
        retry_policy=_retry_policy(args),
        chain_mode=args.chain_mode,
        stream_batch_size=args.batch_size,
        replicas=args.replicas,
        shards=getattr(args, "shards", 0),
        ingest=ingest,
        **extra,
    ))


DEMO_SQL = """
SELECT O.object_id, O.ra, T.obj_id, O.i_flux - T.i_flux AS color
FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, FIRST:Primary_Object P
WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T, P) < 3.5
  AND O.type = GALAXY
""".strip()


def _cmd_info() -> int:
    print(f"skyquery-repro {__version__}")
    print("Reproduction of: SkyQuery — A Web Service Approach to Federate "
          "Databases (CIDR 2003)")
    print("Components: sphere, htm, db, sql, soap, transport, services,")
    print("            xmatch, skynode, portal, client, federation,")
    print("            workloads, baselines, transactions, bench")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    print(f"Building a 3-archive federation ({args.bodies} bodies)...")
    federation = _make_federation(args)
    print(f"Registered: {federation.portal.catalog.archives()}")
    print(f"\nRunning the paper's sample query:\n{DEMO_SQL}\n")
    result = federation.client().submit(DEMO_SQL)
    print(format_table(result.columns, result.rows, max_rows=10))
    print(f"\n{len(result)} cross matches; counts {result.counts}; "
          f"chain bytes "
          f"{federation.network.metrics.bytes_by_phase().get('crossmatch-chain', 0)}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    federation = _make_federation(args)
    if args.explain:
        plan = federation.client().explain(args.sql, strategy=args.strategy)
        if plan["type"] == "direct":
            print(f"direct route to {plan['archive']}: {plan['sql']}")
            return 0
        print(f"strategy: {plan['strategy']}   counts: {plan['counts']}   "
              f"would execute: {plan['would_execute']}")
        print("performance queries:")
        for alias, sql in plan["performance_queries"].items():
            print(f"  {alias}: {sql}")
        for warning in plan["warnings"]:
            print(f"warning: {warning}")
        print("plan list (first = largest, executes last):")
        for step in (plan["plan"] or {"steps": []})["steps"]:
            role = "dropout" if step["dropout"] else f"count={step['count_star']}"
            print(f"  {step['alias']} @ {step['archive']} ({role}): "
                  f"{step['sql']}")
        if plan["cross_conjuncts"]:
            print(f"portal-side predicates: {plan['cross_conjuncts']}")
        return 0
    result = federation.client().submit(args.sql, strategy=args.strategy)
    if args.output_format == "votable":
        print(to_votable(result.columns, result.rows))
    elif args.output_format == "csv":
        print(",".join(result.columns))
        for row in result.rows:
            print(",".join("" if v is None else str(v) for v in row))
    else:
        print(format_table(result.columns, result.rows))
    if result.degraded:
        print("\nwarning: degraded result", file=sys.stderr)
        for warning in result.warnings:
            print(f"  - {warning}", file=sys.stderr)
    elif result.failovers:
        print(f"\nnote: {result.failovers} endpoint failover(s); "
              "result is complete", file=sys.stderr)
        for warning in result.warnings:
            print(f"  - {warning}", file=sys.stderr)
    if args.stats:
        print(f"\nrows: {len(result)}  counts: {result.counts}")
        for stats in result.node_stats:
            print(
                f"  {stats['archive']:<8} {stats['role']:<7} "
                f"in={stats['tuples_in']} out={stats['tuples_out']} "
                f"examined={stats['rows_examined']}"
            )
        phases = federation.network.metrics.bytes_by_phase()
        for phase, total in sorted(phases.items()):
            print(f"  {phase:<18} {total} B")
        metrics = federation.network.metrics
        if metrics.retries or metrics.timeouts or metrics.faults:
            print(f"  retries={metrics.retries} timeouts={metrics.timeouts} "
                  f"faults={metrics.faults}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.tracing import render_flamegraph, to_chrome_trace_json

    federation = _make_federation(args)
    tracer = federation.tracer
    if tracer is None:
        print("error: the federation was built without tracing",
              file=sys.stderr)
        return 2
    sql = args.sql or DEMO_SQL
    # Drop registration-time traces so the query's trace stands alone.
    tracer.reset()
    result = federation.client().submit(sql, strategy=args.strategy)
    trace = tracer.trace()
    print(render_flamegraph(trace, width=args.width))
    if result.degraded:
        print("\nwarning: degraded result", file=sys.stderr)
        for warning in result.warnings:
            print(f"  - {warning}", file=sys.stderr)
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as handle:
            handle.write(to_chrome_trace_json(trace, indent=2))
        print(f"wrote {args.chrome}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.workloads.skysim import generate_bodies, observe_survey

    federation = _make_federation(args, ingest=True)
    config = federation.config
    surveys = {spec.archive: spec for spec in config.surveys}
    if args.archive not in surveys:
        print(f"error: unknown archive {args.archive!r}; "
              f"choose from {sorted(surveys)}", file=sys.stderr)
        return 2
    survey = surveys[args.archive]
    client = federation.client()

    before = client.submit(DEMO_SQL)
    print(f"before ingest: {len(before)} matches, epochs {before.epochs}")

    observation = observe_survey(
        survey,
        generate_bodies(config.sky_field, args.rows, config.seed + 1),
        config.seed + 1,
    )
    columns = list(observation.rows[0].keys())
    rows = [tuple(row[c] for c in columns) for row in observation.rows]
    result = federation.ingest_client(args.archive).ingest_rows(
        survey.primary_table, columns, rows
    )
    if not result.committed:
        print(f"error: ingest aborted: {result.abort_reason}",
              file=sys.stderr)
        return 2
    print(f"ingested {result.rows_sent} rows into {args.archive} as epoch "
          f"{result.epoch} (txn {result.txn_id}, "
          f"{len(result.votes)} participant(s) voted commit)")
    for replica in federation.replicas.get(args.archive, []):
        print(f"  replica {replica.hostname}: epoch "
              f"{replica.db.committed_epoch}, "
              f"{replica.db.count_rows(survey.primary_table)} rows")

    after = client.submit(DEMO_SQL)
    print(f"after ingest:  {len(after)} matches, epochs {after.epochs}")
    pinned = federation.portal.submit(DEMO_SQL, pin_epochs=before.epochs)
    repeatable = sorted(pinned.rows) == sorted(before.rows)
    print(f"pinned re-read at {before.epochs}: {len(pinned.rows)} matches, "
          f"identical to pre-ingest: {repeatable}")
    return 0 if repeatable else 1


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile of an unsorted sequence (q in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def _cmd_serve(args: argparse.Namespace) -> int:
    from collections import defaultdict

    from repro.bench.scenarios import zipf_workload
    from repro.portal.scheduler import SchedulerConfig

    for name in ("clients", "tenants", "queries", "pool"):
        if getattr(args, name) < 1:
            print(f"error: --{name} must be >= 1", file=sys.stderr)
            return 2

    print(f"Building a 3-archive federation ({args.bodies} bodies, "
          f"scheduler max_inflight={args.max_inflight}, "
          f"cache {args.cache})...")
    federation = _make_federation(
        args,
        scheduler=SchedulerConfig(
            max_inflight=args.max_inflight, max_queue=args.max_queue
        ),
        cache=(args.cache == "on"),
    )
    scheduler = federation.scheduler
    assert scheduler is not None

    # Client c acts for tenant c % T; job i is submitted by client i % N.
    tenants = [
        f"tenant-{client % args.tenants}" for client in range(args.clients)
    ]
    jobs = zipf_workload(
        args.queries, args.pool, s=args.zipf, seed=args.seed, tenants=tenants
    )
    if args.deadline > 0:
        budget_start = federation.network.clock.now
        for job in jobs:
            job["deadline_s"] = budget_start + args.deadline
    print(f"{args.queries} queries from {args.clients} client(s) across "
          f"{args.tenants} tenant(s); zipf(s={args.zipf}) over a pool of "
          f"{args.pool}"
          + (f"; per-query budget {args.deadline}s" if args.deadline > 0
             else "") + "\n")

    start = federation.network.clock.now
    interrupted = False
    try:
        outcomes = scheduler.run(jobs)
    except KeyboardInterrupt:
        # Graceful shutdown: stop admission, cancel what is still queued
        # (the nodes' state for dispatched queries was already freed by
        # their own deadline/cancel path), report, and exit cleanly.
        interrupted = True
        outcomes = scheduler.drain(stop_admission=True, cancel_queued=True)
        print(f"\ninterrupted — drained scheduler: "
              f"{scheduler.stats.cancelled} queued job(s) cancelled, "
              f"{scheduler.stats.completed} completed before shutdown")
    makespan = federation.network.clock.now - start

    finished = [o for o in outcomes if o.result is not None]
    shed = [o for o in outcomes
            if isinstance(o.error, (DeadlineExceededError,
                                    QueryCancelledError))]
    failed = [o for o in outcomes if o.error is not None and o not in shed]
    expired_results = [
        o for o in finished
        if o.result.degraded
        and any("deadline exceeded" in w for w in o.result.warnings)
    ]
    latencies = [o.latency_s for o in finished]
    by_tenant: dict = defaultdict(list)
    for outcome in outcomes:
        by_tenant[outcome.job.tenant].append(outcome)
    for tenant in sorted(by_tenant):
        mine = by_tenant[tenant]
        done = [o for o in mine if o.result is not None]
        hits = sum(1 for o in done if o.cache is not None)
        mean = (sum(o.latency_s for o in done) / len(done)) if done else 0.0
        line = (f"  {tenant:<12} completed={len(done)} cache_hits={hits} "
                f"mean_latency={mean:.3f}s")
        tenant_shed = sum(1 for o in mine if o in shed)
        if tenant_shed:
            line += f" shed={tenant_shed}"
        print(line)
    print(f"\nwaves={scheduler.stats.waves}  completed={len(finished)}  "
          f"failed={len(failed)}  shed={len(shed)}  "
          f"rejected={scheduler.stats.rejected}")
    if scheduler.stats.rejected or shed:
        print(f"backpressure: retry_after~{scheduler.retry_after_s():.3f}s "
              f"(expired={scheduler.stats.expired} "
              f"cancelled={scheduler.stats.cancelled})")
    if expired_results:
        print(f"deadline-degraded answers: {len(expired_results)} "
              f"(budget died mid-chain; state cancelled eagerly)")
    print(f"latency p50={_percentile(latencies, 50):.3f}s  "
          f"p99={_percentile(latencies, 99):.3f}s  "
          f"makespan={makespan:.3f}s")
    if federation.cache is not None:
        print(f"cache: {federation.cache.stats.as_dict()}")
    for outcome in failed:
        print(f"  failed seq={outcome.job.seq} ({outcome.job.tenant}): "
              f"{outcome.error}", file=sys.stderr)

    if interrupted:
        return 0
    if args.serial == "off":
        return 0 if not failed else 1

    # Serial uncached baseline: a twin federation answers the identical
    # workload one query at a time, no scheduler, no cache.
    twin = _make_federation(args)
    serial_latencies = []
    answers: dict = {}
    t0 = twin.network.clock.now
    for job in jobs:
        q0 = twin.network.clock.now
        result = twin.portal.submit(job["sql"])
        serial_latencies.append(twin.network.clock.now - q0)
        answers[job["sql"]] = sorted(result.rows)
    serial_makespan = twin.network.clock.now - t0
    # Deadline-degraded answers are empty by design; only budget-clean
    # completions must match the unbounded serial baseline byte for byte.
    clean = [o for o in finished if o not in expired_results]
    identical = all(
        sorted(o.result.rows) == answers[o.job.sql] for o in clean
    )
    print(f"\nserial uncached baseline: "
          f"p50={_percentile(serial_latencies, 50):.3f}s  "
          f"p99={_percentile(serial_latencies, 99):.3f}s  "
          f"makespan={serial_makespan:.3f}s")
    if makespan > 0:
        print(f"speedup: {serial_makespan / makespan:.2f}x makespan")
    print(f"scheduled answers identical to serial: {identical}")
    return 0 if identical and not failed else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench.registry import quick_mode, render, select

    quick = quick_mode()
    if quick and args.out:
        print("error: quick-size tables would overwrite the published "
              "report; --out needs a full-size run", file=sys.stderr)
        return 2
    entries, unknown = select(args.ids.split(","))
    if unknown:
        print(f"no experiments matched ids {unknown!r}", file=sys.stderr)
        return 1
    outcomes = []
    for entry in entries:
        started = time.perf_counter()
        report = entry.run(**entry.arguments(quick))
        verdict = entry.verdict(report, quick)
        print(report.to_text())
        print(f"  check: {verdict} ({time.perf_counter() - started:.1f}s)\n")
        outcomes.append((entry, report, verdict))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(render(outcomes))
        print(f"wrote {args.out}")
    return 0 if all(verdict == "yes" for _, _, verdict in outcomes) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "info":
            return _cmd_info()
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "experiments":
            return _cmd_experiments(args)
    except SkyQueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
