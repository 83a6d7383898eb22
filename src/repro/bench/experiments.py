"""The experiment runners E1–E22 and E11-sharded (one per figure/claim — see
DESIGN.md)."""

from __future__ import annotations

import random
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.baselines.pull_mediator import PullMediator
from repro.bench.reporting import ExperimentReport
from repro.bench.scenarios import (
    build_figure2_federation,
    fresh_federation,
    paper_query,
    zipf_workload,
)
from repro.errors import SoapFaultError
from repro.federation.builder import FederationConfig, build_federation
from repro.portal.decompose import decompose
from repro.portal.planner import OrderingStrategy
from repro.soap.encoding import (
    ColumnarRowSet,
    WireRowSet,
    decode_binary_rowset,
    encode_binary_rowset,
)
from repro.soap.envelope import build_rpc_response, parse_rpc_response
from repro.sql.parser import parse_query
from repro.units import arcsec_to_rad
from repro.workloads.skysim import SkyField, SurveySpec


# -- E1: Figure 1, the architecture / registration handshake -------------------


def run_e1_architecture(n_bodies: int = 300) -> ExperimentReport:
    """Registration traffic: which services talk, in which order."""
    fed = fresh_federation(n_bodies=n_bodies)
    report = ExperimentReport(
        exp_id="E1",
        title="Architecture: registration handshake over SOAP/HTTP",
        source="Figure 1 / Section 5.1",
        headers=["operation", "direction", "messages", "wire bytes"],
    )
    registration = [
        m for m in fed.network.metrics.messages if m.phase == "registration"
    ]
    grouped: Dict[Tuple[str, str], List[int]] = defaultdict(list)
    for message in registration:
        direction = (
            "node->portal" if message.dst.startswith("portal") else
            "portal->node" if message.src.startswith("portal") else
            f"{message.src.split('.')[0]}->{message.dst.split('.')[0]}"
        )
        grouped[(message.operation, direction)].append(message.wire_bytes)
    for (operation, direction), sizes in sorted(grouped.items()):
        report.add_row(operation, direction, len(sizes), sum(sizes))
    ops_in_order = [m.operation for m in registration if m.kind == "request"]
    per_node = len(ops_in_order) // max(1, len(fed.nodes))
    report.note(
        f"per-node handshake (request order): {ops_in_order[:per_node]} — "
        "Register triggers the Portal's GetSchema + GetInfo callbacks, "
        "matching Figure 1."
    )
    report.note(
        f"{len(fed.nodes)} SkyNodes registered; catalog holds "
        f"{fed.portal.catalog.archives()}"
    )
    return report


# -- E2: Figure 2, XMATCH semantics ------------------------------------------------


def run_e2_xmatch_semantics() -> ExperimentReport:
    """The two-body scenario: mandatory vs drop-out selection."""
    fed, ids = build_figure2_federation()
    client = fed.client()
    base = (
        "SELECT O.object_id, T.object_id, P.object_id "
        "FROM SDSS:objects O, TWOMASS:objects T, FIRST:objects P "
        "WHERE AREA(185.0, -0.5, 180.0) AND XMATCH({terms}) < 3.5"
    )
    report = ExperimentReport(
        exp_id="E2",
        title="XMATCH semantics on the Figure 2 scenario",
        source="Figure 2 / Section 5.2",
        headers=["query", "selected sets", "expected", "match"],
    )

    res_mand = client.submit(base.format(terms="O, T, P"))
    got_mand = sorted(tuple(row[:3]) for row in res_mand.rows)
    expected_mand = [
        (ids["a"]["SDSS"], ids["a"]["TWOMASS"], ids["a"]["FIRST"])
    ]
    report.add_row(
        "XMATCH(O,T,P) < 3.5",
        got_mand,
        expected_mand,
        got_mand == expected_mand,
    )

    dropout_sql = (
        "SELECT O.object_id, T.object_id "
        "FROM SDSS:objects O, TWOMASS:objects T, FIRST:objects P "
        "WHERE AREA(185.0, -0.5, 180.0) AND XMATCH(O, T, !P) < 3.5"
    )
    res_drop = client.submit(dropout_sql)
    got_drop = sorted(tuple(row[:2]) for row in res_drop.rows)
    expected_drop = [(ids["b"]["SDSS"], ids["b"]["TWOMASS"])]
    report.add_row(
        "XMATCH(O,T,!P) < 3.5",
        got_drop,
        expected_drop,
        got_drop == expected_drop,
    )
    report.note(
        "Body a is selected by the mandatory form only; body b (whose P "
        "observation is ~30 sigma away) only by the drop-out form — "
        "exactly Figure 2."
    )
    return report


# -- E3: Figure 3, the 7-step execution flow -----------------------------------------


def run_e3_execution_flow(n_bodies: int = 1200) -> ExperimentReport:
    """Trace the sample query through the Portal and the chain."""
    fed = fresh_federation(n_bodies=n_bodies)
    fed.network.metrics.reset()
    client = fed.client()
    result = client.submit(paper_query(radius_arcsec=900.0))
    metrics = fed.network.metrics

    report = ExperimentReport(
        exp_id="E3",
        title="Execution flow of the Section 5.2 sample query",
        source="Figure 3 / Section 5.3",
        headers=["step", "what happens", "measured"],
    )
    report.add_row(
        1,
        "Client submits the query to the Portal's SkyQuery service",
        f"{metrics.message_count(phase='client')} msgs, "
        f"{metrics.total_bytes(phase='client')} B (incl. final relay)",
    )
    report.add_row(
        2, "Portal decomposes the query into performance queries",
        f"{len(result.counts)} count-star queries (mandatory archives)",
    )
    report.add_row(
        3,
        "Performance queries go to each Query service as SOAP messages",
        f"{metrics.message_count(phase='performance-query')} msgs, "
        f"{metrics.total_bytes(phase='performance-query')} B",
    )
    report.add_row(
        4, "Count-star results arrive at the Portal",
        "; ".join(f"{alias}={count}" for alias, count in result.counts.items()),
    )
    plan_order = [
        (step["alias"], step["count_star"], bool(step["dropout"]))
        for step in (result.plan or {}).get("steps", [])
    ]
    report.add_row(
        5,
        "Portal builds the plan: decreasing count, drop-outs first",
        " -> ".join(
            f"{alias}({'drop' if dropout else count})"
            for alias, count, dropout in plan_order
        ),
    )
    chain = [
        f"{s['archive']}[{s['role']}] in={s['tuples_in']} out={s['tuples_out']}"
        for s in result.node_stats
    ]
    report.add_row(
        6,
        "Daisy chain executes in reverse list order (smallest node seeds)",
        "; ".join(chain),
    )
    report.add_row(
        7,
        "Partial results flow back; Portal projects and relays",
        f"{metrics.total_bytes(phase='crossmatch-chain')} B on the chain, "
        f"{len(result)} final rows",
    )
    return report


# -- E4: the count-star ordering claim --------------------------------------------


def run_e4_countstar_ordering(
    n_bodies: int = 1500,
    radii: Sequence[float] = (450.0, 900.0, 1800.0),
) -> ExperimentReport:
    """Chain bytes under the paper's ordering vs baselines."""
    fed = fresh_federation(n_bodies=n_bodies)
    client = fed.client()
    report = ExperimentReport(
        exp_id="E4",
        title="Count-star ordering reduces chain transmission",
        source="Section 5.3 ('the order based on the count star values will "
        "often decrease the network transmission costs')",
        headers=[
            "AREA radius (arcsec)", "ordering", "chain bytes",
            "chain msgs", "sim seconds", "rows",
        ],
    )
    strategies = [
        OrderingStrategy.COUNT_DESC,
        OrderingStrategy.COUNT_ASC,
        OrderingStrategy.RANDOM,
        OrderingStrategy.AS_WRITTEN,
    ]
    baseline_rows: Dict[float, int] = {}
    for radius in radii:
        for strategy in strategies:
            fed.network.metrics.reset()
            result = client.submit(
                paper_query(radius_arcsec=radius), strategy=strategy.value
            )
            metrics = fed.network.metrics
            report.add_row(
                radius,
                strategy.value,
                metrics.total_bytes(phase="crossmatch-chain"),
                metrics.message_count(phase="crossmatch-chain"),
                round(metrics.simulated_seconds, 3),
                len(result),
            )
            baseline_rows.setdefault(radius, len(result))
            if baseline_rows[radius] != len(result):
                report.note(
                    f"RESULT MISMATCH at radius {radius} for {strategy.value}!"
                )
    report.note(
        "Same result rows under every ordering (the algorithm is "
        "symmetric); count_desc ships the smallest partial results."
    )
    return report


# -- E5: chain shipping vs pull-to-portal ------------------------------------------


def run_e5_chain_vs_pull(
    n_bodies: int = 1500, radii: Sequence[float] = (450.0, 900.0, 1800.0)
) -> ExperimentReport:
    """SkyQuery's chained shipping vs the classic pull mediator."""
    fed = fresh_federation(n_bodies=n_bodies)
    client = fed.client()
    puller = PullMediator(fed.portal)
    report = ExperimentReport(
        exp_id="E5",
        title="Chained partial results vs pulling everything to the Portal",
        source="Section 5.1 ('SkyQuery, instead, moves the partial results "
        "... along a chain')",
        headers=[
            "AREA radius (arcsec)", "strategy", "data bytes", "messages",
            "sim seconds", "rows",
        ],
    )
    for radius in radii:
        sql = paper_query(radius_arcsec=radius)

        fed.network.metrics.reset()
        chain_result = client.submit(sql)
        m = fed.network.metrics
        chain_bytes = m.total_bytes(phase="crossmatch-chain") + m.total_bytes(
            phase="performance-query"
        )
        report.add_row(
            radius, "chain (SkyQuery)", chain_bytes,
            m.message_count(phase="crossmatch-chain")
            + m.message_count(phase="performance-query"),
            round(m.simulated_seconds, 3), len(chain_result),
        )

        fed.network.metrics.reset()
        pull_result = puller.execute(sql)
        m = fed.network.metrics
        report.add_row(
            radius, "pull-to-portal", m.total_bytes(phase="pull-mediator"),
            m.message_count(phase="pull-mediator"),
            round(m.simulated_seconds, 3), len(pull_result),
        )
        if sorted(chain_result.rows) != sorted(pull_result.rows):
            report.note(f"RESULT MISMATCH at radius {radius}!")
    report.note(
        "Both strategies return identical rows; the chain only ships "
        "surviving partial tuples while the pull baseline ships every "
        "AREA-qualified row of every archive (both in the colset wire "
        "form). Pull wins the smallest AREA on bytes; the chain wins from "
        "the crossover radius up."
    )
    return report


# -- E6: the ~10 MB XML parser failure and chunking ---------------------------------


def run_e6_chunking(
    n_bodies: int = 4000,
    parser_memory_limit: int = 1_000_000,
    budgets: Sequence[int] = (32_768, 65_536, 131_072),
) -> ExperimentReport:
    """Monolithic SOAP messages OOM the receiving parser; chunking works."""
    sql = (
        "SELECT O.object_id, T.obj_id "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
        "WHERE AREA(185.0, -0.5, 1800.0) AND XMATCH(O, T) < 3.5"
    )
    report = ExperimentReport(
        exp_id="E6",
        title="XML parser memory ceiling and the chunking workaround",
        source="Section 6 ('The XML parser at the SkyNode would run out of "
        "memory while parsing SOAP messages of about 10 MB. We worked "
        "around by dividing large data sets into smaller chunks.')",
        headers=[
            "transfer mode", "outcome", "chain msgs", "control bytes",
            "chunk-fetch bytes", "max envelope B", "peak parse need B",
            "sim seconds",
        ],
    )

    def run(chunk_budget: Optional[int]) -> Tuple[str, Dict[str, Any]]:
        fed = fresh_federation(
            n_bodies=n_bodies,
            parser_memory_limit=parser_memory_limit,
            chunk_budget_bytes=chunk_budget,
        )
        fed.network.metrics.reset()
        client = fed.client()
        try:
            result = client.submit(sql)
            outcome = f"ok ({len(result)} rows)"
        except SoapFaultError as fault:
            outcome = f"FAULT: {fault.faultcode}"
        metrics = fed.network.metrics
        # Chunk drains run under their own phase label so payload bytes
        # separate from chain-control bytes in the accounting.
        chain = [
            m
            for m in metrics.messages
            if m.phase in ("crossmatch-chain", "chunk-transfer")
        ]
        peak = max(
            (node.parser.peak_memory_bytes for node in fed.nodes.values()),
            default=0,
        )
        return outcome, {
            "msgs": len(chain),
            "control": metrics.total_bytes(phase="crossmatch-chain"),
            "fetch": metrics.total_bytes(phase="chunk-transfer"),
            "max_envelope": max((m.wire_bytes for m in chain), default=0),
            "peak": peak,
            "sim": round(metrics.simulated_seconds, 3),
        }

    outcome, stats = run(None)
    report.add_row(
        "monolithic", outcome, stats["msgs"], stats["control"],
        stats["fetch"], stats["max_envelope"], stats["peak"], stats["sim"],
    )
    for budget in budgets:
        outcome, stats = run(budget)
        report.add_row(
            f"chunked <= {budget} B", outcome, stats["msgs"],
            stats["control"], stats["fetch"], stats["max_envelope"],
            stats["peak"], stats["sim"],
        )
    report.note(
        f"Receiver parser budget: {parser_memory_limit} B at 4x DOM "
        "expansion — documents above a quarter of the budget fail, "
        "mirroring the paper's ~10 MB ceiling (scaled down for test speed)."
    )
    report.note(
        "Smaller chunks -> more messages and more total bytes (per-message "
        "overhead), but bounded parser memory: the paper's trade-off."
    )
    return report


# -- E7: SOAP serialization overhead -----------------------------------------------


def run_e7_soap_overhead(
    row_counts: Sequence[int] = (100, 1000, 5000), repeats: int = 3
) -> ExperimentReport:
    """Row XML (the paper's form) vs columnar XML (what the chain ships)
    vs a CORBA-style binary codec."""
    report = ExperimentReport(
        exp_id="E7",
        title="SOAP serialization overhead vs binary middleware",
        source="Section 6 ('SOAP is considered to be slower than other "
        "middleware, like, CORBA, because of the time spent for "
        "serialization and de-serialization')",
        headers=[
            "rows", "codec", "bytes", "encode ms", "decode ms",
            "size ratio", "time ratio",
        ],
    )
    rng = random.Random(7)
    for n_rows in row_counts:
        rowset = WireRowSet(
            [
                ("object_id", "int"),
                ("ra", "double"),
                ("dec", "double"),
                ("a", "double"),
                ("type", "string"),
            ],
            [
                (
                    i,
                    rng.uniform(0, 360),
                    rng.uniform(-90, 90),
                    rng.random(),
                    rng.choice(["GALAXY", "STAR", "QSO"]),
                )
                for i in range(n_rows)
            ],
        )

        def timed(fn) -> Tuple[Any, float]:
            best = float("inf")
            value = None
            for _ in range(repeats):
                start = time.perf_counter()
                value = fn()
                best = min(best, time.perf_counter() - start)
            return value, best * 1000.0

        xml_doc, xml_enc = timed(lambda: build_rpc_response("Q", rowset))
        _, xml_dec = timed(lambda: parse_rpc_response(xml_doc))
        xml_bytes = len(xml_doc.encode("utf-8"))
        xml_total = xml_enc + xml_dec
        report.add_row(
            n_rows, "SOAP/XML", xml_bytes, round(xml_enc, 3),
            round(xml_dec, 3), 1.0, 1.0,
        )

        colset = ColumnarRowSet(rowset)
        col_doc, col_enc = timed(lambda: build_rpc_response("Q", colset))
        _, col_dec = timed(lambda: parse_rpc_response(col_doc))
        blob, bin_enc = timed(lambda: encode_binary_rowset(rowset))
        _, bin_dec = timed(lambda: decode_binary_rowset(blob))
        for codec, size, enc, dec in (
            ("SOAP/XML colset", len(col_doc.encode("utf-8")), col_enc, col_dec),
            ("binary", len(blob), bin_enc, bin_dec),
        ):
            report.add_row(
                n_rows, codec, size, round(enc, 3), round(dec, 3),
                round(size / xml_bytes, 3),
                round((enc + dec) / xml_total, 3) if xml_total else None,
            )
    report.note(
        "The row form (one XML element per cell) is several times larger "
        "and slower to (de)serialize than binary — the overhead the paper "
        "accepts in exchange for interoperability."
    )
    report.note(
        "The columnar colset — still XML, still self-describing: one "
        "packed token stream per column, delta-coded ints, "
        "dictionary-coded strings — is the form every rowset the "
        "federation sends travels in; the row form survives as this "
        "experiment's paper arm. It recovers much of that overhead without "
        "leaving SOAP; what remains against binary is text encoding of "
        "doubles."
    )
    return report


# -- E8: HTM range search vs full scan ----------------------------------------------


def run_e8_htm_rangesearch(
    n_objects: int = 20000,
    radii: Sequence[float] = (60.0, 300.0, 900.0),
    depths: Sequence[int] = (6, 8, 10, 12, 14),
) -> ExperimentReport:
    """The HTM 'helps in reducing spatial processing' (Section 5.1)."""
    from repro.db.engine import Database
    from repro.db.schema import Column
    from repro.db.table import SpatialSpec
    from repro.db.types import ColumnType
    from repro.sphere.coords import vector_to_radec
    from repro.sphere.random import random_in_cap
    from repro.sphere.coords import radec_to_vector

    report = ExperimentReport(
        exp_id="E8",
        title="HTM range search vs full scan (and depth ablation)",
        source="Sections 5.1/5.4 (HTM 'helps in reducing spatial processing "
        "at individual databases')",
        headers=[
            "config", "radius (arcsec)", "rows examined", "rows matched",
            "fraction examined", "wall ms",
        ],
    )
    rng = random.Random(11)
    center = radec_to_vector(185.0, -0.5)
    positions = [
        random_in_cap(rng, center, arcsec_to_rad(7200.0))
        for _ in range(n_objects)
    ]

    def make_db(depth: int) -> Database:
        db = Database(f"htm{depth}", page_size=128, buffer_pages=4096)
        db.create_table(
            "objects",
            [
                Column("object_id", ColumnType.INT, nullable=False),
                Column("ra", ColumnType.FLOAT, nullable=False),
                Column("dec", ColumnType.FLOAT, nullable=False),
            ],
            spatial=SpatialSpec("ra", "dec", htm_depth=depth),
        )
        rows = []
        for i, position in enumerate(positions):
            ra, dec = vector_to_radec(position)
            rows.append((i, ra, dec))
        db.insert("objects", rows)
        db.table("objects").spatial_entries()  # build the index up front
        return db

    def timed(db: Database, sql: str):
        """The query's result and its best wall ms of three runs."""
        walls = []
        for _ in range(3):
            start = time.perf_counter()
            result = db.execute(sql)
            walls.append((time.perf_counter() - start) * 1000.0)
        return result, min(walls)

    db12 = make_db(12)
    for radius in radii:
        sql = f"SELECT count(*) FROM objects o WHERE AREA(185.0, -0.5, {radius})"
        for label, use_index in (("HTM depth 12", True), ("full scan", False)):
            db12.use_spatial_index = use_index
            result, wall = timed(db12, sql)
            report.add_row(
                label, radius, result.stats.rows_examined, result.scalar(),
                round(result.stats.rows_examined / n_objects, 4),
                round(wall, 2),
            )
        db12.use_spatial_index = True

    for depth in depths:
        db = make_db(depth)
        sql = "SELECT count(*) FROM objects o WHERE AREA(185.0, -0.5, 300.0)"
        result, wall = timed(db, sql)
        report.add_row(
            f"depth {depth}", 300.0, result.stats.rows_examined,
            result.scalar(),
            round(result.stats.rows_examined / n_objects, 4),
            round(wall, 2),
        )
    report.note(
        "Deeper meshes tighten the cover: fewer rows examined at every "
        "step. The set-at-a-time engine makes a visited row so cheap that "
        "the wall column is now almost all cover computation, so it rises "
        "with depth from depth 6 on."
    )
    report.note(
        f"Losing regime: at {n_objects} rows the vectorised full scan beats "
        "every HTM scan on wall time. HTM's win is the fraction of rows "
        "examined, which is what the buffer pool and the per-row "
        "processing cost charge."
    )
    return report


# -- E9: performance queries warm the cache ------------------------------------------


def run_e9_cache_warming(n_bodies: int = 2500) -> ExperimentReport:
    """Physical reads during the chain, cold cache vs count-star-warmed."""
    fed = fresh_federation(n_bodies=n_bodies, buffer_pages=2048)
    portal = fed.portal
    query = parse_query(paper_query(radius_arcsec=1200.0))
    decomposed = decompose(query, portal.catalog)
    counts = portal.planner.performance_counts(decomposed)
    plan = portal.planner.build_plan(decomposed, counts)

    report = ExperimentReport(
        exp_id="E9",
        title="Count-star performance queries warm the buffer cache",
        source="Section 5.3 ('This will often warm the database cache on "
        "each SkyNode with index pages that satisfy the main cross match "
        "query')",
        headers=[
            "scenario", "archive", "physical reads", "logical reads",
            "hit ratio",
        ],
    )

    def run_chain_collect(scenario: str, warm: bool) -> None:
        for node in fed.nodes.values():
            node.db.buffer.clear()
            node.db.buffer.reset_stats()
        if warm:
            portal.planner.performance_counts(decomposed)
            for node in fed.nodes.values():
                node.db.buffer.reset_stats()  # count only the chain's reads
        result = portal.executor.execute(plan, decomposed)
        for stats in result.node_stats:
            logical = stats["logical_reads"]
            physical = stats["physical_reads"]
            ratio = 1.0 - physical / logical if logical else 0.0
            report.add_row(
                scenario, stats["archive"], physical, logical, round(ratio, 3)
            )

    run_chain_collect("cold cache", warm=False)
    run_chain_collect("after performance queries", warm=True)
    report.note(
        "The warming pass touches exactly the pages the cross match needs "
        "(same AREA + predicates), so the chain's physical reads drop."
    )
    return report


# -- E10: order symmetry + accuracy vs ground truth -----------------------------------


def run_e10_symmetry_accuracy(
    n_bodies: int = 1500,
    thresholds: Sequence[float] = (1.0, 2.0, 3.5, 5.0),
) -> ExperimentReport:
    """Identical results under any order; precision/recall vs the truth."""
    fed = fresh_federation(n_bodies=n_bodies)
    client = fed.client()

    report = ExperimentReport(
        exp_id="E10",
        title="Order symmetry and match accuracy vs ground truth",
        source="Section 5.4 ('This XMATCH scheme is fully symmetric; the "
        "particular order of the archives considered doesn't matter.')",
        headers=["threshold", "pairs", "precision", "recall", "orders agree"],
    )

    sdss = fed.node("SDSS")
    twomass = fed.node("TWOMASS")
    area_sql = "AREA(185.0, -0.5, 1200.0)"
    in_area = {}
    for archive, node in (("SDSS", sdss), ("TWOMASS", twomass)):
        info = node.info
        result = node.db.execute(
            f"SELECT x.{info.object_id_column} FROM {info.primary_table} x "
            f"WHERE {area_sql}"
        )
        in_area[archive] = {row[0] for row in result.rows}
    truth_pairs = set()
    sdss_by_body = {
        body: oid
        for oid, body in fed.truth["SDSS"].items()
        if oid in in_area["SDSS"]
    }
    for t_oid, body in fed.truth["TWOMASS"].items():
        if t_oid in in_area["TWOMASS"] and body in sdss_by_body:
            truth_pairs.add((sdss_by_body[body], t_oid))

    for threshold in thresholds:
        sql = (
            "SELECT O.object_id, T.obj_id "
            "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
            f"WHERE {area_sql} AND XMATCH(O, T) < {threshold}"
        )
        results = {}
        for strategy in OrderingStrategy:
            res = client.submit(sql, strategy=strategy.value)
            results[strategy] = sorted(res.rows)
        agree = len({tuple(map(tuple, rows)) for rows in results.values()}) == 1
        pairs = {tuple(row) for row in results[OrderingStrategy.COUNT_DESC]}
        true_positives = len(pairs & truth_pairs)
        precision = true_positives / len(pairs) if pairs else 1.0
        recall = true_positives / len(truth_pairs) if truth_pairs else 1.0
        report.add_row(
            threshold, len(pairs), round(precision, 4), round(recall, 4), agree
        )
    report.note(
        f"Ground truth: {len(truth_pairs)} body pairs observed by both "
        "surveys inside the AREA. Recall grows with the threshold; "
        "precision stays high until the threshold admits chance alignments."
    )
    return report


# -- E12: ablation — the candidate search radius ---------------------------------------


def run_e12_radius_ablation(
    n_bodies: int = 800, threshold: float = 3.5
) -> ExperimentReport:
    """How the Section 5.4 search radius choice trades work for recall.

    The paper retrieves "all objects that are close to the current best
    position" without pinning down 'close'. This reproduction uses the
    adaptive bound ``threshold * (sigma_new + 1/sqrt(a))``; the ablation
    compares it against a fixed worst-case radius (safe but wasteful) and
    an overly tight one (cheap but lossy).
    """
    from repro.sphere.distance import angular_separation
    from repro.workloads.skysim import SkyField, generate_bodies
    from repro.sphere.random import perturb_gaussian
    from repro.xmatch.tuples import LocalObject
    from repro.xmatch.stream import in_memory_search, match_step, seed_tuples
    import random as _random

    rng = _random.Random(4)
    # A crowded field: 3 archives over a small patch so loose radii pick up
    # many chance neighbours at the last hop.
    field = SkyField(185.0, -0.5, 300.0)
    bodies = generate_bodies(field, n_bodies, seed=4)
    sigmas = {"A": arcsec_to_rad(0.1), "B": arcsec_to_rad(0.3),
              "C": arcsec_to_rad(1.0)}
    objects = {
        alias: [
            LocalObject(i, perturb_gaussian(rng, b.position, sigma))
            for i, b in enumerate(bodies)
        ]
        for alias, sigma in sigmas.items()
    }
    # First two hops always use the adaptive rule; the ablation is at hop 3.
    pairs = match_step(
        seed_tuples("A", objects["A"], sigmas["A"]),
        "B",
        in_memory_search(objects["B"]),
        sigmas["B"],
        threshold,
    )

    sigma_c = sigmas["C"]

    def run_with_radius(radius_fn) -> Tuple[int, int]:
        candidates = 0
        matches = 0
        for partial in pairs:
            center = partial.acc.best_position()
            radius = radius_fn(partial)
            for obj in objects["C"]:
                if angular_separation(center, obj.position) > radius:
                    continue
                candidates += 1
                if partial.acc.with_observation(
                    obj.position, sigma_c
                ).chi2() <= threshold * threshold:
                    matches += 1
        return candidates, matches

    adaptive = run_with_radius(
        lambda p: p.acc.search_radius(sigma_c, threshold)
    )
    sum_of_sigmas = sum(sigmas.values())
    fixed_worst = run_with_radius(lambda p: threshold * sum_of_sigmas)
    too_tight = run_with_radius(lambda p: threshold * sigma_c * 0.5)

    report = ExperimentReport(
        exp_id="E12",
        title="Ablation: candidate search radius at the third archive",
        source="Section 5.4 (range search around the current best position)",
        headers=["radius rule", "candidates tested", "matches",
                 "recall vs adaptive"],
    )
    report.add_row(
        "adaptive t*(sigma_c+1/sqrt(a))", adaptive[0], adaptive[1], 1.0
    )
    report.add_row(
        "fixed worst-case t*sum(sigma)", fixed_worst[0], fixed_worst[1],
        round(fixed_worst[1] / adaptive[1], 4) if adaptive[1] else 1.0,
    )
    report.add_row(
        "tight t*sigma_c/2", too_tight[0], too_tight[1],
        round(too_tight[1] / adaptive[1], 4) if adaptive[1] else 1.0,
    )
    report.note(
        "The adaptive radius keeps full recall with fewer candidate tests "
        "than the fixed worst-case rule; halving it loses true matches."
    )
    return report


# -- E13: ablation — asynchronous performance queries -----------------------------------


def run_e13_async_dispatch(n_bodies: int = 800) -> ExperimentReport:
    """Parallel vs sequential count-star probes over uneven links.

    Section 5.3: performance queries "are passed as asynchronous SOAP
    messages". With archives behind links of very different latency, the
    asynchronous makespan is the slowest round trip instead of the sum.
    """
    from repro.portal.decompose import decompose

    fed = fresh_federation(n_bodies=n_bodies)
    portal = fed.portal
    # Uneven Internet: FIRST is far away.
    portal_host = portal.hostname
    latencies = {"SDSS": 0.02, "TWOMASS": 0.08, "FIRST": 0.3}
    for archive, latency in latencies.items():
        fed.network.set_link(
            portal_host, fed.node(archive).hostname, latency_s=latency
        )
    decomposed = decompose(
        parse_query(paper_query(radius_arcsec=900.0)), portal.catalog
    )

    def elapsed_sequential() -> float:
        start = fed.network.clock.now
        with fed.network.phase("performance-query"):
            for alias in decomposed.mandatory_aliases:
                subquery = decomposed.subqueries[alias]
                record = portal.catalog.node(subquery.archive)
                proxy = portal.proxy(record.services["query"])
                proxy.call("ExecuteQuery", sql=subquery.perf_sql)
        return fed.network.clock.now - start

    def elapsed_parallel() -> float:
        start = fed.network.clock.now
        portal.planner.performance_counts(decomposed)
        return fed.network.clock.now - start

    sequential = elapsed_sequential()
    parallel = elapsed_parallel()
    report = ExperimentReport(
        exp_id="E13",
        title="Ablation: asynchronous vs sequential performance queries",
        source="Section 5.3 ('passed as asynchronous SOAP messages')",
        headers=["dispatch", "elapsed sim seconds", "speedup"],
    )
    report.add_row("sequential", round(sequential, 4), 1.0)
    report.add_row(
        "asynchronous (paper)", round(parallel, 4),
        round(sequential / parallel, 2) if parallel else None,
    )
    report.note(
        f"Per-archive link latencies: {latencies}; asynchronous dispatch "
        "hides everything but the slowest archive's round trip."
    )
    return report


# -- E14: extension — byte-calibrated ordering vs count-star ---------------------------


def run_e14_byte_ordering(n_bodies: int = 1500) -> ExperimentReport:
    """Count-star ordering vs black-box byte calibration (Du92/Zhu96 idea).

    Count star estimates rows, but transmission cost is bytes: a query
    that ships five SDSS flux columns plus a type string per tuple but
    only one TWOMASS column makes SDSS rows ~4x wider. When the wide
    archive also has the *smaller* count, the paper's ordering seeds the
    chain with wide rows that then travel every hop; ordering by
    calibrated count x bytes-per-row keeps the wide rows near the front
    of the list (fewest hops).
    """
    fed = fresh_federation(n_bodies=n_bodies)
    client = fed.client()
    # O has the GALAXY filter (count ~0.66x) but contributes 6 wide attrs;
    # T has the larger count but a single attribute.
    sql = (
        "SELECT O.object_id, O.type, O.u_flux, O.g_flux, O.r_flux, "
        "O.i_flux, O.z_flux, T.obj_id "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
        "WHERE AREA(185.0, -0.5, 1200.0) AND XMATCH(O, T) < 3.5 "
        "AND O.type = GALAXY"
    )
    report = ExperimentReport(
        exp_id="E14",
        title="Extension: byte-calibrated ordering vs count-star ordering",
        source="Section 5.3 black-box cost estimation ([Du92], [Zhu96]); "
        "count star measures rows, transmission cost is bytes",
        headers=[
            "ordering", "plan list", "chain bytes", "calibration bytes",
            "rows",
        ],
    )
    reference_rows = None
    for strategy in ("count_desc", "bytes_desc"):
        fed.network.metrics.reset()
        result = client.submit(sql, strategy=strategy)
        metrics = fed.network.metrics
        plan_list = " -> ".join(
            step["alias"] for step in (result.plan or {}).get("steps", [])
        )
        report.add_row(
            strategy,
            plan_list,
            metrics.total_bytes(phase="crossmatch-chain"),
            metrics.total_bytes(phase="calibration"),
            len(result),
        )
        if reference_rows is None:
            reference_rows = sorted(result.rows)
        elif sorted(result.rows) != reference_rows:
            report.note("RESULT MISMATCH between orderings!")
    report.note(
        "Identical results; the byte-calibrated plan places the wide-row "
        "archive first on the list so its attributes travel the fewest "
        "hops, at the price of a small calibration probe per archive."
    )
    return report


# -- E11: scalability with federation size --------------------------------------------


def _e11_federation(n_nodes: int, n_bodies: int, **config):
    """The scalability scenario E11 and its descendants (E16, E17, E20)
    share: ``n_nodes`` single-band archives of growing positional error
    over one field; ``config`` overrides any other FederationConfig field."""
    surveys = [
        SurveySpec(
            archive=f"SURV{i}",
            sigma_arcsec=0.1 + 0.2 * i,
            detection_rate=0.9,
            primary_table="objects",
            bands=("i",),
            has_type=False,
        )
        for i in range(n_nodes)
    ]
    return build_federation(
        FederationConfig(
            surveys=surveys,
            n_bodies=n_bodies,
            seed=99,
            sky_field=SkyField(185.0, -0.5, 1800.0),
            **config,
        )
    )


def run_e11_scalability(
    node_counts: Sequence[int] = (2, 3, 4, 5), n_bodies: int = 1000
) -> ExperimentReport:
    """Chain cost and tuple attrition as archives are added."""
    report = ExperimentReport(
        exp_id="E11",
        title="Scaling the chain: 2-5 federated archives",
        source="Section 2 (the federation must scale to many archives) / "
        "Section 5.3 cost model",
        headers=[
            "archives", "chain bytes", "chain msgs", "sim seconds",
            "tuples per hop", "final rows",
        ],
    )
    for n_nodes in node_counts:
        fed = _e11_federation(n_nodes, n_bodies)
        aliases = [f"S{i}" for i in range(n_nodes)]
        froms = ", ".join(
            f"SURV{i}:objects S{i}" for i in range(n_nodes)
        )
        sql = (
            f"SELECT {aliases[0]}.object_id FROM {froms} "
            f"WHERE AREA(185.0, -0.5, 900.0) AND "
            f"XMATCH({', '.join(aliases)}) < 3.5"
        )
        fed.network.metrics.reset()
        result = fed.client().submit(sql)
        metrics = fed.network.metrics
        hops = " -> ".join(
            str(stats["tuples_out"]) for stats in result.node_stats
        )
        report.add_row(
            n_nodes,
            metrics.total_bytes(phase="crossmatch-chain"),
            metrics.message_count(phase="crossmatch-chain"),
            round(metrics.simulated_seconds, 3),
            hops,
            len(result),
        )
    report.note(
        "Each added archive adds one hop; surviving tuples shrink "
        "monotonically along the chain, so per-hop payloads stay bounded."
    )
    return report


# -- E15: extension — fault injection, retries, graceful degradation ---------------


def run_e15_fault_recovery(n_bodies: int = 600) -> ExperimentReport:
    """Retry overhead at zero faults; completion under seeded drop rates.

    Autonomous archives fail: the resilient federation (retry policy +
    chain re-planning) must cost ~nothing when the network is clean,
    survive transient request drops with *identical* rows, and degrade
    gracefully (not raise) when an archive is truly gone.
    """
    from repro.services.retry import RetryPolicy
    from repro.transport.faults import FaultPlan

    policy = RetryPolicy(
        max_attempts=5, timeout_s=8.0, base_backoff_s=0.2,
        max_backoff_s=2.0, seed=15,
    )
    sql = paper_query(radius_arcsec=900.0)

    def run_arm(scenario, *, retry_policy=None, fault_plan=None, kill=None,
                query=sql):
        fed = fresh_federation(
            n_bodies=n_bodies, seed=15,
            retry_policy=retry_policy, fault_plan=fault_plan,
        )
        if kill is not None:
            fed.network.fail_host(fed.node(kill).hostname)
        fed.network.metrics.reset()
        start = fed.network.clock.now
        result = fed.client().submit(query)
        elapsed = fed.network.clock.now - start
        metrics = fed.network.metrics
        return {
            "scenario": scenario,
            "rows": sorted(result.rows),
            "degraded": result.degraded,
            "warnings": list(result.warnings),
            "elapsed": elapsed,
            "retries": metrics.retries,
            "timeouts": metrics.timeouts,
            "faults": metrics.fault_count(),
        }

    arms = [run_arm("single-shot (seed)")]
    arms.append(
        run_arm("resilient, 0% faults", retry_policy=policy)
    )
    # Per-rate plan seeds chosen so the (few dozen) messages of one query
    # really do see injected drops at each rate.
    for rate, plan_seed in ((0.05, 5), (0.10, 2), (0.20, 1)):
        plan = FaultPlan(seed=plan_seed).drop_requests(
            rate=rate, label="drops"
        )
        arms.append(
            run_arm(f"resilient, {rate:.0%} request drops",
                    retry_policy=policy, fault_plan=plan)
        )
    arms.append(
        run_arm("resilient, drop-out archive partitioned",
                retry_policy=policy, kill="FIRST",
                query=paper_query(radius_arcsec=900.0, dropout=True))
    )

    baseline = arms[0]
    report = ExperimentReport(
        exp_id="E15",
        title="Extension: fault injection, retries, graceful degradation",
        source="Section 2 (autonomous 'federation of archives'); extension",
        headers=["scenario", "completed", "rows", "identical", "retries",
                 "timeouts", "faults injected", "sim seconds"],
    )
    for arm in arms:
        degraded = arm["degraded"]
        report.add_row(
            arm["scenario"],
            "degraded" if degraded else "yes",
            len(arm["rows"]),
            ("n/a (partial)" if degraded
             else "yes" if arm["rows"] == baseline["rows"] else "NO"),
            arm["retries"],
            arm["timeouts"],
            arm["faults"],
            round(arm["elapsed"], 3),
        )
    overhead = arms[1]["elapsed"] / baseline["elapsed"] - 1.0
    report.note(
        f"Resilience overhead at 0% faults: {overhead:+.1%} simulated "
        "elapsed time (retries and timeouts cost nothing until a fault "
        "fires; liveness is learned from the count probes and the chain, "
        "which the query sends anyway)."
    )
    degraded_arm = arms[-1]
    if degraded_arm["warnings"]:
        report.note(
            "Partitioned drop-out archive: " + degraded_arm["warnings"][0]
        )
    report.note(
        "Fault injection is seeded and replays identically; every retry, "
        "timeout and injected fault above is visible in NetworkMetrics. "
        "The seed picks which of the query's messages are dropped, so a "
        "drop arm's sim seconds depend on where its drops land: two "
        "timeouts inside one parallel block (the count probes) overlap, "
        "two on sequential messages add up."
    )
    return report


# -- E16: extension — the vectorized cross-match kernel vs the scalar loop ----------


def _e16_federation(
    n_nodes: int, n_bodies: int, *, reference: bool, match_engine: str = "htm"
):
    """The E11 federation; ``reference`` swaps the scalar loop in for
    ``sp_xmatch`` on every archive through the engine's own seam — the
    oracle arm, which is not a federation option."""
    from repro.skynode.xmatch_proc import PROCEDURE_NAME, sp_xmatch_reference

    fed = _e11_federation(n_nodes, n_bodies, match_engine=match_engine)
    if reference:
        for node in fed.nodes.values():
            node.db.drop_procedure(PROCEDURE_NAME)
            node.db.register_procedure(PROCEDURE_NAME, sp_xmatch_reference)
    return fed


def run_e16_kernel_speedup(
    node_counts: Sequence[int] = (3, 5),
    n_bodies: int = 1500,
    repeats: int = 3,
) -> ExperimentReport:
    """Wall-clock of both kernels on the E11 scalability scenario.

    The scalar per-tuple loop was the original engine (and remains the
    testing oracle); the vectorized kernel evaluates the same recurrence
    set-at-a-time with numpy and batches the HTM covers of all search
    caps. The two must differ in wall-clock only: identical match sets,
    identical per-node stats, byte-for-byte identical wire traffic.
    """
    report = ExperimentReport(
        exp_id="E16",
        title="Vectorized numpy cross-match kernel vs scalar reference",
        source="Section 5.4 cross-match recurrence, evaluated set-at-a-time "
        "(the bugfix making scipy an optional extra)",
        headers=[
            "archives", "bodies", "scalar s", "vectorized s", "speedup",
            "rows", "same wire bytes", "same node stats",
        ],
    )
    for n_nodes in node_counts:
        froms = ", ".join(f"SURV{i}:objects S{i}" for i in range(n_nodes))
        aliases = ", ".join(f"S{i}" for i in range(n_nodes))
        sql = (
            f"SELECT S0.object_id FROM {froms} "
            f"WHERE AREA(185.0, -0.5, 900.0) AND XMATCH({aliases}) < 3.5"
        )
        arms: Dict[str, Dict[str, Any]] = {}
        for kernel in ("scalar", "vectorized"):
            fed = _e16_federation(
                n_nodes, n_bodies, reference=(kernel == "scalar")
            )
            client = fed.client()
            best = float("inf")
            result = None
            for _ in range(repeats):
                fed.network.metrics.reset()
                started = time.perf_counter()
                result = client.submit(sql)
                best = min(best, time.perf_counter() - started)
            assert result is not None
            arms[kernel] = {
                "elapsed": best,
                "rows": sorted(result.rows),
                "bytes": fed.network.metrics.bytes_by_phase(),
                "node_stats": result.node_stats,
            }
        scalar, vectorized = arms["scalar"], arms["vectorized"]
        assert vectorized["rows"] == scalar["rows"], "kernel changed matches!"
        report.add_row(
            n_nodes,
            n_bodies,
            round(scalar["elapsed"], 3),
            round(vectorized["elapsed"], 3),
            round(scalar["elapsed"] / vectorized["elapsed"], 2),
            len(vectorized["rows"]),
            "yes" if vectorized["bytes"] == scalar["bytes"] else "NO",
            "yes" if vectorized["node_stats"] == scalar["node_stats"] else "NO",
        )
    report.note(
        "Same matches, same per-node cost counters, byte-identical SOAP "
        "traffic: the kernels differ only in wall-clock. The vectorized "
        "engine wins on three axes: batched HTM cap covers (one "
        "level-synchronous quad-tree walk for all tuples), searchsorted "
        "probes over columnar index arrays, and one broadcasted "
        "chi-squared pass per chain step."
    )
    report.note(
        "The gap widens with archives and bodies — the scalar loop pays "
        "per (tuple, candidate) pair in Python, the vectorized kernel "
        "per chain step. Isolated from SOAP/simulation overhead (see "
        "docs/PERFORMANCE.md) the kernel itself is 40-50x faster."
    )
    return report


# -- E17: pipelined chain execution + columnar wire format --------------------------


def _e17_federation(
    n_nodes: int, n_bodies: int, bandwidth_bps: float
):
    """The E11 scenario's federation with a configurable link bandwidth."""
    return _e11_federation(
        n_nodes, n_bodies, default_bandwidth_bps=bandwidth_bps
    )


def run_e17_pipelined_chain(
    node_counts: Sequence[int] = (3, 5),
    body_counts: Sequence[int] = (1000, 8000),
    batch_sizes: Sequence[int] = (50, 200, 800),
    bandwidths: Sequence[float] = (250_000.0, 1_000_000.0, 4_000_000.0),
) -> ExperimentReport:
    """Pipelined streaming chain vs store-and-forward, on the E11 scenario.

    Both modes are one transport at two batch sizes and must return
    byte-identical rows; they differ in *when* the clock is charged.
    Store-and-forward asks for the whole result as one batch: one
    ``PerformXMatch`` traversal whose every hop waits for the complete
    neighbour result. The pipelined mode opens the same streams once,
    then pulls all batches concurrently — each batch's whole traversal is
    one branch of a ``parallel()`` block, so the chain is charged
    open-cascade plus the *slowest batch* instead of the serialized total.
    Every batch is the same columnar ``colset`` payload in both modes
    (the codec comparison is E7's), so the byte column shows what
    pipelining itself costs: per-batch framing and one more cascade.
    """
    report = ExperimentReport(
        exp_id="E17",
        title="Pipelined streaming chain: one transport, two batch sizes",
        source="Section 5.3 cost model (transmission overlapped with "
        "computation) / Section 6 (large SOAP messages)",
        headers=[
            "archives", "bodies", "batch", "bw B/s", "store-fwd s",
            "pipelined s", "speedup", "sf chain B", "pl chain B",
            "byte ratio", "identical rows",
        ],
    )

    def arm(fed, sql: str, mode: str, batch: int) -> Dict[str, Any]:
        fed.portal.chain_mode = mode
        fed.portal.stream_batch_size = batch
        fed.network.metrics.reset()
        started = fed.network.clock.now
        result = fed.client().submit(sql)
        makespan = fed.network.clock.now - started
        m = fed.network.metrics
        return {
            "rows": list(result.rows),
            "columns": list(result.columns),
            "matched": result.matched_tuples,
            "makespan": makespan,
            "chain_bytes": (
                m.total_bytes(phase="crossmatch-chain")
                + m.total_bytes(phase="batch-transfer")
                + m.total_bytes(phase="chunk-transfer")
            ),
        }

    def compare(fed, sql: str, label_args, batch: int) -> None:
        sf = arm(fed, sql, "store-forward", batch)
        pl = arm(fed, sql, "pipelined", batch)
        identical = (
            sf["rows"] == pl["rows"]
            and sf["columns"] == pl["columns"]
            and sf["matched"] == pl["matched"]
        )
        report.add_row(
            *label_args,
            round(sf["makespan"], 3),
            round(pl["makespan"], 3),
            round(sf["makespan"] / pl["makespan"], 2),
            sf["chain_bytes"],
            pl["chain_bytes"],
            round(sf["chain_bytes"] / max(1, pl["chain_bytes"]), 2),
            "yes" if identical else "NO",
        )
        if not identical:
            report.note(f"RESULT MISMATCH at {label_args}!")

    def sql_for(n_nodes: int) -> str:
        froms = ", ".join(f"SURV{i}:objects S{i}" for i in range(n_nodes))
        aliases = ", ".join(f"S{i}" for i in range(n_nodes))
        return (
            f"SELECT S0.object_id FROM {froms} "
            f"WHERE AREA(185.0, -0.5, 900.0) AND XMATCH({aliases}) < 3.5"
        )

    default_bw = 1_000_000.0
    default_batch = 200
    # Archives x bodies at the default link.
    for n_nodes in node_counts:
        for n_bodies in body_counts:
            fed = _e17_federation(n_nodes, n_bodies, default_bw)
            compare(
                fed, sql_for(n_nodes),
                (n_nodes, n_bodies, default_batch, int(default_bw)),
                default_batch,
            )
    # Batch-size sweep at the largest default-link scenario.
    n_nodes, n_bodies = node_counts[0], body_counts[-1]
    fed = _e17_federation(n_nodes, n_bodies, default_bw)
    for batch in batch_sizes:
        if batch == default_batch:
            continue  # already measured above
        compare(
            fed, sql_for(n_nodes),
            (n_nodes, n_bodies, batch, int(default_bw)), batch,
        )
    # Bandwidth sweep at the same scenario.
    for bandwidth in bandwidths:
        if bandwidth == default_bw:
            continue
        fed = _e17_federation(n_nodes, n_bodies, bandwidth)
        compare(
            fed, sql_for(n_nodes),
            (n_nodes, n_bodies, default_batch, int(bandwidth)),
            default_batch,
        )
    report.note(
        "Identical rows in identical order in every arm: the pipelined "
        "stream partitions only the seed tuples, so each hop sees the same "
        "tuple set in the same order, batch by batch."
    )
    report.note(
        "Pipelining pays the chain's latency twice (open cascade + the "
        "slowest batch) but charges transfer and per-hop compute at batch "
        "granularity, overlapped. It loses when latency dominates (small "
        "payloads, few batches) and wins increasingly as payload bytes per "
        "link dollar grow — more bodies, slower links, or both."
    )
    report.note(
        "The byte ratio is below 1: both modes ship the same colset "
        "payload, so per-batch envelope framing plus the separate open "
        "cascade is pipelining's price in bytes. It shrinks as the batch "
        "grows (the batch-size sweep), and a result that fits one batch "
        "is the store-forward chain, message for message."
    )
    return report


# -- E18: extension — replica failover: resume vs full-restart vs degrade -----------


def run_e18_failover_recovery(n_bodies: int = 800) -> ExperimentReport:
    """Mid-chain crash recovery: checkpoint/resume vs full-restart vs degrade.

    A replica-backed federation answers the paper query while the first
    chain hop's host is crashed mid-execution. Three recovery strategies
    compete under the *same* injected crash: resume (the shipped path — the
    retried chain re-opens every hop's stream under the same execution
    id, so a hop that had drained replays its cached payload and only the
    failed hop's bytes travel again), full restart (failover to the
    replica but every hop recomputes and re-transfers), and degrade (no
    replicas provisioned at all). Wasted bytes = chain bytes beyond the
    fault-free oracle's; recovery makespan = simulated seconds beyond the
    oracle's elapsed time.
    """
    from repro.bench.scenarios import fresh_federation
    from repro.services.retry import RetryPolicy
    from repro.transport.faults import FaultPlan

    sql = paper_query(radius_arcsec=900.0)

    def build(mode: str, replicas: int = 1):
        fed = fresh_federation(
            n_bodies=n_bodies,
            seed=18,
            retry_policy=RetryPolicy(
                max_attempts=3, timeout_s=5.0, base_backoff_s=0.2,
                max_backoff_s=2.0, seed=18,
            ),
            replicas=replicas,
            chain_mode=mode,
        )
        if mode == "pipelined":
            # Several small batches under single-batch flow control: the
            # stream acknowledges progress batch by batch, so a mid-pull
            # crash has a meaningful high-water mark to resume from.
            fed.portal.stream_batch_size = 8
            fed.portal.stream_pull_window = 1
        return fed

    def chain_bytes(metrics) -> int:
        return (
            metrics.total_bytes(phase="crossmatch-chain")
            + metrics.total_bytes(phase="batch-transfer")
            + metrics.total_bytes(phase="chunk-transfer")
        )

    def run(fed, crash_host=None, crash_at=None):
        if crash_host is not None:
            fed.network.set_fault_plan(
                FaultPlan().crash(crash_host, at_s=crash_at)
            )
        fed.network.metrics.reset()
        start = fed.network.clock.now
        result = fed.client().submit(sql)
        pulls = [
            m.sim_time for m in fed.network.metrics.messages
            if m.phase == "batch-transfer"
        ]
        return {
            "rows": list(result.rows),
            "elapsed": fed.network.clock.now - start,
            "bytes": chain_bytes(fed.network.metrics),
            "failovers": result.failovers,
            "degraded": result.degraded,
            "victim": (
                result.plan["steps"][0]["url"].split("/")[2]
                if result.plan else None
            ),
            "start": start,
            "pull_window": (min(pulls), max(pulls)) if pulls else None,
        }

    def late_crash_at(baseline):
        """A crash instant that lands while completed work exists to save.

        Store-forward: 60% into the submit window, while the portal
        awaits the chain and downstream hops have drained their one
        batch. Pipelined: 70% into the batch-pull phase, after some
        batches are acknowledged but before the stream drains.
        """
        if baseline["pull_window"] is not None:
            lo, hi = baseline["pull_window"]
            return lo + 0.7 * (hi - lo)
        return baseline["start"] + 0.6 * baseline["elapsed"]

    report = ExperimentReport(
        exp_id="E18",
        title="Replica failover: checkpoint/resume vs restart vs degrade",
        source="Section 2 (autonomous archives) / Section 5.3 chain "
        "execution; extension",
        headers=[
            "mode", "strategy", "completed", "rows", "identical",
            "failovers", "chain B", "wasted B", "recovery s",
        ],
    )
    for mode in ("store-forward", "pipelined"):
        oracle = run(build(mode))
        window = oracle["elapsed"]
        victim = oracle["victim"]

        def arm(label, fed, *, crash_at, baseline=oracle):
            outcome = run(fed, crash_host=victim, crash_at=crash_at)
            report.add_row(
                mode,
                label,
                "degraded" if outcome["degraded"] else "yes",
                len(outcome["rows"]),
                ("n/a (partial)" if outcome["degraded"]
                 else "yes" if outcome["rows"] == baseline["rows"] else "NO"),
                outcome["failovers"],
                outcome["bytes"],
                outcome["bytes"] - baseline["bytes"],
                round(outcome["elapsed"] - baseline["elapsed"], 3),
            )
            return outcome

        report.add_row(
            mode, "fault-free oracle", "yes", len(oracle["rows"]), "yes",
            0, oracle["bytes"], 0, 0.0,
        )
        late = late_crash_at(oracle)
        early = oracle["start"] + 0.15 * window
        arm("resume (late crash)", build(mode), crash_at=late)
        restart_fed = build(mode)
        restart_fed.portal.checkpoint_resume = False
        arm("full restart (late crash)", restart_fed, crash_at=late)
        arm("resume (early crash)", build(mode), crash_at=early)
        early_restart = build(mode)
        early_restart.portal.checkpoint_resume = False
        arm("full restart (early crash)", early_restart, crash_at=early)

        # Degrade: no replicas at all. Its own oracle twin (a replica-free
        # build has a different deterministic timeline, so the crash
        # instant must be measured against it).
        degrade_oracle = run(build(mode, replicas=0))
        report.add_row(
            mode, "degrade oracle (no replicas)", "yes",
            len(degrade_oracle["rows"]), "yes", 0, degrade_oracle["bytes"],
            0, 0.0,
        )
        fed = build(mode, replicas=0)
        fed.network.set_fault_plan(
            FaultPlan().crash(
                degrade_oracle["victim"], at_s=late_crash_at(degrade_oracle)
            )
        )
        fed.network.metrics.reset()
        start = fed.network.clock.now
        result = fed.client().submit(sql)
        report.add_row(
            mode, "degrade (late crash)",
            "degraded" if result.degraded else "yes",
            len(result.rows),
            "n/a (partial)" if result.degraded else
            ("yes" if list(result.rows) == degrade_oracle["rows"] else "NO"),
            result.failovers,
            chain_bytes(fed.network.metrics),
            chain_bytes(fed.network.metrics) - degrade_oracle["bytes"],
            round(
                (fed.network.clock.now - start) - degrade_oracle["elapsed"], 3
            ),
        )
    report.note(
        "Resume's win is structural, and it is one mechanism at two batch "
        "sizes: the crashed hop sits at the head of the chain, so when "
        "the crash fired every downstream hop had drained its stream "
        "(store-forward: the one batch) or the Portal had acknowledged "
        "batches below a high-water mark (pipelined). The failed-over "
        "chain re-opens each stream under the same execution id at the "
        "first batch it still lacks: a drained hop replays its cached "
        "payload with no downstream call, so only the replacement hop's "
        "compute and its two adjacent transfers are re-spent; full "
        "restart re-spends the whole chain."
    )
    report.note(
        "Losing regimes, honestly: a crash early in the chain (the "
        "early-crash arms, 15% into the submit window) "
        "leaves little or nothing finished, so resume converges to "
        "full restart (and when the crash lands before the chain starts, "
        "plan-time failover makes the two byte-identical). A crash of the "
        "chain's *last* hop similarly finds no completed downstream work "
        "to reuse. A drained stream also holds its last payload in node "
        "memory (until 8 newer ones settle on that node, or its 600 "
        "simulated seconds pass) — a cost the restart strategy never pays."
    )
    report.note(
        "The pipelined arms run 8-tuple batches under single-batch flow "
        "control (stream_pull_window=1): progress is acknowledged batch "
        "by batch, so the high-water mark means something. With unbounded "
        "overlap (the latency-optimal default) every batch is in flight "
        "at the crash instant and they fail as one — another regime where "
        "resume buys nothing over restart."
    )
    report.note(
        "Degrade is the cheapest recovery on every axis except the one "
        "that matters: with the crashed archive mandatory and no replica, "
        "the answer is empty. Failover turns the same crash into a "
        "complete result for the price of the re-spent hop."
    )
    return report


# -- E19: extension — live ingest under load: snapshot queries + replica lag --------


def run_e19_ingest_under_load(
    n_bodies: int = 800,
    n_epochs: int = 3,
    rows_per_epoch: int = 60,
) -> ExperimentReport:
    """Live ingest under query load vs the quiescent federation.

    A replica-backed federation answers the paper query between epoch
    commits: both SDSS and TWOMASS ingest the same fresh bodies, so each
    epoch genuinely grows the match set. Measured per epoch: query
    latency (simulated seconds) against the quiescent baseline, the
    ingest commit makespan, the replica catch-up lag (how long the
    mirror's Commit delivery trails the primary's inside the 2PC
    decision), and the staged wire bytes. A final arm replays the first
    query pinned at its epochs — the repeatable read — and a
    replica-free build prices the fan-out.
    """
    from repro.services.retry import RetryPolicy
    from repro.workloads.skysim import generate_bodies, observe_survey

    # Two-archive cross-match over the two surveys that ingest below —
    # every committed epoch can genuinely grow the match set. (The
    # 3-archive paper query would gate new matches on FIRST, which does
    # not observe the fresh bodies.)
    sql = (
        "SELECT O.object_id, O.ra, T.obj_id "
        "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
        "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(O, T) < 3.5"
    )

    def build(replicas: int = 1):
        return fresh_federation(
            n_bodies=n_bodies,
            seed=19,
            retry_policy=RetryPolicy(
                max_attempts=3, timeout_s=5.0, base_backoff_s=0.2,
                max_backoff_s=2.0, seed=19,
            ),
            replicas=replicas,
            ingest=True,
        )

    def observation(fed, archive, offset):
        config = fed.config
        survey = next(s for s in config.surveys if s.archive == archive)
        obs = observe_survey(
            survey,
            generate_bodies(
                config.sky_field, rows_per_epoch, config.seed + offset
            ),
            config.seed + offset,
        )
        columns = list(obs.rows[0].keys())
        rows = [tuple(row[c] for c in columns) for row in obs.rows]
        return survey.primary_table, columns, rows

    def timed_query(fed, **kwargs):
        start = fed.network.clock.now
        if kwargs:
            result = fed.portal.submit(sql, **kwargs)
        else:
            result = fed.client().submit(sql)
        return result, fed.network.clock.now - start

    def ingest_epoch(fed, offset):
        """Commit one epoch into SDSS+TWOMASS; returns (s, lag_s, bytes)."""
        metrics = fed.network.metrics
        ingest_bytes = (
            metrics.total_bytes(phase="ingest")
            + metrics.total_bytes(phase="transaction")
        )
        mark = len(metrics.messages)
        start = fed.network.clock.now
        lags = []
        for archive in ("SDSS", "TWOMASS"):
            table, columns, rows = observation(fed, archive, offset)
            result = fed.ingest_client(archive).ingest_rows(
                table, columns, rows
            )
            assert result.committed, result.abort_reason
        commits = [
            m.sim_time for m in metrics.messages[mark:]
            if m.kind == "request" and m.operation == "Commit"
        ]
        # Two archives committed, each delivering Commit to its primary
        # then its mirrors; the lag is how far the last delivery trails
        # the first within one archive's decision.
        if commits:
            half = len(commits) // 2
            lags = [
                max(chunk) - min(chunk)
                for chunk in (commits[:half], commits[half:])
                if chunk
            ]
        new_bytes = (
            metrics.total_bytes(phase="ingest")
            + metrics.total_bytes(phase="transaction")
            - ingest_bytes
        )
        return (
            fed.network.clock.now - start,
            max(lags) if lags else 0.0,
            new_bytes,
        )

    report = ExperimentReport(
        exp_id="E19",
        title="Live ingest under load: snapshot queries + replica catch-up",
        source="Section 6 future work (archives keep observing); extension",
        headers=[
            "arm", "epoch", "matches", "query s", "vs quiescent s",
            "ingest s", "replica lag s", "ingest B",
        ],
    )

    # Quiescent baseline: the same query on the untouched federation.
    quiet = build()
    q_result, q_elapsed = timed_query(quiet)
    report.add_row(
        "quiescent", 0, len(q_result.rows), round(q_elapsed, 3), 0.0,
        None, None, None,
    )

    # Under load: query between epoch commits.
    fed = build()
    r0, e0 = timed_query(fed)
    assert list(r0.rows) == list(q_result.rows)
    report.add_row(
        "under load", 0, len(r0.rows), round(e0, 3),
        round(e0 - q_elapsed, 3), None, None, None,
    )
    matches = [len(r0.rows)]
    for epoch in range(1, n_epochs + 1):
        ingest_s, lag_s, ingest_b = ingest_epoch(fed, 100 + epoch)
        result, elapsed = timed_query(fed)
        assert result.epochs["O"] == epoch
        matches.append(len(result.rows))
        report.add_row(
            "under load", epoch, len(result.rows), round(elapsed, 3),
            round(elapsed - q_elapsed, 3), round(ingest_s, 3),
            round(lag_s, 4), ingest_b,
        )

    # The repeatable read: the first query's answer, replayed bit for bit
    # at its pinned epochs after every ingest has landed.
    pinned, pinned_s = timed_query(fed, pin_epochs=dict(r0.epochs))
    assert sorted(pinned.rows) == sorted(r0.rows)
    report.add_row(
        "pinned replay @0", 0, len(pinned.rows), round(pinned_s, 3),
        round(pinned_s - q_elapsed, 3), None, None, None,
    )

    # Fan-out priced: the same first epoch with no replicas provisioned.
    bare = build(replicas=0)
    bare_s, _, bare_b = ingest_epoch(bare, 101)
    report.add_row(
        "no-replica ingest", 1, None, None, None,
        round(bare_s, 3), 0.0, bare_b,
    )

    report.note(
        "Query latency under load grows with the data, not the ingest "
        "machinery: each epoch adds rows inside the query area, so the "
        "chain carries more candidate tuples. The pinned replay reads the "
        "epoch-0 snapshot and stays at (or near) the quiescent latency "
        "even though the live tables have grown past it."
    )
    report.note(
        "Replica catch-up lag is the decision-delivery gap inside 2PC: "
        "the mirror commits the epoch one Commit-message transfer after "
        "the primary. Until that delivery lands, a failover read at the "
        "new epoch would fail — the lag is the price of lockstep."
    )
    report.note(
        "Losing regimes, honestly: replica fan-out roughly doubles the "
        "staged wire bytes and stretches the commit makespan vs the "
        "no-replica arm (every batch travels once per participant). "
        "Epoch GC (keep_epochs) bounds the snapshot history: a reader "
        "pinned past it gets StaleEpochError and must re-plan, and "
        "holding more epochs holds more row versions. And ingest commits "
        "serialize behind the 2PC decision — an upload burst delays its "
        "own later batches, though never a pinned reader."
    )
    assert matches == sorted(matches), "epochs must only grow the answer"
    return report


# -- E20: extension — the zone match engine vs HTM at scale -------------------------


def _e20_bodies(n: int, seed: int = 12, spread_arcsec: float = 3600.0):
    """A dense random field of true body positions."""
    from repro.sphere.coords import radec_to_vector
    from repro.sphere.random import random_in_cap

    rng = random.Random(seed)
    center = radec_to_vector(185.0, -0.5)
    return rng, [
        random_in_cap(rng, center, arcsec_to_rad(spread_arcsec))
        for _ in range(n)
    ]


def _e20_chain_spec(n: int):
    """Three in-memory archives observing the same n bodies."""
    from repro.sphere.random import perturb_gaussian
    from repro.xmatch.tuples import LocalObject

    rng, bodies = _e20_bodies(n)
    spec = []
    for alias, sigma_arcsec in (("A", 0.1), ("B", 0.3), ("C", 0.5)):
        sigma = arcsec_to_rad(sigma_arcsec)
        objects = [
            LocalObject(object_id=i, position=perturb_gaussian(rng, b, sigma))
            for i, b in enumerate(bodies)
        ]
        spec.append((alias, objects, sigma, False))
    return spec


def _e20_database(n: int, m: int):
    """One archive table of n rows plus a temp table of m incoming tuples."""
    from repro.db.engine import Database
    from repro.db.schema import Column
    from repro.db.table import SpatialSpec
    from repro.db.types import ColumnType
    from repro.skynode.xmatch_proc import register_xmatch_procedure
    from repro.sphere.coords import vector_to_radec
    from repro.sphere.random import perturb_gaussian
    from repro.xmatch.chi2 import Accumulator

    sigma = arcsec_to_rad(0.3)
    rng, bodies = _e20_bodies(n)
    db = Database("arch", page_size=64)
    register_xmatch_procedure(db)
    db.create_table(
        "objects",
        [
            Column("object_id", ColumnType.INT, nullable=False),
            Column("ra", ColumnType.FLOAT, nullable=False),
            Column("dec", ColumnType.FLOAT, nullable=False),
        ],
        spatial=SpatialSpec("ra", "dec", htm_depth=12),
    )
    rows = []
    for i, body in enumerate(bodies):
        ra, dec = vector_to_radec(perturb_gaussian(rng, body, sigma))
        rows.append((i, ra, dec))
    db.insert("objects", rows)
    temp = db.create_temp_table(
        "xm",
        [
            Column("seq", ColumnType.INT, nullable=False),
            Column("a", ColumnType.FLOAT, nullable=False),
            Column("ax", ColumnType.FLOAT, nullable=False),
            Column("ay", ColumnType.FLOAT, nullable=False),
            Column("az", ColumnType.FLOAT, nullable=False),
        ],
    )
    for seq in range(m):
        acc = Accumulator.of_observation(
            perturb_gaussian(rng, bodies[seq], sigma), sigma
        )
        temp.insert((seq, acc.a, acc.ax, acc.ay, acc.az))
    return db, temp


def run_e20_zone_engine(
    kernel_sizes: Sequence[int] = (200, 1_000, 5_000, 20_000, 100_000),
    proc_sizes: Sequence[int] = (20_000, 100_000, 300_000),
    chain_sizes: Sequence[int] = (20_000, 100_000),
    broadcast_cap: int = 20_000,
    scalar_cap: int = 5_000,
    proc_tuples: int = 5_000,
    repeats: int = 2,
) -> ExperimentReport:
    """The zone engine against HTM (and the scalar oracle) at three layers.

    ``kernel``: the in-memory chain (``run_chain``) — the zone sorted-merge
    vs the broadcast O(m*n) batch kernel vs the scalar loop, pure matcher
    cost with no database or SOAP. ``sp_xmatch``: one stored-procedure call
    on a single archive database — the zone window probe vs the batched-HTM
    cap covers, everything else identical. ``federated``: the full
    three-node SOAP chain under each ``match_engine``. Engines that are
    infeasible at a size (the broadcast kernel is quadratic; the scalar
    loop pays per pair in Python) are capped and reported as ``-`` rather
    than extrapolated.
    """
    from repro.xmatch.stream import run_chain

    report = ExperimentReport(
        exp_id="E20",
        title="Zone match engine vs HTM reference at scale",
        source="ROADMAP item 2: the successor papers' zone algorithm "
        "(Nieto-Santisteban 2005; Dobos 2012) replacing per-cap HTM probes",
        headers=[
            "scenario", "bodies", "baseline", "base s", "zone s",
            "speedup", "scalar s", "rows", "identical",
        ],
    )

    def best_of(fn):
        best = float("inf")
        value = None
        for _ in range(repeats):
            started = time.perf_counter()
            value = fn()
            best = min(best, time.perf_counter() - started)
        return best, value

    # --- layer 1: the isolated in-memory kernels -------------------------
    kernel_crossover = None
    for n in kernel_sizes:
        spec = _e20_chain_spec(n)
        zone_s, zone_result = best_of(lambda: run_chain(spec, 3.5, engine="zone"))
        zone_key = [(t.members, t.acc.a, t.acc.ax, t.acc.ay, t.acc.az)
                    for t in zone_result]
        identical = []
        base_s = None
        if n <= broadcast_cap:
            base_s, base_result = best_of(
                lambda: run_chain(spec, 3.5, engine="vectorized")
            )
            base_key = [(t.members, t.acc.a, t.acc.ax, t.acc.ay, t.acc.az)
                        for t in base_result]
            identical.append(zone_key == base_key)
            if kernel_crossover is None and zone_s < base_s:
                kernel_crossover = n
        scalar_s = None
        if n <= scalar_cap:
            scalar_s, scalar_result = best_of(
                lambda: run_chain(spec, 3.5, engine="scalar")
            )
            scalar_key = [(t.members, t.acc.a, t.acc.ax, t.acc.ay, t.acc.az)
                          for t in scalar_result]
            identical.append(zone_key == scalar_key)
        report.add_row(
            "kernel", n, "broadcast",
            round(base_s, 3) if base_s is not None else "-",
            round(zone_s, 3),
            round(base_s / zone_s, 2) if base_s is not None else "-",
            round(scalar_s, 3) if scalar_s is not None else "-",
            len(zone_result),
            # "-" when zone ran alone (every comparison engine was over
            # its feasibility cap), so absence of evidence never reads
            # as divergence.
            ("yes" if all(identical) else "NO") if identical else "-",
        )

    # --- layer 2: one sp_xmatch call on a single archive -----------------
    from repro.skynode.xmatch_proc import PROCEDURE_NAME, sp_xmatch_reference

    def proc_call(db, temp, engine):
        return db.call_procedure(
            PROCEDURE_NAME, temp_table=temp.name, primary_table="objects",
            id_column="object_id", ra_column="ra", dec_column="dec",
            alias="X", sigma_arcsec=0.3, threshold=3.5, area=None,
            residual=None, attr_columns=(), engine=engine,
        )

    def proc_key(result):
        return (
            {seq: [(o.object_id, o.position) for o in matched]
             for seq, matched in result.matches.items()},
            (result.stats.tuples_in, result.stats.candidates_tested,
             result.stats.rows_examined, result.stats.matches_found),
        )

    for n in proc_sizes:
        db, temp = _e20_database(n, proc_tuples)
        htm_s, htm_result = best_of(lambda: proc_call(db, temp, "htm"))
        zone_s, zone_result = best_of(lambda: proc_call(db, temp, "zone"))
        db.drop_procedure(PROCEDURE_NAME)
        db.register_procedure(PROCEDURE_NAME, sp_xmatch_reference)
        scalar_s, scalar_result = best_of(lambda: proc_call(db, temp, "htm"))
        identical = (
            proc_key(zone_result) == proc_key(htm_result) == proc_key(scalar_result)
        )
        report.add_row(
            "sp_xmatch", n, "batched-htm",
            round(htm_s, 3), round(zone_s, 3), round(htm_s / zone_s, 2),
            round(scalar_s, 3), len(zone_result.matches),
            "yes" if identical else "NO",
        )

    # --- layer 3: the full federated SOAP chain --------------------------
    sql = (
        "SELECT S0.object_id "
        "FROM SURV0:objects S0, SURV1:objects S1, SURV2:objects S2 "
        "WHERE AREA(185.0, -0.5, 900.0) AND XMATCH(S0, S1, S2) < 3.5"
    )

    def fed_observe(n, engine, reference=False):
        fed = _e16_federation(
            3, n, reference=reference, match_engine=engine
        )
        client = fed.client()
        best = float("inf")
        result = None
        for _ in range(repeats):
            fed.network.metrics.reset()
            started = time.perf_counter()
            result = client.submit(sql)
            best = min(best, time.perf_counter() - started)
        return best, (
            sorted(result.rows), result.node_stats,
            fed.network.metrics.bytes_by_phase(),
        )

    for n in chain_sizes:
        htm_s, htm_obs = fed_observe(n, "htm")
        zone_s, zone_obs = fed_observe(n, "zone")
        scalar_s = None
        identical = [zone_obs == htm_obs]
        if n <= scalar_cap * 4:
            scalar_s, scalar_obs = fed_observe(n, "htm", reference=True)
            identical.append(zone_obs == scalar_obs)
        report.add_row(
            "federated", n, "htm",
            round(htm_s, 3), round(zone_s, 3), round(htm_s / zone_s, 2),
            round(scalar_s, 3) if scalar_s is not None else "-",
            len(zone_obs[0]),
            "yes" if all(identical) else "NO",
        )

    if kernel_crossover is not None:
        report.note(
            f"Kernel crossover: the zone sorted-merge overtakes the "
            f"broadcast batch kernel at ~{kernel_crossover} bodies. Below "
            f"that, building the per-archive zone arrays and the window "
            f"trigonometry cost more than simply broadcasting the few "
            f"(tuple, candidate) pairs — the zone engine LOSES on small "
            f"in-memory batches, which is why broadcast stays run_chain's "
            f"default. The federation's stored procedure defaults to zone: "
            f"there the baseline is the per-tuple HTM probe, and zone wins "
            f"every sp_xmatch and federated row below."
        )
    report.note(
        "The broadcast kernel is O(m*n) per step and infeasible past "
        f"{broadcast_cap} bodies (the '-' cells); the zone kernel is "
        "O(m*k + n log n) and runs the same field at 100k+ bodies in "
        "seconds. On the stored-procedure path the win is the probe: "
        "per-tuple HTM cap covers walk the trixel tree in Python, while "
        "zone windows are one vectorized searchsorted batch."
    )
    report.note(
        "Federated chains dilute the kernel win behind SOAP encode/parse "
        "and simulated transfer costs — the honest losing regime of both "
        "fast engines. Every row above also re-checks the contract: "
        "identical survivors, accumulators, scan stats, and wire bytes "
        "across engines ('identical' column)."
    )
    return report


# -- E21: multi-tenant scheduler + semantic cache --------------------------------


def run_e21_scheduler_cache(
    n_bodies: int = 800,
    n_queries: int = 12,
    pool_size: int = 3,
    n_tenants: int = 3,
    max_inflight: int = 4,
    zipf_s: float = 1.1,
    ingest_rows: int = 80,
) -> ExperimentReport:
    """The portal as a multi-tenant server: scheduler + semantic cache.

    A zipf-repeated workload (a few hot AREA queries dominate, as portal
    logs show) runs through four arms on identical twin federations:
    serial uncached (the paper's one-query-at-a-time portal), the wave
    scheduler alone, scheduler + cold semantic cache, and the same
    federation re-answering the workload warm. Sim-clock latencies
    (p50/p99), makespan, and simulated wire bytes are reported per arm;
    every arm's answers are checked row-identical to the serial oracle.
    Losing regimes are measured, not hidden: a unique-query workload
    (zero repeats — the cache can only miss) and a tiny federation
    (absolute savings in the noise). A final ingest commit demonstrates
    epoch-based invalidation: the warmed cache drops its entries and the
    next query returns the new epoch's answer.
    """
    from repro.portal.scheduler import SchedulerConfig
    from repro.workloads.skysim import generate_bodies, observe_survey

    report = ExperimentReport(
        exp_id="E21",
        title="Multi-tenant scheduler + epoch-aware semantic cache",
        source="Section 3's portal-as-web-service: many concurrent "
        "clients, repeated queries, live archives (ROADMAP item 1)",
        headers=[
            "arm", "queries", "p50 s", "p99 s", "makespan s",
            "wire KB", "hits", "identical",
        ],
    )

    tenants = [f"tenant-{i}" for i in range(n_tenants)]
    jobs = zipf_workload(
        n_queries, pool_size, s=zipf_s, seed=7, tenants=tenants
    )
    sched_config = SchedulerConfig(max_inflight=max_inflight)

    def percentile(values, q):
        ordered = sorted(values)
        if not ordered:
            return 0.0
        rank = int(round(q / 100.0 * (len(ordered) - 1)))
        return ordered[max(0, min(len(ordered) - 1, rank))]

    def wire_kb(fed):
        return round(
            sum(fed.network.metrics.bytes_by_phase().values()) / 1024.0, 1
        )

    # --- arm 1: serial uncached (the oracle) -----------------------------
    oracle: Dict[str, List[Tuple]] = {}
    serial = fresh_federation(n_bodies=n_bodies)
    serial.network.metrics.reset()
    latencies = []
    t0 = serial.network.clock.now
    for job in jobs:
        q0 = serial.network.clock.now
        result = serial.portal.submit(job["sql"])
        latencies.append(serial.network.clock.now - q0)
        oracle[job["sql"]] = sorted(result.rows)
    serial_makespan = serial.network.clock.now - t0
    report.add_row(
        "serial uncached", len(jobs),
        round(percentile(latencies, 50), 3),
        round(percentile(latencies, 99), 3),
        round(serial_makespan, 3), wire_kb(serial), 0, "oracle",
    )

    def scheduled_arm(name, fed, *, hits_expected=None):
        fed.network.metrics.reset()
        t0 = fed.network.clock.now
        outcomes = fed.scheduler.run([dict(job) for job in jobs])
        makespan = fed.network.clock.now - t0
        finished = [o for o in outcomes if o.result is not None]
        identical = len(finished) == len(jobs) and all(
            sorted(o.result.rows) == oracle[o.job.sql] for o in finished
        )
        hits = sum(1 for o in finished if o.cache is not None)
        report.add_row(
            name, len(jobs),
            round(percentile([o.latency_s for o in finished], 50), 3),
            round(percentile([o.latency_s for o in finished], 99), 3),
            round(makespan, 3), wire_kb(fed), hits,
            "yes" if identical else "NO",
        )
        return makespan, hits

    # --- arm 2: scheduler alone ------------------------------------------
    sched_only = fresh_federation(n_bodies=n_bodies, scheduler=sched_config)
    sched_makespan, _ = scheduled_arm("scheduler only", sched_only)

    # --- arms 3+4: scheduler + cache, cold then warm ---------------------
    cached = fresh_federation(
        n_bodies=n_bodies, scheduler=sched_config, cache=True
    )
    cold_makespan, cold_hits = scheduled_arm("scheduler + cache (cold)", cached)
    tracer = cached.network.tracer
    if tracer is not None:
        tracer.reset()
    warm_makespan, warm_hits = scheduled_arm("scheduler + cache (warm)", cached)
    warm_traced = None
    if tracer is not None:
        warm_traced = (
            sum(t.total_wire_bytes() for t in tracer.traces())
            + tracer.untraced_bytes
        )

    # --- losing regime 1: unique-query workload --------------------------
    # Every query distinct, radii strictly ascending: no exact repeat can
    # hit, and no later circle is contained in an earlier cached one, so
    # the cache can only miss.
    unique_step = 900.0 / n_queries
    unique_jobs = [
        {
            "sql": paper_query(600.0 + i * unique_step),
            "tenant": tenants[i % n_tenants],
        }
        for i in range(n_queries)
    ]
    unique_oracle = fresh_federation(n_bodies=n_bodies)
    answers = {}
    for job in unique_jobs:
        answers[job["sql"]] = sorted(
            unique_oracle.portal.submit(job["sql"]).rows
        )
    unique_fed = fresh_federation(
        n_bodies=n_bodies, scheduler=sched_config, cache=True
    )
    unique_fed.network.metrics.reset()
    t0 = unique_fed.network.clock.now
    unique_outcomes = unique_fed.scheduler.run(
        [dict(job) for job in unique_jobs]
    )
    unique_makespan = unique_fed.network.clock.now - t0
    unique_done = [o for o in unique_outcomes if o.result is not None]
    unique_identical = all(
        sorted(o.result.rows) == answers[o.job.sql] for o in unique_done
    )
    report.add_row(
        "unique queries + cache", len(unique_jobs),
        round(percentile([o.latency_s for o in unique_done], 50), 3),
        round(percentile([o.latency_s for o in unique_done], 99), 3),
        round(unique_makespan, 3), wire_kb(unique_fed),
        sum(1 for o in unique_done if o.cache is not None),
        "yes" if unique_identical else "NO",
    )

    # --- losing regime 2: tiny federation --------------------------------
    tiny_bodies = max(20, n_bodies // 10)
    tiny_serial = fresh_federation(n_bodies=tiny_bodies)
    t0 = tiny_serial.network.clock.now
    for job in jobs:
        tiny_serial.portal.submit(job["sql"])
    tiny_serial_makespan = tiny_serial.network.clock.now - t0
    tiny_fed = fresh_federation(
        n_bodies=tiny_bodies, scheduler=sched_config, cache=True
    )
    tiny_fed.network.metrics.reset()
    t0 = tiny_fed.network.clock.now
    tiny_outcomes = tiny_fed.scheduler.run([dict(job) for job in jobs])
    tiny_makespan = tiny_fed.network.clock.now - t0
    tiny_done = [o for o in tiny_outcomes if o.result is not None]
    report.add_row(
        f"tiny federation ({tiny_bodies} bodies)", len(jobs),
        round(percentile([o.latency_s for o in tiny_done], 50), 3),
        round(percentile([o.latency_s for o in tiny_done], 99), 3),
        round(tiny_makespan, 3), wire_kb(tiny_fed),
        sum(1 for o in tiny_done if o.cache is not None),
        "-",
    )

    # --- ingest commit invalidates ---------------------------------------
    live = fresh_federation(
        n_bodies=n_bodies, ingest=True, scheduler=sched_config, cache=True
    )
    hot_sql = jobs[0]["sql"]
    before = live.portal.submit(hot_sql)
    warm_hit = live.portal.submit(hot_sql)
    spec = next(s for s in live.config.surveys if s.archive == "SDSS")
    observation = observe_survey(
        spec,
        generate_bodies(live.config.sky_field, ingest_rows,
                        live.config.seed + 99),
        live.config.seed + 99,
    )
    columns = list(observation.rows[0].keys())
    ingest_result = live.ingest_client("SDSS").ingest_rows(
        spec.primary_table, columns,
        [tuple(row[c] for c in columns) for row in observation.rows],
    )
    invalidations = live.cache.stats.invalidations
    after = live.portal.submit(hot_sql)
    report.note(
        f"Ingest invalidation: hot query warm-hit ({warm_hit.cache!r}) at "
        f"epochs {before.epochs}; committing {ingest_result.rows_sent} rows "
        f"to SDSS as epoch {ingest_result.epoch} dropped "
        f"{invalidations} cache entrie(s); the next submission re-executed "
        f"(cache={after.cache!r}) at epochs {after.epochs} with "
        f"{len(after)} matches vs {len(before)} before."
    )

    # --- notes ------------------------------------------------------------
    report.note(
        f"Scheduling: {max_inflight} in-flight queries overlap their "
        f"chains through disjoint archives, so the wave makespan is the "
        f"slowest member, not the sum — "
        f"{round(serial_makespan / sched_makespan, 2)}x over the serial "
        f"portal on identical answers. The cache stacks: cold it already "
        f"coalesces repeats inside and across waves ({cold_hits} hits), "
        f"warm the whole zipf workload is answered locally "
        f"({warm_hits}/{len(jobs)} hits)."
    )
    if warm_traced is not None:
        report.note(
            f"Zero-wire reconciliation: the warm arm's traces account "
            f"{warm_traced} wire bytes across every span (plus untraced "
            f"pool) — cache hits provably never touched the federation."
        )
    report.note(
        "Losing regimes: with every query unique the cache can only miss "
        "— its arm matches 'scheduler only' on wire bytes and makespan "
        "(the memoization is pure overhead, kept off the simulated "
        "clock); on a tiny federation the absolute makespan saving is "
        "milliseconds, so the scheduler's value is fairness, not speed."
    )
    report.note(
        "E9 showed count-star performance queries warm each SkyNode's "
        "*buffer* cache (physical page reads drop; the chain still runs "
        "and still ships bytes). The portal's semantic cache composes "
        "above it: an exact or contained repeat skips the plan, the "
        "probes, and the chain entirely — zero wire bytes — while E9's "
        "warming still accelerates the misses that do execute. See "
        "docs/PERFORMANCE.md."
    )
    return report


# -- E22: end-to-end deadlines, cancellation, eager reclamation ------------------


def _e22_nodes(federation):
    nodes = list(federation.nodes.values())
    for group in federation.replicas.values():
        nodes.extend(group)
    return nodes


def _e22_residuals(federation, qid: str) -> Tuple[int, float]:
    """(leftover items, leftover KB) still owned by ``qid`` federation-wide.

    Items are streams (open, or drained and kept as the hop's checkpoint)
    and chunked transfers; the KB figure sums every payload whose wire
    size is directly measurable — the batch a stream served last and the
    chunks a transfer still buffers (all of them while pending, the
    parked final one once drained).
    """
    from repro.transport.chunking import envelope_bytes

    items = 0
    held_bytes = 0
    for node in _e22_nodes(federation):
        for leases in (node.crossmatch.leases, node.query.sender.leases):
            for kind, _, lease in leases.owned_by(qid):
                items += 1
                if kind == "stream":
                    served = lease.value.served
                    payloads = [served[0]] if served is not None else []
                elif lease.live:
                    payloads = lease.value  # a pending transfer's chunks
                else:
                    payloads = [lease.value[1]]  # its parked final chunk
                held_bytes += sum(envelope_bytes(p) for p in payloads)
    return items, held_bytes / 1024.0


def run_e22_deadline_cancellation(
    n_bodies: int = 800,
    storm_queries: int = 6,
) -> ExperimentReport:
    """Deadline-expired queries: eager CancelQuery vs TTL-only reaping.

    A query is given a budget that expires mid-chain (chunked drains for
    the store-forward mode, bounded pull waves for the pipelined mode
    provide budget-checked operations deep into the run). Twin arms on
    identical federations differ in one switch: ``portal.eager_cancel``.
    With it on, the portal fans ``CancelQuery`` down the chain the moment
    the deadline fault surfaces and every stream, staging, and chunked
    transfer the query owned is freed immediately; with it off the same
    state sits in server memory until the 600 s TTL reapers find it. The
    report measures that custody directly: leftover items and buffered KB
    the instant the degraded answer returns, the reclaim latency, and the
    wire cost of the cancel fan-out itself.

    Honest framing: in this synchronous simulation the chain stops
    executing when the deadline fault propagates, so eager cancellation
    cannot save *recompute* — the differential is custody (state held x
    seconds until reclaim) and reclaim latency, which is exactly what the
    TTL columns show. Losing regimes are measured, not hidden: the budget
    header taxes every message of a query that never comes close to its
    deadline, and a cancel storm over near-empty state ships more cancel
    bytes than it frees.
    """
    from repro.skynode.crossmatch import STREAM_TTL_S

    report = ExperimentReport(
        exp_id="E22",
        title="Query deadlines: eager cancellation vs TTL-only reaping",
        source="Section 5.3's long-running federated queries need "
        "budgets and cleanup (ROADMAP robustness item)",
        headers=[
            "arm", "mode", "cancels", "eager", "leftover items",
            "leftover KB", "reclaim s", "cancel KB", "answer after",
        ],
    )

    sql = paper_query(900.0)
    fractions = {"store-forward": 0.95, "pipelined": 0.5}

    def build(chain_mode):
        fed = fresh_federation(
            n_bodies=n_bodies,
            chain_mode=chain_mode,
            chunk_budget_bytes=1024,
            replicas=1,
        )
        if chain_mode == "pipelined":
            # Batches small enough that the answer takes several (one
            # batch would be the store-forward arm again), pulled in
            # bounded waves.
            fed.portal.stream_batch_size = 8
            fed.portal.stream_pull_window = 2
        return fed

    oracle_cache: Dict[str, Tuple[Any, float]] = {}

    def oracle(chain_mode):
        if chain_mode not in oracle_cache:
            fed = build(chain_mode)
            t0 = fed.network.clock.now
            result = fed.portal.submit(sql)
            oracle_cache[chain_mode] = (result, fed.network.clock.now - t0)
        return oracle_cache[chain_mode]

    for chain_mode in ("store-forward", "pipelined"):
        oracle_result, duration = oracle(chain_mode)
        for eager in (True, False):
            fed = build(chain_mode)
            fed.portal.eager_cancel = eager
            metrics = fed.network.metrics
            portal = fed.portal
            qid = f"{portal.hostname}-q{portal.queries_served + 1}"
            deadline = (
                fed.network.clock.now + fractions[chain_mode] * duration
            )
            result = portal.submit(sql, deadline_s=deadline)
            assert result.degraded and result.rows == [], (
                f"E22 expected a mid-chain deadline fault "
                f"({chain_mode}, eager={eager}); got {result!r}"
            )
            items, held_kb = _e22_residuals(fed, qid)
            cancel_kb = metrics.total_bytes(phase="cancel") / 1024.0
            if items:
                # TTL-only custody: the state outlives the query by the
                # full reaper horizon. Prove the backstop actually fires.
                fed.network.clock.advance(STREAM_TTL_S + 1.0)
                for node in _e22_nodes(fed):
                    node.crossmatch.leases.reap()
                    node.query.sender.leases.reap()
                after_items, _ = _e22_residuals(fed, qid)
                assert after_items == 0, "TTL backstop failed to reap"
                reclaim_s = STREAM_TTL_S
            else:
                reclaim_s = 0.0
            follow_up = portal.submit(sql)
            report.add_row(
                "eager cancel" if eager else "TTL-only",
                chain_mode,
                metrics.cancels,
                metrics.eager_reclaims,
                items,
                round(held_kb, 1),
                reclaim_s,
                round(cancel_kb, 2),
                "oracle" if follow_up.rows == oracle_result.rows else "NO",
            )

    # --- losing regime 1: the budget header taxes instant queries --------
    plain = fresh_federation(n_bodies=n_bodies)
    plain.network.metrics.reset()
    plain.portal.submit(sql)
    plain_bytes = sum(plain.network.metrics.bytes_by_phase().values())
    stamped = fresh_federation(n_bodies=n_bodies)
    stamped.network.metrics.reset()
    stamped.portal.submit(
        sql, deadline_s=stamped.network.clock.now + 1e9
    )
    stamped_bytes = sum(stamped.network.metrics.bytes_by_phase().values())
    header_overhead = stamped_bytes - plain_bytes
    report.note(
        f"Losing regime (instant queries): a generous deadline changes "
        f"no answer but stamps a QueryBudget header on every request — "
        f"{header_overhead} extra wire bytes "
        f"({100.0 * header_overhead / plain_bytes:.2f}%) on a query that "
        f"finishes with budget to spare. Deadlines are free only when "
        f"you do not set them."
    )

    # --- losing regime 2: a cancel storm over near-empty state -----------
    tiny = fresh_federation(
        n_bodies=max(40, n_bodies // 20),
        chain_mode="pipelined",
        chunk_budget_bytes=1024,
    )
    tiny.portal.stream_pull_window = 1
    t0 = tiny.network.clock.now
    tiny.portal.submit(sql)
    tiny_duration = tiny.network.clock.now - t0
    storm = fresh_federation(
        n_bodies=max(40, n_bodies // 20),
        chain_mode="pipelined",
        chunk_budget_bytes=1024,
    )
    storm.portal.stream_pull_window = 1
    storm.network.metrics.reset()
    degraded = 0
    for _ in range(storm_queries):
        outcome = storm.portal.submit(
            sql,
            deadline_s=storm.network.clock.now + 0.5 * tiny_duration,
        )
        degraded += 1 if outcome.degraded else 0
    storm_cancel_bytes = storm.network.metrics.total_bytes(phase="cancel")
    storm_freed = storm.network.metrics.eager_reclaims
    report.note(
        f"Losing regime (cancel storm): {degraded}/{storm_queries} "
        f"deadline-expired queries on a tiny federation fanned "
        f"{storm.network.metrics.cancels} CancelQuery calls "
        f"({storm_cancel_bytes} wire bytes) to free just {storm_freed} "
        f"residual object(s) — state so small the TTL reaper would have "
        f"handled it for zero wire bytes. Eager cancellation pays off in "
        f"proportion to the state it frees, not the queries it touches."
    )
    report.note(
        "Synchronous-simulation caveat: the chain stops executing the "
        "moment the deadline fault propagates, so no arm can waste "
        "*recompute* downstream of the fault; in a real asynchronous "
        "federation the TTL-only arm would additionally keep executing "
        "until each hop next touched the wire. The custody and "
        "reclaim-latency columns are therefore a LOWER bound on what "
        "eager cancellation saves."
    )
    report.note(
        "Integrity bars, re-checked every arm: the degraded answer is "
        "empty with a typed deadline warning (never a silent partial "
        "row set), a follow-up unbudgeted query on the same federation "
        "still returns the oracle answer ('answer after'), and the "
        "TTL-only arm's leftovers provably vanish once the reapers run."
    )
    return report


def run_e11_sharded(
    body_counts: Sequence[int] = (2_000, 30_000, 100_000),
    shards: int = 4,
    radius_arcsec: float = 1800.0,
) -> ExperimentReport:
    """E11-sharded — partition chains over sharded archives vs monolithic.

    Every archive is cut on the same ``shards`` declination stripes (each
    shard also keeping its neighbours' rows within the 30" margin), so a
    query runs as one ordinary chain per stripe the AREA touches, all in
    parallel, and the Portal merges the answers; the *makespan*
    (simulated clock, not summed transfer work) pools each stripe's scan
    and transfers. The winning regime is the compute-bound scan (2e-4
    s/row, a stored-procedure-heavy survey scan) on a cluster
    interconnect (2 ms / 100 MB/s — the Dobos et al. successor systems
    shard inside one machine room). Measured alongside: the same
    federation on WAN-grade links (the seed's 50 ms / 1 MB/s defaults),
    and an AREA pruned to a single stripe.

    Integrity bar, every arm: the sharded rows are byte-identical to the
    monolithic twin's — speed never buys a different answer.
    """
    from repro.shard import margin_table

    cluster = dict(
        processing_seconds_per_row=2e-4,
        default_latency_s=0.002,
        default_bandwidth_bps=100_000_000.0,
    )
    report = ExperimentReport(
        exp_id="E11-sharded",
        title=f"Sharded SkyNodes ({shards} stripes) vs monolithic",
        source="Section 2 (federation scale-out) / Section 5.3 cost model; "
        "successor systems (Dobos et al. parallel probabilistic join)",
        headers=[
            "regime", "bodies", "mono makespan s", "sharded makespan s",
            "speedup", "mono KB", "sharded KB", "rows",
        ],
    )

    def run(fed, sql):
        fed.network.metrics.reset()
        start = fed.network.clock.now
        result = fed.portal.submit(sql)
        assert not result.degraded and not result.warnings
        return (
            fed.network.clock.now - start,
            fed.network.metrics.total_bytes() / 1024.0,
            list(result.rows),
        )

    def sql_for(radius, dec=-0.5):
        return (
            "SELECT O.object_id, T.obj_id "
            "FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T "
            f"WHERE AREA(185.0, {dec!r}, {radius}) AND XMATCH(O, T) < 3.5"
        )

    def arm(label, bodies, mono, sharded, sql):
        mono_s, mono_kb, mono_rows = run(mono, sql)
        shard_s, shard_kb, shard_rows = run(sharded, sql)
        assert shard_rows == mono_rows, "sharded answer diverged from twin"
        report.add_row(
            label, bodies, round(mono_s, 3), round(shard_s, 3),
            round(mono_s / shard_s, 2), round(mono_kb, 1),
            round(shard_kb, 1), len(mono_rows),
        )

    def twin_pair(n_bodies, **net):
        mono = build_federation(
            FederationConfig(n_bodies=n_bodies, seed=42, **net)
        )
        sharded = build_federation(
            FederationConfig(n_bodies=n_bodies, seed=42, shards=shards, **net)
        )
        return mono, sharded

    sql = sql_for(radius_arcsec)
    for n_bodies in body_counts:
        mono, sharded = twin_pair(n_bodies, **cluster)
        arm("cluster link", n_bodies, mono, sharded, sql)
    # A small AREA a quarter degree inside the first stripe — farther
    # from the cut than seed pruning's trixel pad: one partition chain.
    cut = sharded.portal.catalog.node("SDSS").shard_set.members[1]
    narrow = sql_for(120.0, dec=cut.ownership.dec_interval()[0] - 0.25)
    assert len(sharded.portal.explain(narrow)["partitions"]) == 1
    arm("single-shard AREA", "(reuse)", mono, sharded, narrow)

    # What a stripe's margin costs: the copies each archive's shards keep
    # beside the rows they own, as measured on the largest federation.
    margins = []
    for archive, nodes in sharded.shards.items():
        table = sharded.nodes[archive].info.primary_table
        owned = sum(len(node.db.table(table)) for node in nodes)
        copies = sum(len(node.db.table(margin_table(table))) for node in nodes)
        margins.append(f"{archive} +{copies} on {owned} rows")

    wan = body_counts[0]
    mono, sharded = twin_pair(wan, processing_seconds_per_row=2e-4)
    arm("wan link", wan, mono, sharded, sql)

    report.note(
        "Makespan is the simulated clock delta across the submission (the "
        "stripes' chains are the branches of one network.parallel region), "
        "not summed transfer work. Wire bytes are per query and higher "
        "sharded in every arm: the stripes ship the monolithic chain's "
        "tuples plus each tuple's seed order key, and one set of chain "
        "envelopes and count probes per stripe — an excess that shrinks "
        "as the tables grow."
    )
    report.note(
        f"Margin cost at {body_counts[-1]} bodies, {shards} stripes: "
        + "; ".join(margins)
        + " (a 30 arcsec copy either side of each cut, staged in the same "
        "per-archive 2PC as the owned rows). A query whose reach exceeds "
        "the margin runs on the archives' full copies instead."
    )
    report.note(
        "Winning regime: compute-bound scans, growing with table size, on "
        "cluster and WAN links alike — each stripe's chain moves its share "
        "of the tuples over links of its own. Losing regime measured above: "
        "an AREA inside one stripe runs one partition chain — nothing to "
        "parallelize, only the extra bytes."
    )
    report.note(
        "Integrity bar: every arm asserts the sharded rows byte-equal "
        "the monolithic twin's before timing counts."
    )
    return report
