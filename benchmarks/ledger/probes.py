"""Layer probes: direct timed calls into single layers, outside any workload.

Each probe is the median of ``REPEATS`` timed runs (after one untimed run)
of one public function on inputs taken from a small probe federation built
from ``--seed``: the partial tuples of its whole-field SDSS x TWOMASS match
as a tuple rowset, that query's SQL, the tuples' search caps, and the SDSS
table. The numbers do not depend on the workload; the traced run of every
workload reports them so a change to one layer shows without a trace.

README.md "Layer probes" says which end-to-end metric each should move.
"""

from __future__ import annotations

import statistics
import time
from types import SimpleNamespace
from typing import Callable, Dict, Tuple

import numpy as np

from repro import FederationConfig, build_federation
from repro.db.engine import Database
from repro.db.indexes import batch_spatial_probe, batch_zone_probe
from repro.db.schema import Column
from repro.db.table import SpatialSpec
from repro.db.types import ColumnType
from repro.htm.batch import batch_cap_covers
from repro.htm.cover import cover
from repro.portal.decompose import decompose
from repro.shard import plan_zone_ownership
from repro.shard.merge import merge_match_lists
from repro.shard.ownership import members_for_tuple
from repro.skynode.xmatch_proc import PROCEDURE_NAME
from repro.soap.encoding import ColumnarRowSet, encode_binary_rowset, encode_value
from repro.soap.envelope import (
    build_rpc_request,
    build_rpc_response,
    parse_rpc_call,
    parse_rpc_response,
)
from repro.soap.xmlparser import parse_xml
from repro.soap.xmlwriter import render
from repro.sphere.regions import Cap
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql
from repro.tracing.tracer import Tracer
from repro.transport.http import HttpRequest, HttpResponse
from repro.units import arcsec_to_rad
from repro.xmatch import LocalObject, run_chain
from repro.xmatch.kernel import (
    best_positions,
    extend_pairs,
    search_radii,
    stack_accumulators,
)
from repro.xmatch.wire import rowset_to_tuples, tuples_to_rowset
from repro.zone.index import ZoneArrays, cap_windows, unit_vectors_to_radec

from workloads import FIELD_DEC, FIELD_RA, FIELD_RADIUS, THRESHOLD, make_query

REPEATS = 5
PROBE_BODIES = 1500


def _time(fn: Callable[..., object], loops: int = 1, setup=None) -> float:
    """Median seconds of one ``fn()`` over ``REPEATS`` runs of ``loops``.

    With ``setup``, each run first builds a fresh argument for ``fn``
    outside the timer (for calls that consume or cache their input).
    """
    samples = []
    for run in range(REPEATS + 1):
        args = (setup(),) if setup is not None else ()
        start = time.perf_counter()
        for _ in range(loops):
            fn(*args)
        if run:  # the first run is the warm-up
            samples.append((time.perf_counter() - start) / loops)
    return statistics.median(samples)


def _objects(node) -> Tuple[list, float]:
    table = node.db.table(node.info.primary_table)
    id_index = table.schema.column_index(node.info.object_id_column)
    objects = [
        LocalObject(table.row(pos)[id_index], table.position_of(pos))
        for pos in range(len(table))
    ]
    return objects, arcsec_to_rad(node.info.sigma_arcsec)


def run_probes(seed: int) -> Dict[str, Tuple[float, str]]:
    """Every probe metric, by name, as ``(value, unit)``."""
    fed = build_federation(
        FederationConfig(n_bodies=PROBE_BODIES, seed=seed, tracing=False, cache=True)
    )
    sdss, twomass = fed.nodes["SDSS"], fed.nodes["TWOMASS"]
    sdss_table = sdss.db.table(sdss.info.primary_table)
    t_objects, t_sigma = _objects(twomass)
    o_objects, o_sigma = _objects(sdss)
    out: Dict[str, Tuple[float, str]] = {}

    # -- xmatch: the chain that produces the probe inputs ---------------------
    chain = [("T", t_objects, t_sigma, False), ("O", o_objects, o_sigma, False)]
    out["xmatch.run_chain_zone_ms"] = (
        _time(lambda: run_chain(chain, THRESHOLD, engine="zone")) * 1e3,
        "ms",
    )
    tuples = run_chain(chain, THRESHOLD, engine="zone")
    seeds = run_chain(chain[:1], THRESHOLD)
    n_tuples, n_seeds = len(tuples), len(seeds)
    rowset = tuples_to_rowset(tuples, ["T", "O"], [])
    out["xmatch.wire_us_per_tuple"] = (
        _time(
            lambda: rowset_to_tuples(
                tuples_to_rowset(tuples, ["T", "O"], []), ["T", "O"], []
            )
        )
        * 1e6
        / n_tuples,
        "us",
    )
    a, avec = stack_accumulators(seeds)
    centers = best_positions(a, avec)
    radii = search_radii(a, o_sigma, THRESHOLD)
    pairs = 200_000
    index = np.arange(pairs) % n_seeds
    out["xmatch.extend_pairs_ns_per_pair"] = (
        _time(lambda: extend_pairs(a[index], avec[index], centers[index], o_sigma))
        * 1e9
        / pairs,
        "ns",
    )

    # -- soap -------------------------------------------------------------------
    n_rows = len(rowset)
    for form, payload in (("rowset", rowset), ("colset", ColumnarRowSet(rowset))):
        xml = build_rpc_response("Probe", payload)
        out[f"soap.{form}_encode_us_per_row"] = (
            _time(lambda: build_rpc_response("Probe", payload)) * 1e6 / n_rows,
            "us",
        )
        out[f"soap.{form}_decode_us_per_row"] = (
            _time(lambda: parse_rpc_response(xml)) * 1e6 / n_rows,
            "us",
        )
        out[f"soap.{form}_bytes_per_row"] = (len(xml.encode("utf-8")) / n_rows, "bytes")
    out["soap.binary_bytes_per_row"] = (len(encode_binary_rowset(rowset)) / n_rows, "bytes")
    xml = build_rpc_response("Probe", rowset)
    tree = encode_value("result", rowset)
    megabytes = len(xml.encode("utf-8")) / 1e6
    out["soap.parse_mb_per_s"] = (megabytes / _time(lambda: parse_xml(xml)), "MB/s")
    out["soap.render_mb_per_s"] = (
        len(render(tree).encode("utf-8")) / 1e6 / _time(lambda: render(tree)),
        "MB/s",
    )

    def envelope_roundtrip():
        parse_rpc_call(build_rpc_request("IsAlive", {"archive": "SDSS", "n": 1}))
        parse_rpc_response(build_rpc_response("IsAlive", True))

    out["soap.envelope_roundtrip_us"] = (_time(envelope_roundtrip, 200) * 1e6, "us")

    # -- transport, tracing -----------------------------------------------------
    network = fed.network
    network.add_host("probe.skyquery.net", lambda request: HttpResponse(200, body=b"ok"))
    request = HttpRequest("POST", "http://probe.skyquery.net/probe", body=b"x" * 512)
    out["transport.request_overhead_us"] = (
        _time(lambda: network.request("client.skyquery.net", request), 200) * 1e6,
        "us",
    )

    def spans():
        tracer = Tracer()
        for _ in range(200):
            with tracer.span("probe", host="probe"):
                pass

    out["tracing.span_overhead_us"] = (_time(spans) * 1e6 / 200, "us")

    # -- sql, portal ------------------------------------------------------------
    cone = make_query(("SDSS", "TWOMASS"), FIELD_RA, FIELD_DEC, 120.0)
    query = parse_query(cone.sql)
    out["sql.parse_us"] = (_time(lambda: parse_query(cone.sql), 50) * 1e6, "us")
    out["sql.print_us"] = (_time(lambda: to_sql(query), 50) * 1e6, "us")
    out["portal.decompose_us"] = (
        _time(lambda: decompose(query, fed.portal.catalog), 50) * 1e6,
        "us",
    )
    fed.portal.submit(cone.sql)
    out["portal.cache_lookup_us"] = (
        _time(lambda: fed.portal.submit(cone.sql), 50) * 1e6,
        "us",
    )

    # -- htm, zone, db, skynode -------------------------------------------------
    depth = sdss_table.spatial.htm_depth
    caps = [
        Cap(tuple(float(v) for v in centers[i]), float(radii[i])) for i in range(n_seeds)
    ]
    area = Cap.from_radec(FIELD_RA, FIELD_DEC, FIELD_RADIUS)
    out["htm.cap_cover_us_per_cap"] = (
        _time(lambda: batch_cap_covers(caps, depth)) * 1e6 / n_seeds,
        "us",
    )
    out["htm.area_cover_us"] = (_time(lambda: cover(area, depth)) * 1e6, "us")
    out["db.htm_probe_us_per_tuple"] = (
        _time(lambda: batch_spatial_probe(sdss_table, caps)) * 1e6 / n_seeds,
        "us",
    )
    ra_c, dec_c = unit_vectors_to_radec(centers)
    out["zone.window_us_per_cap"] = (
        _time(lambda: cap_windows(ra_c, dec_c, radii), 20) * 1e6 / n_seeds,
        "us",
    )
    out["db.zone_probe_us_per_tuple"] = (
        _time(lambda: batch_zone_probe(sdss_table, centers, radii)) * 1e6 / n_seeds,
        "us",
    )
    temp = sdss.db.create_temp_table(
        "ledger_probe",
        [Column("seq", ColumnType.INT, nullable=False)]
        + [Column(name, ColumnType.FLOAT, nullable=False) for name in ("a", "ax", "ay", "az")],
    )
    for seq, partial in enumerate(seeds):
        acc = partial.acc
        temp.insert((seq, acc.a, acc.ax, acc.ay, acc.az))
    for engine in ("htm", "zone"):
        out[f"skynode.sp_xmatch_{engine}_us_per_tuple"] = (
            _time(
                lambda: sdss.db.call_procedure(
                    PROCEDURE_NAME,
                    temp_table=temp.name,
                    primary_table=sdss.info.primary_table,
                    id_column=sdss.info.object_id_column,
                    ra_column=sdss.info.ra_column,
                    dec_column=sdss.info.dec_column,
                    alias="O",
                    sigma_arcsec=sdss.info.sigma_arcsec,
                    threshold=THRESHOLD,
                    engine=engine,
                )
            )
            * 1e6
            / n_seeds,
            "us",
        )
    sdss.db.drop_table(temp.name)
    count_sql = (
        f"SELECT COUNT(*) FROM {sdss.info.primary_table} O "
        f"WHERE AREA({FIELD_RA}, {FIELD_DEC}, 120.0)"
    )
    out["db.count_star_ms"] = (_time(lambda: sdss.db.execute(count_sql), 20) * 1e3, "ms")

    # -- db writes: what a commit and the first read after it pay ---------------
    columns = list(sdss_table.schema.columns)
    rows = [tuple(sdss_table.row(pos)) for pos in range(len(sdss_table))]
    ra_index = sdss_table.schema.column_index(sdss.info.ra_column)
    dec_index = sdss_table.schema.column_index(sdss.info.dec_column)
    ra = np.array([row[ra_index] for row in rows])
    dec = np.array([row[dec_index] for row in rows])

    def fresh_table():
        db = Database("probe")
        table = db.create_table(
            "objects",
            columns,
            spatial=SpatialSpec(sdss.info.ra_column, sdss.info.dec_column, htm_depth=depth),
        )
        table.insert_many(rows)
        return table

    out["db.insert_us_per_row"] = (_time(fresh_table) * 1e6 / len(rows), "us")

    out["db.htm_index_build_ms"] = (
        _time(lambda table: table.spatial_arrays(), setup=fresh_table) * 1e3,
        "ms",
    )
    out["db.zone_index_build_ms"] = (_time(lambda: ZoneArrays.build(ra, dec)) * 1e3, "ms")

    # -- shard ------------------------------------------------------------------
    gathered = [(seq % n_seeds, pos, seq) for pos, seq in enumerate(range(n_rows * 2))]
    out["shard.merge_us_per_row"] = (
        _time(lambda: merge_match_lists(gathered)) * 1e6 / len(gathered),
        "us",
    )
    members = [
        SimpleNamespace(ownership=ownership)
        for ownership in plan_zone_ownership(dec.tolist(), 2, htm_depth=depth)
    ]
    dec_list, radius_deg = dec_c.tolist(), float(np.degrees(radii[0]))
    out["shard.route_us_per_tuple"] = (
        _time(lambda: [members_for_tuple(members, d, radius_deg) for d in dec_list])
        * 1e6
        / n_seeds,
        "us",
    )
    return out
