"""E7 — Section 6: SOAP (de)serialization overhead vs binary middleware."""

import random

from repro.bench import run_e7_soap_overhead
from repro.soap.encoding import WireRowSet, encode_binary_rowset
from repro.soap.envelope import build_rpc_response, parse_rpc_response


def _rowset(n_rows=1000):
    rng = random.Random(3)
    return WireRowSet(
        [("object_id", "int"), ("ra", "double"), ("dec", "double"),
         ("type", "string")],
        [
            (i, rng.uniform(0, 360), rng.uniform(-90, 90),
             rng.choice(["GALAXY", "STAR", "QSO"]))
            for i in range(n_rows)
        ],
    )


def test_e7_report(benchmark, report_sink):
    report = report_sink(run_e7_soap_overhead(row_counts=(100, 1000, 5000)))
    # Shape check: binary is smaller and faster at every size, and the
    # columnar XML every rowset ships in sits between it and the row form.
    for n_rows in (100, 1000, 5000):
        rows = {row[1]: row for row in report.rows if row[0] == n_rows}
        assert rows["binary"][2] < rows["SOAP/XML"][2]  # bytes
        assert rows["binary"][6] < 1.0  # time ratio < 1
        colset = rows["SOAP/XML colset"]
        assert rows["binary"][2] < colset[2] < rows["SOAP/XML"][2]
        assert colset[6] < 1.0

    rowset = _rowset()
    benchmark(lambda: build_rpc_response("Q", rowset))


def test_e7_xml_decode(benchmark):
    doc = build_rpc_response("Q", _rowset())
    benchmark(lambda: parse_rpc_response(doc))


def test_e7_binary_encode(benchmark):
    rowset = _rowset()
    benchmark(lambda: encode_binary_rowset(rowset))
