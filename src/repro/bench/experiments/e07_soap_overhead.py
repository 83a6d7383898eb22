"""E7 — Section 6: SOAP (de)serialization overhead vs binary middleware."""

from __future__ import annotations

import random
from typing import Sequence

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport, best_of
from repro.soap.encoding import (
    ColumnarRowSet,
    WireRowSet,
    decode_binary_rowset,
    encode_binary_rowset,
)
from repro.soap.envelope import build_rpc_response, parse_rpc_response


def run(*, row_counts: Sequence[int], repeats: int) -> ExperimentReport:
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

        def timed(fn):
            value, seconds = best_of(fn, repeats)
            return value, seconds * 1000.0

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


def check(report: ExperimentReport, quick: bool) -> None:
    # Binary is smaller and faster at every size, and the columnar XML
    # every rowset ships in sits between it and the row form.
    for n_rows in sorted({row[0] for row in report.rows}):
        rows = {row[1]: row for row in report.rows if row[0] == n_rows}
        assert rows["binary"][2] < rows["SOAP/XML"][2]  # bytes
        assert rows["binary"][6] < 1.0  # time ratio < 1
        colset = rows["SOAP/XML colset"]
        assert rows["binary"][2] < colset[2] < rows["SOAP/XML"][2]
        assert colset[6] < 1.0


EXPERIMENT = Experiment(
    exp_id="E7",
    claim="§6: SOAP slower/bulkier than binary middleware",
    shape="row-XML bytes and (de)serialization time >> binary; the columnar "
    "XML every rowset now ships in sits between the two",
    run=run,
    check=check,
    full=dict(row_counts=(100, 1000, 5000), repeats=3),
    quick={},
)
