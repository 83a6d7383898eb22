"""E7 — Section 6: SOAP (de)serialization overhead vs binary middleware."""

from __future__ import annotations

import random
import struct
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.bench.registry import Experiment
from repro.bench.reporting import ExperimentReport, best_of
from repro.soap.encoding import (
    ColumnarRowSet,
    WireRowSet,
    decode_binary_rowset,
    encode_binary_rowset,
)
from repro.soap.envelope import build_rpc_response, parse_rpc_response

#: Column typecodes of the binary arm, by their wire index.
_CODES = ("int", "double", "string", "boolean")
_FIXED = {"int": "q", "double": "d", "boolean": "?"}


def encode_binary_columns(rowset: WireRowSet) -> bytes:
    """The CORBA-style arm: column-major raw little-endian arrays.

    A header (column count, row count, each column's name and typecode),
    then per column a NULL bitmap (bit ``i``, least significant first, set
    for a NULL in row ``i``) and its present values: one packed array of
    ``int64``, ``float64`` or byte booleans, or length-prefixed UTF-8
    strings — what a ``sequence<double>`` and its kin ship.
    """
    out = bytearray(struct.pack("<II", len(rowset.columns), len(rowset.rows)))
    for name, code in rowset.columns:
        raw = name.encode("utf-8")
        out += struct.pack("<HB", len(raw), _CODES.index(code)) + raw
    columns = list(zip(*rowset.rows)) or [()] * len(rowset.columns)
    for values, (_, code) in zip(columns, rowset.columns):
        out += np.packbits(
            [value is None for value in values], bitorder="little"
        ).tobytes()
        present = [value for value in values if value is not None]
        if code in _FIXED:
            out += struct.pack(f"<{len(present)}{_FIXED[code]}", *present)
        else:
            for value in present:
                raw = value.encode("utf-8")
                out += struct.pack("<I", len(raw)) + raw
    return bytes(out)


def decode_binary_columns(blob: bytes) -> WireRowSet:
    """Decode :func:`encode_binary_columns` output."""
    n_cols, n_rows = struct.unpack_from("<II", blob, 0)
    pos = 8
    columns: List[Tuple[str, str]] = []
    for _ in range(n_cols):
        length, code = struct.unpack_from("<HB", blob, pos)
        columns.append((blob[pos + 3:pos + 3 + length].decode("utf-8"),
                        _CODES[code]))
        pos += 3 + length
    decoded: List[List[Any]] = []
    for _, code in columns:
        width = (n_rows + 7) // 8
        nulls = np.unpackbits(
            np.frombuffer(blob, np.uint8, width, pos), bitorder="little"
        )[:n_rows].tolist()
        pos += width
        count = n_rows - sum(nulls)
        if code in _FIXED:
            fmt = f"<{count}{_FIXED[code]}"
            present = iter(struct.unpack_from(fmt, blob, pos))
            pos += struct.calcsize(fmt)
        else:
            strings = []
            for _ in range(count):
                (length,) = struct.unpack_from("<I", blob, pos)
                strings.append(blob[pos + 4:pos + 4 + length].decode("utf-8"))
                pos += 4 + length
            present = iter(strings)
        decoded.append([None if null else next(present) for null in nulls])
    return WireRowSet(columns, list(zip(*decoded)))


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
        blob, bin_enc = timed(lambda: encode_binary_columns(rowset))
        back, bin_dec = timed(lambda: decode_binary_columns(blob))
        assert back.rows == rowset.rows
        cells, cell_enc = timed(lambda: encode_binary_rowset(rowset))
        _, cell_dec = timed(lambda: decode_binary_rowset(cells))
        for codec, size, enc, dec in (
            ("SOAP/XML colset", len(col_doc.encode("utf-8")), col_enc,
             col_dec),
            ("binary", len(blob), bin_enc, bin_dec),
            ("binary row-major", len(cells), cell_enc, cell_dec),
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
        "'binary' is column-major (raw arrays and a NULL bitmap, what a "
        "CORBA sequence ships); 'binary row-major' is the codec the "
        "ledger's probes time, a presence byte and a struct.pack per cell."
    )
    largest = {row[1]: row for row in report.rows if row[0] == n_rows}
    colset, binary = largest["SOAP/XML colset"], largest["binary"]
    time_ratio = (colset[3] + colset[4]) / (binary[3] + binary[4])
    report.note(
        "The columnar colset — still XML, still self-describing: one "
        "element per column, delta-coded ints, dictionary-coded strings, "
        "doubles as base64 float64 — is the form every rowset the "
        "federation sends travels in; the row form survives as this "
        "experiment's paper arm. It recovers that overhead without leaving "
        "SOAP. Against the column-major binary arm (raw arrays and a NULL "
        "bitmap, what a CORBA sequence ships) a double costs base64's 4/3 "
        "of its 8 bytes, while an id or a type string costs less than the "
        "binary arm's 8-byte int and length-prefixed string: at "
        f"{n_rows} rows the colset is {colset[2] / binary[2]:.2f}x the "
        f"binary bytes and {time_ratio:.2f}x "
        "its (de)serialization time in this pure-Python codec."
    )
    return report


def check(report: ExperimentReport, quick: bool) -> None:
    # Binary is smaller and faster than the paper's row form at every size,
    # and so is the columnar XML every rowset ships in. Its bytes are below
    # the row-major binary codec's and within 5% of the column-major
    # arm's (measured 0.88x-1.03x: base64 doubles cost 4/3, delta ids and
    # dictionary strings win it back).
    for n_rows in sorted({row[0] for row in report.rows}):
        rows = {row[1]: row for row in report.rows if row[0] == n_rows}
        assert rows["binary"][2] < rows["SOAP/XML"][2]  # bytes
        assert rows["binary"][6] < 1.0  # time ratio < 1
        colset = rows["SOAP/XML colset"]
        assert colset[2] < rows["SOAP/XML"][2]
        assert colset[2] < rows["binary row-major"][2]
        assert colset[2] <= 1.05 * rows["binary"][2]
        assert colset[6] < 1.0


EXPERIMENT = Experiment(
    exp_id="E7",
    claim="§6: SOAP slower/bulkier than binary middleware",
    shape="row-XML bytes and (de)serialization time >> binary; the columnar "
    "XML every rowset now ships in is far below the row form, below the "
    "row-major binary bytes and within 5% of the column-major binary's",
    run=run,
    check=check,
    full=dict(row_counts=(100, 1000, 5000), repeats=3),
    quick={},
)
