"""The per-cell colset codec, kept as the reference the column-wise codec
in :mod:`repro.soap.encoding` is checked against.

This is the codec as it first shipped: one Python-level pass per cell on
encode (type check, token) and one on decode, rows rebuilt one generator
per row. A double column is the one form that changed since: one
``struct.pack('<d')`` per present cell, base64'd whole, plus a NULL bitmap
(bit ``i``, least significant first, set for a NULL in row ``i``) built a
bit at a time when the column holds NULLs.
``tests/test_soap_codec_oracle.py`` requires the production encoder to be
byte-identical to :func:`encode_colset` and its decoder to round-trip what
this one round-trips.
"""

from __future__ import annotations

import base64
import struct
from typing import Any, Dict, List, Tuple

from repro.errors import SoapError
from repro.soap.encoding import WireRowSet, typecode_of
from repro.soap.xmlwriter import Element

NIL_TOKEN = "_"


def check_cell(value: Any, col_name: str, code: str) -> None:
    """The reference type check: a cell must carry its column's typecode
    (ints are accepted in double columns, bools are not ints)."""
    if typecode_of(value) != code and not (
        code == "double"
        and isinstance(value, int)
        and not isinstance(value, bool)
    ):
        raise SoapError(
            f"value {value!r} does not match column {col_name!r} type {code!r}"
        )


def encode_colset(name: str, rowset: WireRowSet) -> Element:
    """The reference encoder."""
    node = Element(name, {"xsi:type": "colset", "rows": str(len(rowset.rows))})
    schema = node.child("schema")
    for col_name, code in rowset.columns:
        schema.child("col", name=col_name, type=code)
    for row in rowset.rows:
        if len(row) != len(rowset.columns):
            raise SoapError(
                f"row width {len(row)} does not match schema "
                f"width {len(rowset.columns)}"
            )
    cols = node.child("cols")
    for i, (col_name, code) in enumerate(rowset.columns):
        values = [row[i] for row in rowset.rows]
        col_el = cols.child("col")
        tokens: List[str] = []
        if code == "string":
            index: Dict[str, int] = {}
            entries: List[str] = []
            for value in values:
                if value is None:
                    tokens.append(NIL_TOKEN)
                    continue
                check_cell(value, col_name, code)
                slot = index.get(value)
                if slot is None:
                    slot = len(entries)
                    index[value] = slot
                    entries.append(value)
                tokens.append(str(slot))
            if entries:
                dict_el = col_el.child("dict")
                for entry in entries:
                    dict_el.child("v", text=entry)
        elif code == "int":
            prev = 0
            for value in values:
                if value is None:
                    tokens.append(NIL_TOKEN)
                    continue
                check_cell(value, col_name, code)
                tokens.append(str(value - prev))
                prev = value
        elif code == "boolean":
            for value in values:
                if value is None:
                    tokens.append(NIL_TOKEN)
                    continue
                check_cell(value, col_name, code)
                tokens.append("t" if value else "f")
        else:  # double
            packed = bytearray()
            bitmap = bytearray((len(values) + 7) // 8)
            for i, value in enumerate(values):
                if value is None:
                    bitmap[i // 8] |= 1 << (i % 8)
                    continue
                check_cell(value, col_name, code)
                packed += struct.pack("<d", float(value))
            if any(value is None for value in values):
                col_el.child("nulls", text=base64.b64encode(bitmap).decode())
            col_el.child("data", text=base64.b64encode(packed).decode())
            continue
        col_el.child("data", text=" ".join(tokens))
    return node


def decode_colset(node: Element) -> WireRowSet:
    """The reference decoder."""
    schema = node.require("schema")
    columns: List[Tuple[str, str]] = []
    for col in schema.find_all("col"):
        col_name = col.get("name")
        code = col.get("type")
        if col_name is None or code is None:
            raise SoapError("colset schema column missing name/type")
        columns.append((col_name, code))
    n_rows = int(node.get("rows") or "0")
    col_elements = node.require("cols").find_all("col")
    if len(col_elements) != len(columns):
        raise SoapError("colset column count does not match its schema")
    decoded_columns: List[List[Any]] = []
    for col_el, (col_name, code) in zip(col_elements, columns):
        if code == "double":
            packed = base64.b64decode(col_el.require("data").text)
            nulls_el = col_el.find("nulls")
            bitmap = (
                base64.b64decode(nulls_el.text) if nulls_el is not None else b""
            )
            present = iter(struct.unpack(f"<{len(packed) // 8}d", packed))
            decoded_columns.append([
                None if bitmap and bitmap[r // 8] >> (r % 8) & 1
                else next(present)
                for r in range(n_rows)
            ])
            continue
        tokens = col_el.require("data").text.split()
        if len(tokens) != n_rows:
            raise SoapError(f"colset column {col_name!r} has the wrong length")
        values: List[Any] = []
        if code == "string":
            dict_el = col_el.find("dict")
            entries = (
                [kid.text for kid in dict_el.find_all("v")]
                if dict_el is not None
                else []
            )
            for token in tokens:
                values.append(None if token == NIL_TOKEN else entries[int(token)])
        elif code == "int":
            prev = 0
            for token in tokens:
                if token == NIL_TOKEN:
                    values.append(None)
                    continue
                prev += int(token)
                values.append(prev)
        else:  # boolean
            values = [
                None if token == NIL_TOKEN else token == "t" for token in tokens
            ]
        decoded_columns.append(values)
    rowset = WireRowSet(columns)
    rowset.rows = [
        tuple(decoded_columns[c][r] for c in range(len(columns)))
        for r in range(n_rows)
    ]
    return rowset
