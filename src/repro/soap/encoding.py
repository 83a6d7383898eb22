"""Typed SOAP value encoding, plus the rowset transfer format.

Values cross the wire as XML elements carrying an ``xsi:type`` attribute
(int, double, string, boolean), with structs as nested elements, arrays as
repeated ``<item>`` elements, and tabular data as a ``<RowSet>``: a schema
header followed by ``<r><c>...</c></r>`` rows. This mirrors how the .NET
SOAP stack of the prototype shipped ADO datasets between SkyNodes.

A binary codec (:func:`encode_binary_rowset`) provides the CORBA-style
comparison point for the serialization-overhead experiment (paper Section 6
notes SOAP "is considered to be slower than other middleware, like, CORBA,
because of the time spent for serialization and de-serialization").

:class:`ColumnarRowSet` selects the compact column-major XML form
(``colset``): one element per column, with delta-encoded ints and
dictionary-encoded strings as packed token streams, and doubles as the
``base64Binary`` of their little-endian float64 bytes (the form SOAP 1.1
§5.2.3 gives byte arrays), so a double costs no decimal text either way.
Decoding a colset yields a plain :class:`WireRowSet`, so only senders opt
in — and every rowset the federation's services send opts in. A sender
that may ship the same batch again keeps it as an :class:`EncodedColset`,
encoded once. The row form stays the encoder's default for a bare
:class:`WireRowSet`: it is the paper's form, the "paper" arm of the
serialization experiment (E7).

Every decode failure — a missing element, a non-numeric token, an
out-of-range dictionary index, base64 of the wrong length or alphabet, a
row count the columns do not carry — is a
:class:`~repro.errors.SoapError`, so a service answers a malformed request
with a ``soap:Client`` fault instead of a traceback.
"""

from __future__ import annotations

import base64
import binascii
import functools
import struct
import sys
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import sub
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import SoapError, XMLSyntaxError
from repro.soap.xmlparser import parse_xml
from repro.soap.xmlwriter import (
    Element,
    Markup,
    check_xml_chars,
    render_content,
)

_TYPE_CODES = ("int", "double", "string", "boolean")


@dataclass
class WireRowSet:
    """Tabular payload: (name, typecode) columns and value rows.

    Typecodes are ``int | double | string | boolean``. ``None`` cells are
    allowed in any column and travel as ``nil`` markers.
    """

    columns: List[Tuple[str, str]]
    rows: List[Tuple[Any, ...]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name, code in self.columns:
            if code not in _TYPE_CODES:
                raise SoapError(f"unknown rowset typecode {code!r} for {name!r}")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def column_names(self) -> List[str]:
        """Column names in order."""
        return [name for name, _ in self.columns]

    def slice(self, start: int, stop: int) -> "WireRowSet":
        """A rowset with the same schema and a row subrange (for chunking)."""
        return WireRowSet(list(self.columns), self.rows[start:stop])

    @classmethod
    def concat(cls, parts: Sequence["WireRowSet"]) -> "WireRowSet":
        """Reassemble chunks; schemas must agree."""
        if not parts:
            raise SoapError("cannot concatenate zero rowset chunks")
        first = parts[0]
        for part in parts[1:]:
            if part.columns != first.columns:
                raise SoapError("rowset chunks have mismatched schemas")
        rows: List[Tuple[Any, ...]] = []
        for part in parts:
            rows.extend(part.rows)
        return cls(list(first.columns), rows)


@dataclass
class ColumnarRowSet:
    """A rowset marked for the compact column-major wire form (``colset``).

    Semantically identical to the wrapped :class:`WireRowSet`; only the
    XML shape differs. Instead of ``<r><c>`` per cell, each column travels
    as one ``<data>`` element. Int columns are delta-encoded token streams
    (first value raw, then successive differences), string columns are
    dictionary-encoded (unique values once as child elements, then integer
    indexes), booleans are ``t``/``f`` tokens; ``None`` cells use the ``_``
    sentinel in those streams. A double column is the base64 of its
    present values' little-endian float64 bytes, every bit kept; when it
    holds NULLs a ``<nulls>`` child carries a base64 bitmap, bit ``i``
    (least significant first) set for a NULL in row ``i``. Decoding yields
    a plain :class:`WireRowSet` again, so receivers are agnostic to which
    form the sender chose.
    """

    rowset: WireRowSet

    def __len__(self) -> int:
        return len(self.rowset)

    @property
    def columns(self) -> List[Tuple[str, str]]:
        """The wrapped rowset's (name, typecode) schema."""
        return self.rowset.columns

    @property
    def column_names(self) -> List[str]:
        """Column names in order."""
        return self.rowset.column_names

    @property
    def rows(self) -> List[Tuple[Any, ...]]:
        """The wrapped rowset's rows."""
        return self.rowset.rows

    def slice(self, start: int, stop: int) -> "ColumnarRowSet":
        """A columnar view of a row subrange (for chunking)."""
        return ColumnarRowSet(self.rowset.slice(start, stop))


@dataclass(frozen=True, slots=True)
class EncodedColset:
    """A colset encoded once, kept as the XML it travels as.

    A sender that may ship the same rows again (a hop's checkpoint, a
    chunked transfer's chunks) keeps this instead of the rows: serving it
    again costs no encoding, and it holds about its wire size.
    """

    rows: int
    #: The colset element's content (schema and column streams), rendered.
    markup: str

    def __len__(self) -> int:
        return self.rows


def seal(payload: Any) -> Any:
    """``payload`` as it is kept for the wire: a :class:`ColumnarRowSet`
    encoded once as an :class:`EncodedColset` (a :class:`SoapError` if it
    cannot travel), anything else as it is."""
    if isinstance(payload, ColumnarRowSet):
        node = _encode_colset("colset", payload.rowset)
        return EncodedColset(len(payload), render_content(node))
    return payload


def typecode_of(value: Any) -> str:
    """The wire typecode of a python scalar."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "double"
    if isinstance(value, str):
        return "string"
    raise SoapError(f"cannot encode value of type {type(value).__name__}")


@functools.lru_cache(maxsize=1024)
def _is_ncname(name: str) -> bool:
    """True when ``name`` can be a struct key's tag: an XML NCName.

    The receiver's parser decides: the name must parse, alone, as the tag
    of an empty element (XML 1.0's Name production, in expat's 4th edition
    tables), and hold no ``:``, which would read back as a prefix. Cached:
    the same few keys repeat on every message.
    """
    try:
        tag = parse_xml(f"<{name}/>").tag
    except XMLSyntaxError:
        return False
    return tag == name and ":" not in name


def encode_value(name: str, value: Any) -> Element:
    """Encode a python value (scalar, list, dict, WireRowSet) as an element."""
    if value is None:
        return Element(name, {"xsi:nil": "true"})
    if isinstance(value, EncodedColset):
        return Markup(name, _colset_attrib(value.rows), markup=value.markup)
    if isinstance(value, ColumnarRowSet):
        return _encode_colset(name, value.rowset)
    if isinstance(value, WireRowSet):
        return _encode_rowset(name, value)
    if isinstance(value, dict):
        node = Element(name, {"xsi:type": "struct"})
        for key, item in value.items():
            tag = str(key)
            if not _is_ncname(tag):
                raise SoapError(f"struct key {tag!r} is not an XML name")
            node.children.append(encode_value(tag, item))
        return node
    if isinstance(value, (list, tuple)):
        node = Element(name, {"xsi:type": "array"})
        for item in value:
            node.children.append(encode_value("item", item))
        return node
    code = typecode_of(value)
    text = _scalar_to_text(value)
    if code == "string":
        check_xml_chars(text, f"string {name!r}")
    return Element(name, {"xsi:type": code}, [], text)


def decode_value(node: Element) -> Any:
    """Decode an element produced by :func:`encode_value`."""
    if node.get("xsi:nil") == "true":
        return None
    xtype = node.get("xsi:type")
    if xtype == "struct":
        return {kid.local_name(): decode_value(kid) for kid in node.children}
    if xtype == "array":
        return [decode_value(kid) for kid in node.children]
    if xtype == "rowset" or node.local_name() == "RowSet":
        return _decode_rowset(node)
    if xtype == "colset":
        return _decode_colset(node)
    if xtype is None:
        # Untyped leaf: best-effort string (tolerant of foreign documents).
        return node.text
    return _text_to_scalar(node.text, xtype)


def _scalar_to_text(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _text_to_scalar(text: str, code: str) -> Any:
    if code in ("int", "double"):
        try:
            return int(text) if code == "int" else float(text)
        except ValueError:
            raise SoapError(f"bad {code} literal {text!r}") from None
    if code == "string":
        return text
    if code == "boolean":
        if text not in ("true", "false"):
            raise SoapError(f"bad boolean literal {text!r}")
        return text == "true"
    raise SoapError(f"unknown xsi:type {code!r}")


# -- rowset XML form ---------------------------------------------------------


def _encode_schema(node: Element, columns: List[Tuple[str, str]]) -> None:
    schema = node.child("schema")
    for col_name, code in columns:
        schema.child(
            "col", name=check_xml_chars(col_name, "a column name"), type=code
        )


def _encode_rowset(name: str, rowset: WireRowSet) -> Element:
    node = Element(name, {"xsi:type": "rowset", "rows": str(len(rowset.rows))})
    _encode_schema(node, rowset.columns)
    data = node.child("data")
    for row in rowset.rows:
        if len(row) != len(rowset.columns):
            raise SoapError(
                f"row width {len(row)} does not match schema "
                f"width {len(rowset.columns)}"
            )
        row_el = data.child("r")
        for value, (col_name, code) in zip(row, rowset.columns):
            if value is None:
                row_el.child("c", nil="true")
            else:
                _check_cell(value, col_name, code)
                text = _scalar_to_text(
                    float(value) if code == "double" else value
                )
                if code == "string":
                    check_xml_chars(text, f"a cell of column {col_name!r}")
                row_el.child("c", text=text)
    return node


def _schema_columns(node: Element, form: str) -> List[Tuple[str, str]]:
    columns: List[Tuple[str, str]] = []
    for col in node.require("schema").find_all("col"):
        col_name = col.get("name")
        code = col.get("type")
        if col_name is None or code is None:
            raise SoapError(f"{form} schema column missing name/type")
        columns.append((col_name, code))
    return columns


def _decode_rowset(node: Element) -> WireRowSet:
    rowset = WireRowSet(_schema_columns(node, "rowset"))
    columns = rowset.columns
    data = node.require("data")
    for row_el in data.find_all("r"):
        cells = row_el.find_all("c")
        if len(cells) != len(columns):
            raise SoapError(
                f"rowset row has {len(cells)} cells, schema has {len(columns)}"
            )
        row: List[Any] = []
        for cell, (_, code) in zip(cells, columns):
            if cell.get("nil") == "true":
                row.append(None)
            else:
                row.append(_text_to_scalar(cell.text, code))
        rowset.rows.append(tuple(row))
    return rowset


# -- columnar form ("colset"): one element per column --------------------------

#: Token marking a NULL cell in a packed token stream. Unambiguous: int
#: and index streams are decimal literals, booleans are ``t``/``f``.
_NIL_TOKEN = "_"
_BOOL_TOKENS = {True: "t", False: "f"}
_BOOL_VALUES = {"t": True, "f": False, _NIL_TOKEN: None}
_NONE_TYPE = type(None)


def _type_passes(kind: type, code: str) -> bool:
    """Whether a value of type ``kind`` may travel in a ``code`` column: its
    :func:`typecode_of` is ``code``, or it is an int (not a bool) in a
    double column. The rule depends on the type alone, so one test per
    distinct type validates a whole column."""
    if issubclass(kind, bool):
        return code == "boolean"
    if issubclass(kind, int):
        return code in ("int", "double")
    if issubclass(kind, float):
        return code == "double"
    return code == "string" and issubclass(kind, str)


def _check_cell(value: Any, col_name: str, code: str) -> None:
    if not _type_passes(type(value), code):
        raise SoapError(
            f"value {value!r} does not match column {col_name!r} type {code!r}"
        )


def _colset_attrib(rows: int) -> Dict[str, str]:
    return {"xsi:type": "colset", "rows": str(rows)}


def _b64(raw: bytes) -> str:
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


if sys.version_info >= (3, 11):

    def _unb64(text: str) -> bytes:
        """Strict base64: a ``binascii.Error`` (a ValueError) for any
        character outside the alphabet and for bad padding."""
        return binascii.a2b_base64(text, strict_mode=True)

else:  # a2b_base64's strict_mode is new in 3.11; b64decode is ~2x slower

    def _unb64(text: str) -> bytes:
        return base64.b64decode(text, validate=True)


def _encode_doubles(
    values: Sequence[Any], col_name: str, kinds: Set[type]
) -> Tuple[str, Optional[str]]:
    """One double column as (base64 of the present values' float64 bytes,
    base64 NULL bitmap or None when no cell is NULL).

    One ``struct.pack`` writes every value's bytes: it converts an int
    exactly as ``float()`` does, and one too large for a double, like a
    value of another type, is a :class:`SoapError`.
    """
    if not values:
        return "", None
    nulls = None
    if _NONE_TYPE in kinds:
        mask = [value is None for value in values]
        nulls = _b64(np.packbits(mask, bitorder="little").tobytes())
        values = [value for value in values if value is not None]
        kinds = kinds - {_NONE_TYPE}
    if not all(_type_passes(kind, "double") for kind in kinds):
        for value in values:
            _check_cell(value, col_name, "double")
    try:
        return _b64(struct.pack(f"<{len(values)}d", *values)), nulls
    except struct.error:  # the values passed the type check: an int overflows
        raise SoapError(
            f"an int in double column {col_name!r} does not fit a double"
        ) from None


def _encode_column(
    values: Sequence[Any], code: str, kinds: Set[type]
) -> Tuple[str, List[str]]:
    """One NULL-free, type-checked int, boolean or string column as (token
    stream, dictionary).

    Int columns are delta-encoded: the first value raw, then differences
    from the previous value (ids are near-sorted, so deltas are short).
    String columns are dictionary-encoded: unique values once (as child
    elements, so arbitrary text stays XML-safe), then integer indexes.
    """
    if code == "int":
        return " ".join(map(str, map(sub, values, chain((0,), values)))), []
    if code == "boolean":
        return " ".join(map(_BOOL_TOKENS.__getitem__, values)), []
    index: Dict[str, int] = {}
    slots = [index.setdefault(value, len(index)) for value in values]
    return " ".join(map(str, slots)), list(index)


def _encode_cells(
    values: Sequence[Any], col_name: str, code: str
) -> Tuple[str, List[str]]:
    """The per-cell path, for token columns that hold NULLs or a value of
    the wrong type: NULLs travel as the nil token (int deltas skip them),
    and the first bad value raises a :class:`SoapError` naming it."""
    tokens: List[str] = []
    index: Dict[str, int] = {}
    prev = 0
    for value in values:
        if value is None:
            tokens.append(_NIL_TOKEN)
            continue
        _check_cell(value, col_name, code)
        if code == "string":
            tokens.append(str(index.setdefault(value, len(index))))
        elif code == "int":
            tokens.append(str(value - prev))
            prev = value
        else:
            tokens.append(_BOOL_TOKENS[value])
    return " ".join(tokens), list(index)


def _encode_colset(name: str, rowset: WireRowSet) -> Element:
    columns, rows = rowset.columns, rowset.rows
    if set(map(len, rows)) - {len(columns)}:
        width = next(len(row) for row in rows if len(row) != len(columns))
        raise SoapError(
            f"row width {width} does not match schema width {len(columns)}"
        )
    if rows and not columns:
        raise SoapError(
            f"a colset with no columns cannot carry {len(rows)} rows"
        )
    node = Element(name, _colset_attrib(len(rows)))
    _encode_schema(node, columns)
    cols = node.child("cols")
    for values, (col_name, code) in zip(
        list(zip(*rows)) if rows else [()] * len(columns), columns
    ):
        kinds = set(map(type, values))
        col_el = cols.child("col")
        if code == "double":
            text, nulls = _encode_doubles(values, col_name, kinds)
            if nulls is not None:
                col_el.child("nulls", text=nulls)
            col_el.child("data", text=text)
            continue
        if all(_type_passes(kind, code) for kind in kinds):
            text, entries = _encode_column(values, code, kinds)
        else:
            text, entries = _encode_cells(values, col_name, code)
        if entries:
            check_xml_chars("".join(entries), f"a cell of column {col_name!r}")
            dict_el = col_el.child("dict")
            for entry in entries:
                dict_el.child("v", text=entry)
        col_el.child("data", text=text)
    return node


def _decode_doubles(
    col_el: Element, col_name: str, n_rows: int
) -> Sequence[Any]:
    """One double column: one ``struct.unpack`` over its base64 bytes,
    NULLs put back from the bitmap. Base64 that is malformed or of the
    wrong length, and a bitmap with bits set past ``n_rows``, are refused."""
    # Only a column holding NULLs has a child besides its <data>.
    nulls_el = col_el.find("nulls") if len(col_el.children) > 1 else None
    try:
        raw = _unb64(col_el.require("data").text)
        mask = None
        present = n_rows
        if nulls_el is not None:
            bits = _unb64(nulls_el.text)
            if len(bits) != (n_rows + 7) // 8:
                raise ValueError(f"a {len(bits)}-byte NULL bitmap")
            mask = np.unpackbits(
                np.frombuffer(bits, dtype=np.uint8), bitorder="little"
            )
            if mask[n_rows:].any():
                raise ValueError("NULL bits set past the last row")
            mask = mask[:n_rows]
            present -= int(mask.sum())
        if len(raw) != 8 * present:
            raise ValueError(f"{len(raw)} bytes for {present} doubles")
    except ValueError as exc:  # binascii.Error is one
        raise SoapError(
            f"bad colset double column {col_name!r}: {exc}"
        ) from None
    values = struct.unpack(f"<{present}d", raw)
    if mask is None:
        return values
    found = iter(values)
    return [None if null else next(found) for null in mask.tolist()]


def _decode_column(tokens: List[str], code: str, entries: List[str]) -> List[Any]:
    """One token stream, a whole stream per call; ValueError, KeyError or
    IndexError when it holds a nil token or a malformed one."""
    if code == "int":
        return list(accumulate(map(int, tokens)))
    if code == "boolean":
        return list(map(_BOOL_VALUES.__getitem__, tokens))
    slots = list(map(int, tokens))
    if slots and min(slots) < 0:
        raise IndexError("negative dictionary index")
    return list(map(entries.__getitem__, slots))


def _decode_tokens(
    tokens: List[str], col_name: str, code: str, entries: List[str]
) -> List[Any]:
    """The per-token path: nil tokens become NULLs (int deltas skip them),
    and the first malformed token raises a :class:`SoapError` naming it."""
    values: List[Any] = []
    prev = 0
    for token in tokens:
        if token == _NIL_TOKEN:
            values.append(None)
            continue
        try:
            if code == "int":
                prev += int(token)
                values.append(prev)
            elif code == "boolean":
                values.append(_BOOL_VALUES[token])
            else:
                slot = int(token)
                if not 0 <= slot < len(entries):
                    raise IndexError(slot)
                values.append(entries[slot])
        except (ValueError, KeyError, IndexError):
            raise SoapError(
                f"bad colset {code} token {token!r} in column {col_name!r}"
            ) from None
    return values


def _decode_colset(node: Element) -> WireRowSet:
    rowset = WireRowSet(_schema_columns(node, "colset"))
    columns = rowset.columns
    try:
        n_rows = int(node.get("rows") or "0")
    except ValueError:
        n_rows = -1
    if n_rows < 0:
        raise SoapError(f"bad colset row count {node.get('rows')!r}")
    if n_rows and not columns:
        # Nothing in the document would back the rows: refuse rather than
        # materialise whatever count the sender claims.
        raise SoapError(f"colset with no columns claims {n_rows} rows")
    col_elements = node.require("cols").find_all("col")
    if len(col_elements) != len(columns):
        raise SoapError(
            f"colset has {len(col_elements)} column streams, "
            f"schema has {len(columns)}"
        )
    decoded: List[Sequence[Any]] = []
    for col_el, (col_name, code) in zip(col_elements, columns):
        if code == "double":
            decoded.append(_decode_doubles(col_el, col_name, n_rows))
            continue
        tokens = col_el.require("data").text.split()
        if len(tokens) != n_rows:
            raise SoapError(
                f"colset column {col_name!r} has {len(tokens)} tokens "
                f"for {n_rows} rows"
            )
        dict_el = col_el.find("dict") if code == "string" else None
        entries = (
            [kid.text for kid in dict_el.find_all("v")]
            if dict_el is not None
            else []
        )
        try:
            decoded.append(_decode_column(tokens, code, entries))
        except (ValueError, KeyError, IndexError):
            decoded.append(_decode_tokens(tokens, col_name, code, entries))
    rowset.rows = list(zip(*decoded))
    return rowset


def infer_rowset(columns: Sequence[str], rows: Sequence[Tuple[Any, ...]]) -> WireRowSet:
    """Build a rowset inferring each column's typecode from its values.

    A column's type is taken from its first non-NULL value; all-NULL (or
    empty) columns default to string. Ints in an otherwise-float column are
    widened to double.
    """
    codes: List[str] = []
    for i in range(len(columns)):
        code = "string"
        saw_int = False
        for row in rows:
            value = row[i]
            if value is None:
                continue
            if isinstance(value, bool):
                code = "boolean"
                break
            if isinstance(value, float):
                code = "double"
                break
            if isinstance(value, int):
                saw_int = True
                continue
            code = "string"
            break
        else:
            code = "int" if saw_int else code
        if code == "string" and saw_int:
            code = "int"
        codes.append(code)
    normalized = [
        tuple(
            float(v)
            if codes[i] == "double" and isinstance(v, int) and not isinstance(v, bool)
            else v
            for i, v in enumerate(row)
        )
        for row in rows
    ]
    return WireRowSet(list(zip(columns, codes)), normalized)


# -- binary codec (the CORBA-style comparison point) --------------------------

_BINARY_MAGIC = b"SQBR"


def encode_binary_rowset(rowset: WireRowSet) -> bytes:
    """Length-prefixed binary encoding of a rowset (no XML, no text)."""
    out = bytearray(_BINARY_MAGIC)
    out += struct.pack("<II", len(rowset.columns), len(rowset.rows))
    for name, code in rowset.columns:
        nb = name.encode("utf-8")
        out += struct.pack("<HB", len(nb), _TYPE_CODES.index(code))
        out += nb
    for row in rowset.rows:
        for value, (_, code) in zip(row, rowset.columns):
            if value is None:
                out += b"\x00"
                continue
            out += b"\x01"
            if code == "int":
                out += struct.pack("<q", value)
            elif code == "double":
                out += struct.pack("<d", float(value))
            elif code == "boolean":
                out += struct.pack("<B", 1 if value else 0)
            else:
                vb = str(value).encode("utf-8")
                out += struct.pack("<I", len(vb))
                out += vb
    return bytes(out)


def decode_binary_rowset(blob: bytes) -> WireRowSet:
    """Decode :func:`encode_binary_rowset` output."""
    if blob[:4] != _BINARY_MAGIC:
        raise SoapError("bad binary rowset magic")
    ncols, nrows = struct.unpack_from("<II", blob, 4)
    pos = 12
    columns: List[Tuple[str, str]] = []
    for _ in range(ncols):
        nlen, code_idx = struct.unpack_from("<HB", blob, pos)
        pos += 3
        name = blob[pos : pos + nlen].decode("utf-8")
        pos += nlen
        columns.append((name, _TYPE_CODES[code_idx]))
    rowset = WireRowSet(columns)
    for _ in range(nrows):
        row: List[Any] = []
        for _, code in columns:
            present = blob[pos]
            pos += 1
            if not present:
                row.append(None)
                continue
            if code == "int":
                (value,) = struct.unpack_from("<q", blob, pos)
                pos += 8
            elif code == "double":
                (value,) = struct.unpack_from("<d", blob, pos)
                pos += 8
            elif code == "boolean":
                value = blob[pos] == 1
                pos += 1
            else:
                (vlen,) = struct.unpack_from("<I", blob, pos)
                pos += 4
                value = blob[pos : pos + vlen].decode("utf-8")
                pos += vlen
            row.append(value)
        rowset.rows.append(tuple(row))
    return rowset
