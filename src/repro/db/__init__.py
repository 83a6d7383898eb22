"""A small in-process relational engine — the per-archive DBMS substrate.

Each SkyNode in the paper hosts an autonomous DBMS (the prototype used SQL
Server). This package provides the equivalent substrate: typed tables, a
WHERE-expression evaluator, single-table SELECT / COUNT(*) execution, temp
tables, stored procedures, an HTM-backed spatial range scan, and a simulated
LRU buffer pool so cache-warming effects (paper Section 5.3) are measurable.
"""

from repro.db.types import ColumnType
from repro.db.schema import Column, TableSchema
from repro.db.table import SpatialSpec, Table
from repro.db.buffer import BufferPool
from repro.db.engine import Database, ResultSet

__all__ = [
    "ColumnType",
    "Column",
    "TableSchema",
    "SpatialSpec",
    "Table",
    "BufferPool",
    "Database",
    "ResultSet",
]
