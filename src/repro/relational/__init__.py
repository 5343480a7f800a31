"""Relational substrate: schemas, in-memory relations, sqlite backend."""

from repro.relational.content_hash import (
    column_digest,
    merge_digests,
    range_fingerprint,
    relation_fingerprint,
)
from repro.relational.csvio import read_csv, write_csv
from repro.relational.relation import AGGREGATE_FUNCS, Relation, aggregate_reduce
from repro.relational.schema import Column, Schema, SchemaError
from repro.relational.sharding import (
    MutationReport,
    ShardedRelation,
    ZoneStats,
    merge_zone_stats,
)
from repro.relational.sqlite_backend import Database, DatabaseError
from repro.relational.types import ColumnType, infer_type

__all__ = [
    "AGGREGATE_FUNCS",
    "aggregate_reduce",
    "Column",
    "ColumnType",
    "Database",
    "DatabaseError",
    "MutationReport",
    "Relation",
    "Schema",
    "SchemaError",
    "ShardedRelation",
    "ZoneStats",
    "column_digest",
    "infer_type",
    "merge_digests",
    "merge_zone_stats",
    "range_fingerprint",
    "relation_fingerprint",
    "read_csv",
    "write_csv",
]
