"""Out-of-core relation backend: rows live in sqlite, not in numpy.

Every layer up to PR 9 assumes the whole relation fits in one
process's numpy arrays.  :class:`SqlRelation` removes that assumption:
the data lives in a sqlite database (on disk or in memory) and the
engine only ever sees *batches* of rows — the paper's framing of the
package builder as "an external module which communicates with the
DBMS, where the data resides, via SQL" taken to its scale conclusion.

Design points:

* **Same row semantics as** :class:`~repro.relational.relation.Relation`.
  ``__len__``/``__getitem__``/``row_tuple`` return bit-identical engine
  values (NULL as ``None``, NaN as ``float('nan')``, BOOL as ``bool``),
  so :class:`~repro.core.package.Package` and the row-interpreter
  fallbacks work unchanged on top of it.

* **NaN needs a companion column.**  Python's sqlite3 binds a float NaN
  as NULL — storing it naively would silently conflate NaN *data* with
  SQL NULL, which the engine's three-valued logic treats differently.
  Every FLOAT column therefore gets a hidden ``<name>__nan`` INTEGER
  flag column; NaN stores as ``(NULL, 1)`` and reads back as NaN.

* **Identity matches the in-memory path bit for bit.**  The content
  fingerprint is accumulated *during load* by streaming the same
  canonical bytes through :class:`~repro.relational.content_hash.ColumnHasher`
  and folding with :func:`~repro.relational.content_hash.fingerprint_parts`
  — so a sql-backed relation keys the durable artifact store exactly
  like its in-memory twin, and warm restarts rediscover cached layers.

* **Zone statistics are SQL aggregates.**  :meth:`zone_stats` computes
  per-zone count / null count / min / max / sum with one ``GROUP BY
  rid / zone_rows`` query per column, returning the same
  :class:`~repro.relational.sharding.ZoneStats` records the in-memory
  :class:`~repro.relational.sharding.ShardedRelation` produces (NaN
  poisoning rules included), so the zone-map pruning analysis runs
  unmodified against a table it never loads.

The WHERE/reduction pushdown planner that drives this backend lives in
:mod:`repro.core.pushdown`; this module knows SQL and schemas, not
PaQL.
"""

from __future__ import annotations

import math
import sqlite3

import numpy as np

from repro.relational.content_hash import (
    ColumnHasher,
    column_kind,
    fingerprint_parts,
    schema_signature,
)
from repro.relational.relation import Relation
from repro.relational.schema import (
    Column,
    Schema,
    SchemaError,
    _check_identifier,
    quote_ident,
)
from repro.relational.sharding import ZoneStats
from repro.relational.types import ColumnType

__all__ = ["SqlRelation", "SqlRelationError", "DEFAULT_ZONE_ROWS", "STREAM_BATCH_ROWS"]

#: Rows per zone for the SQL zone map.  Bigger than the in-memory
#: shard default because zones here only gate streaming, and a 10M-row
#: table should produce hundreds of zones, not tens of thousands.
DEFAULT_ZONE_ROWS = 65536

#: Rows per streamed batch.  Each batch becomes a throwaway in-memory
#: mini-relation for the exact recheck, so this trades peak memory
#: against per-batch kernel-compile overhead.
STREAM_BATCH_ROWS = 65536

_META_TABLE = "_repro_meta"

#: Suffix of the hidden NaN flag column paired with every FLOAT column.
NAN_SUFFIX = "__nan"


class SqlRelationError(Exception):
    """Raised for malformed sql-backed relations (bad meta, collisions)."""


def _nan_column(name):
    return f"{name}{NAN_SUFFIX}"


def _check_nan_collisions(schema):
    """A ``<float>__nan`` companion must not collide with a real column."""
    folded = {name.lower() for name in schema.names}
    for column in schema:
        if column.type is ColumnType.FLOAT:
            companion = _nan_column(column.name).lower()
            if companion in folded:
                raise SqlRelationError(
                    f"column {_nan_column(column.name)!r} collides with the "
                    f"NaN flag column for FLOAT column {column.name!r}; "
                    "rename one of them"
                )


def _parse_schema(signature):
    columns = []
    for part in signature.split("|"):
        name, _, type_name = part.rpartition(":")
        columns.append(Column(name, ColumnType(type_name)))
    return Schema(columns)


def _encoders(schema):
    """Per-column converters from engine values to stored sql tuples.

    FLOAT columns expand to ``(value, nan_flag)`` pairs; all other
    columns encode to a single stored value.
    """
    encoders = []
    for column in schema:
        if column.type is ColumnType.FLOAT:

            def encode_float(value):
                if value is None:
                    return (None, 0)
                value = float(value)
                if math.isnan(value):
                    return (None, 1)
                return (value, 0)

            encoders.append(encode_float)
        elif column.type is ColumnType.BOOL:
            encoders.append(lambda v: (None if v is None else int(v),))
        else:
            encoders.append(lambda v: (v,))
    return encoders


def _decoders(schema, columns=None):
    """Per-column converters from stored sql values back to engine values.

    Returns ``(select_exprs, decoders)`` where ``select_exprs`` is the
    list of quoted sql column names to select (FLOAT columns contribute
    their NaN flag too) and ``decoders`` consume the matching slice of
    a fetched row, yielding one engine value per schema column.
    """
    names = schema.names if columns is None else tuple(columns)
    select_exprs = []
    decoders = []
    for name in names:
        ctype = schema.type_of(name)
        if ctype is ColumnType.FLOAT:
            select_exprs.append(quote_ident(name))
            select_exprs.append(quote_ident(_nan_column(name)))

            def decode_float(value, flag):
                if flag:
                    return float("nan")
                return None if value is None else float(value)

            decoders.append((2, decode_float))
        elif ctype is ColumnType.BOOL:
            select_exprs.append(quote_ident(name))
            decoders.append((1, lambda v: None if v is None else bool(v)))
        else:
            select_exprs.append(quote_ident(name))
            decoders.append((1, lambda v: v))
    return select_exprs, decoders


def _decode_row(raw, decoders):
    out = []
    index = 0
    for width, decode in decoders:
        out.append(decode(*raw[index : index + width]))
        index += width
    return tuple(out)


class _StreamingFingerprint:
    """Accumulates the relation fingerprint while rows stream in."""

    def __init__(self, schema):
        self._schema = schema
        self._hashers = [ColumnHasher(column_kind(c.type)) for c in schema]
        self._count = 0

    def update(self, rows):
        """Absorb a batch of engine-value row tuples in schema order."""
        if not rows:
            return
        self._count += len(rows)
        for index, column in enumerate(self._schema):
            if column.type is ColumnType.TEXT:
                nulls = np.array([row[index] is None for row in rows], dtype=bool)
                values = ["" if row[index] is None else row[index] for row in rows]
            else:
                nulls = np.array([row[index] is None for row in rows], dtype=bool)
                values = np.array(
                    [
                        np.nan if row[index] is None else float(row[index])
                        for row in rows
                    ],
                    dtype=np.float64,
                )
            self._hashers[index].update(values, nulls)

    def hexdigest(self):
        return fingerprint_parts(
            self._schema,
            self._count,
            [hasher.hexdigest() for hasher in self._hashers],
        )


class SqlRelation:
    """A relation whose rows live in a sqlite table.

    Construct with :meth:`from_relation` (materialize an in-memory
    relation), :meth:`from_row_batches` (stream rows in without ever
    holding them all — the 10M-row path), or :meth:`open` (reattach to
    a database built earlier; fingerprints and schema come from the
    embedded metadata table, so a warm restart needs no rescan).
    """

    #: Duck-typing marker the engine checks to route the pushdown path.
    is_sql_backed = True

    def __init__(self, connection, path, name, schema, count, zone_rows,
                 fingerprint=None):
        _check_identifier(name, "relation")
        _check_nan_collisions(schema)
        self._connection = connection
        self._path = path
        self._name = name
        self._schema = schema
        self._count = count
        self._zone_rows = zone_rows
        self._fingerprint = fingerprint
        self._zone_cache = {}
        self._materialized = None
        self._temp_serial = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def _create(cls, path, name, schema, zone_rows):
        _check_identifier(name, "relation")
        _check_nan_collisions(schema)
        connection = sqlite3.connect(path)
        connection.execute("PRAGMA synchronous=OFF")
        table = quote_ident(name)
        connection.execute(f"DROP TABLE IF EXISTS {table}")
        connection.execute(f"DROP TABLE IF EXISTS {_META_TABLE}")
        pieces = []
        for column in schema:
            pieces.append(f"{quote_ident(column.name)} {column.type.sql_name}")
            if column.type is ColumnType.FLOAT:
                pieces.append(
                    f"{quote_ident(_nan_column(column.name))} "
                    "INTEGER NOT NULL DEFAULT 0"
                )
        connection.execute(
            f"CREATE TABLE {table} (rid INTEGER PRIMARY KEY, {', '.join(pieces)})"
        )
        connection.execute(
            f"CREATE TABLE {_META_TABLE} (key TEXT PRIMARY KEY, value TEXT)"
        )
        return connection

    @classmethod
    def from_row_batches(cls, name, schema, batches, path=":memory:",
                         zone_rows=DEFAULT_ZONE_ROWS, validate=True):
        """Build a sql-backed relation by streaming row-tuple batches.

        Args:
            name: relation name (SQL-safe identifier).
            schema: the :class:`Schema`; each row tuple is in its order.
            batches: iterable of lists of engine-value row tuples.  At
                no point is more than one batch held in memory — this
                is how a 10M-row relation gets built under a small RSS.
            path: sqlite database path (``":memory:"`` for tests).
            zone_rows: rows per zone-map zone.
            validate: type-check every value against the schema (turn
                off for trusted generators when load time matters).
        """
        connection = cls._create(path, name, schema, zone_rows)
        encoders = _encoders(schema)
        width = sum(2 if c.type is ColumnType.FLOAT else 1 for c in schema)
        placeholders = ", ".join(["?"] * (width + 1))
        insert = f"INSERT INTO {quote_ident(name)} VALUES ({placeholders})"
        hasher = _StreamingFingerprint(schema)
        types = [column.type for column in schema]
        rid = 0
        for batch in batches:
            if validate:
                for row in batch:
                    for ctype, value in zip(types, row):
                        ctype.validate(value)
            hasher.update(batch)
            encoded = []
            for row in batch:
                flat = (rid + len(encoded),)
                for encode, value in zip(encoders, row):
                    flat += encode(value)
                encoded.append(flat)
            connection.executemany(insert, encoded)
            rid += len(batch)
        meta = {
            "name": name,
            "schema": schema_signature(schema),
            "count": str(rid),
            "zone_rows": str(zone_rows),
            "fingerprint": hasher.hexdigest(),
        }
        connection.executemany(
            f"INSERT INTO {_META_TABLE} (key, value) VALUES (?, ?)",
            sorted(meta.items()),
        )
        connection.commit()
        return cls(connection, path, name, schema, rid, zone_rows,
                   fingerprint=meta["fingerprint"])

    @classmethod
    def from_relation(cls, relation, path=":memory:",
                      zone_rows=DEFAULT_ZONE_ROWS, batch_rows=STREAM_BATCH_ROWS):
        """Materialize an in-memory relation as a sql-backed one."""

        def batches():
            total = len(relation)
            for start in range(0, total, batch_rows):
                stop = min(start + batch_rows, total)
                yield [relation.row_tuple(rid) for rid in range(start, stop)]

        # Rows were validated when the in-memory relation was built.
        return cls.from_row_batches(
            relation.name, relation.schema, batches(), path=path,
            zone_rows=zone_rows, validate=False,
        )

    @classmethod
    def open(cls, path):
        """Reattach to a database previously built by this class."""
        connection = sqlite3.connect(path)
        try:
            rows = connection.execute(
                f"SELECT key, value FROM {_META_TABLE}"
            ).fetchall()
        except sqlite3.Error as exc:
            connection.close()
            raise SqlRelationError(
                f"{path!r} has no {_META_TABLE} table; not a SqlRelation "
                "database"
            ) from exc
        meta = dict(rows)
        missing = {"name", "schema", "count", "zone_rows"} - set(meta)
        if missing:
            connection.close()
            raise SqlRelationError(
                f"{path!r} metadata is missing keys {sorted(missing)}"
            )
        schema = _parse_schema(meta["schema"])
        return cls(
            connection, path, meta["name"], schema, int(meta["count"]),
            int(meta["zone_rows"]), fingerprint=meta.get("fingerprint"),
        )

    # -- relation interface ---------------------------------------------

    @property
    def name(self):
        return self._name

    @property
    def schema(self):
        return self._schema

    @property
    def path(self):
        return self._path

    @property
    def zone_rows(self):
        return self._zone_rows

    @property
    def connection(self):
        """The underlying sqlite connection (pushdown planner use only)."""
        return self._connection

    def __len__(self):
        return self._count

    def __repr__(self):
        return (
            f"SqlRelation({self._name!r}, rows={self._count}, "
            f"path={self._path!r})"
        )

    def row_tuple(self, rid):
        """Fetch one row as an engine-value tuple in schema order."""
        if rid < 0:
            rid += self._count
        if not 0 <= rid < self._count:
            raise IndexError(f"row {rid} out of range (0..{self._count - 1})")
        select_exprs, decoders = _decoders(self._schema)
        raw = self._connection.execute(
            f"SELECT {', '.join(select_exprs)} FROM {quote_ident(self._name)} "
            "WHERE rid = ?",
            (rid,),
        ).fetchone()
        return _decode_row(raw, decoders)

    def __getitem__(self, rid):
        return dict(zip(self._schema.names, self.row_tuple(rid)))

    def column_arrays(self, name):
        """Whole-column arrays are exactly what out-of-core forbids.

        Raising the vectorizer's own
        :class:`~repro.core.vectorize.UnsupportedExpression` routes
        every caller (aggregates, validators) onto its row-interpreter
        fallback, which fetches rows one at a time instead.
        """
        from repro.core.vectorize import UnsupportedExpression

        self._schema[name]  # unknown columns are still a SchemaError
        raise UnsupportedExpression(
            f"sql-backed relation {self._name!r} does not materialize "
            f"whole columns; stream batches or use the pushdown path"
        )

    # -- streaming -------------------------------------------------------

    def iter_batches(self, columns=None, where_sql=None, rid_table=None,
                     batch_rows=STREAM_BATCH_ROWS, params=()):
        """Yield ``(rids, rows)`` batches in rid order.

        Args:
            columns: column names to fetch (default: all, in schema
                order).  Rows are engine-value tuples in that order.
            where_sql: optional SQL predicate over the stored columns
                (callers quote identifiers; NaN-flagged FLOAT values
                appear as NULL to the predicate).
            rid_table: optional name of a temp table with a ``rid``
                column; when given, only rows whose rid appears there
                are streamed (the resident-materialization join).
            batch_rows: rows per yielded batch.
            params: values bound to ``where_sql``'s ``?`` placeholders.

        ``rids`` is an int64 numpy array of absolute row ids; ``rows``
        a list of decoded tuples.  At most one batch is in memory.
        """
        select_exprs, decoders = _decoders(self._schema, columns)
        table = quote_ident(self._name)
        sql = f"SELECT rid, {', '.join(select_exprs)} FROM {table}"
        clauses = []
        if rid_table is not None:
            clauses.append(f"rid IN (SELECT rid FROM {quote_ident(rid_table)})")
        if where_sql:
            clauses.append(f"({where_sql})")
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY rid"
        try:
            cursor = self._connection.execute(sql, params)
        except sqlite3.Error as exc:
            raise SqlRelationError(f"stream failed: {exc}\n  sql: {sql}") from exc
        while True:
            batch = cursor.fetchmany(batch_rows)
            if not batch:
                return
            rids = np.array([raw[0] for raw in batch], dtype=np.int64)
            rows = [_decode_row(raw[1:], decoders) for raw in batch]
            yield rids, rows

    def create_temp_rid_table(self, rids):
        """Materialize a rid set as a temp table; returns its name."""
        self._temp_serial += 1
        name = f"_stream_rids_{self._temp_serial}"
        table = quote_ident(name)
        self._connection.execute(f"DROP TABLE IF EXISTS temp.{table}")
        self._connection.execute(
            f"CREATE TEMP TABLE {table} (rid INTEGER PRIMARY KEY)"
        )
        self._connection.executemany(
            f"INSERT INTO {table} (rid) VALUES (?)",
            ((int(rid),) for rid in rids),
        )
        return name

    def drop_temp_table(self, name):
        self._connection.execute(f"DROP TABLE IF EXISTS temp.{quote_ident(name)}")

    def count_where(self, where_sql=None, params=()):
        """``COUNT(*)`` with an optional predicate — the selectivity probe.

        ``params`` binds the predicate's ``?`` placeholders.
        """
        sql = f"SELECT COUNT(*) FROM {quote_ident(self._name)}"
        if where_sql:
            sql += f" WHERE {where_sql}"
        try:
            return int(self._connection.execute(sql, params).fetchone()[0])
        except sqlite3.Error as exc:
            raise SqlRelationError(f"count failed: {exc}\n  sql: {sql}") from exc

    def ensure_indexes(self, columns):
        """Create supporting indexes for pushdown predicates on ``columns``."""
        for name in columns:
            self._schema[name]
            index = quote_ident(f"idx__{self._name}__{name}")
            self._connection.execute(
                f"CREATE INDEX IF NOT EXISTS {index} ON "
                f"{quote_ident(self._name)} ({quote_ident(name)})"
            )
        self._connection.commit()

    def materialize(self):
        """Load the full table as an in-memory :class:`Relation` (cached).

        The escape hatch the cost model takes for small tables; calling
        this on a 10M-row relation defeats the point of the backend.
        """
        if self._materialized is None:
            packed = []
            for _, rows in self.iter_batches():
                packed.extend(rows)
            self._materialized = Relation._from_packed(
                self._name, self._schema, packed
            )
        return self._materialized

    # -- identity --------------------------------------------------------

    def relation_fingerprint(self):
        """Content fingerprint, bit-identical to the in-memory hash.

        Computed while rows streamed in at build time and persisted in
        the metadata table; reopened databases read it back without a
        rescan.  Databases predating the fingerprint key fall back to
        one streaming scan.
        """
        if self._fingerprint is None:
            hasher = _StreamingFingerprint(self._schema)
            for _, rows in self.iter_batches():
                hasher.update(rows)
            self._fingerprint = hasher.hexdigest()
            self._connection.execute(
                f"INSERT OR REPLACE INTO {_META_TABLE} (key, value) "
                "VALUES ('fingerprint', ?)",
                (self._fingerprint,),
            )
            self._connection.commit()
        return self._fingerprint

    # -- zone map --------------------------------------------------------

    def num_zones(self):
        if self._count == 0:
            return 0
        return (self._count + self._zone_rows - 1) // self._zone_rows

    def zone_slice(self, index):
        """The ``(start, stop)`` rid range of zone ``index``."""
        start = index * self._zone_rows
        return start, min(start + self._zone_rows, self._count)

    def zone_stats(self, name):
        """Per-zone :class:`ZoneStats` for column ``name``, via one query.

        Matches the in-memory :meth:`ShardedRelation.zone_stats`
        semantics: a zone containing NaN data reports NaN min/max/sum
        (numpy's propagation), TEXT columns get counts only, and sums
        that sqlite reports as NULL over non-empty data (mixed ±inf)
        come back as NaN — exactly what ``inf + -inf`` produces on the
        numpy side.
        """
        if name in self._zone_cache:
            return self._zone_cache[name]
        ctype = self._schema.type_of(name)
        table = quote_ident(self._name)
        col = quote_ident(name)
        if ctype is ColumnType.TEXT:
            sql = (
                f"SELECT rid / {self._zone_rows} AS zone, COUNT(*), "
                f"COUNT(*) - COUNT({col}) "
                f"FROM {table} GROUP BY zone ORDER BY zone"
            )
            stats = tuple(
                ZoneStats(count=int(count), null_count=int(nulls))
                for _, count, nulls in self._connection.execute(sql)
            )
            self._zone_cache[name] = stats
            return stats
        if ctype is ColumnType.FLOAT:
            nan_col = quote_ident(_nan_column(name))
            null_expr = (
                f"SUM(CASE WHEN {col} IS NULL AND {nan_col} = 0 "
                "THEN 1 ELSE 0 END)"
            )
            nan_expr = f"SUM({nan_col})"
        else:
            null_expr = f"COUNT(*) - COUNT({col})"
            nan_expr = "0"
        sql = (
            f"SELECT rid / {self._zone_rows} AS zone, COUNT(*), {null_expr}, "
            f"{nan_expr}, MIN({col}), MAX({col}), SUM({col}) "
            f"FROM {table} GROUP BY zone ORDER BY zone"
        )
        stats = []
        for _, count, nulls, nans, low, high, total in self._connection.execute(sql):
            count = int(count)
            nulls = int(nulls)
            nans = int(nans or 0)
            if count - nulls == 0:
                stats.append(ZoneStats(count=count, null_count=nulls))
            elif nans:
                nan = float("nan")
                stats.append(
                    ZoneStats(count=count, null_count=nulls,
                              minimum=nan, maximum=nan, total=nan)
                )
            else:
                stats.append(
                    ZoneStats(
                        count=count,
                        null_count=nulls,
                        minimum=float(low),
                        maximum=float(high),
                        # sqlite sums mixed ±inf to NULL; numpy calls it NaN.
                        total=float("nan") if total is None else float(total),
                    )
                )
        stats = tuple(stats)
        self._zone_cache[name] = stats
        return stats

    # -- lifecycle -------------------------------------------------------

    def close(self):
        self._connection.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False
