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
  flag column; NaN stores as ``(NULL, 1)`` and reads back as NaN.  The
  same flag keeps the sign of ``-0.0`` (``(0.0, 2)``), which sqlite
  drops when it stores an integral REAL as an integer.

* **Data crosses the boundary a column at a time.**  A loaded batch is
  transposed once and bound to ``executemany`` as one ``zip`` over its
  column lists; a fetched batch is transposed once and each column
  becomes one numpy array (:class:`ColumnBatch`).  No Python code runs
  per cell on either side, except in a non-FLOAT column holding a NULL.

* **Identity matches the in-memory path bit for bit.**  The content
  fingerprint is accumulated *during load* by streaming the same
  canonical bytes through :class:`~repro.relational.content_hash.ColumnHasher`
  and folding with :func:`~repro.relational.content_hash.fingerprint_parts`
  — so a sql-backed relation keys the durable artifact store exactly
  like its in-memory twin, and warm restarts rediscover cached layers.

* **The zone map belongs to the file.**  While rows stream in, the
  loader cuts the same per-column arrays the fingerprint hashes at
  zone boundaries and reduces each zone with
  :func:`~repro.relational.sharding.zone_stats_of` — the function the
  in-memory :class:`~repro.relational.sharding.ShardedRelation` uses —
  so every count / null count / min / max / sum is bit-identical to
  the in-memory shard's.  The map is persisted beside the fingerprint
  and :meth:`zone_stats` reads it back in O(zones): the zone-map
  pruning analysis runs unmodified against a table it never loads,
  and no open ever rescans the table for it.

The WHERE/reduction pushdown planner that drives this backend lives in
:mod:`repro.core.pushdown`; this module knows SQL and schemas, not
PaQL.
"""

from __future__ import annotations

import json
import math
import sqlite3
from dataclasses import astuple
from itertools import repeat

import numpy as np

from repro.relational.content_hash import (
    ColumnHasher,
    column_kind,
    fingerprint_parts,
    schema_signature,
)
from repro.relational.relation import _TYPED, Relation
from repro.relational.schema import (
    Column,
    Schema,
    SchemaError,
    _check_identifier,
    quote_ident,
)
from repro.relational.sharding import ZoneStats, zone_stats_of
from repro.relational.types import ColumnType

__all__ = [
    "ColumnBatch",
    "SqlRelation",
    "SqlRelationError",
    "DEFAULT_ZONE_ROWS",
    "STREAM_BATCH_ROWS",
]

#: Rows per zone for the SQL zone map.  Bigger than the in-memory
#: shard default because zones here only gate streaming, and a 10M-row
#: table should produce hundreds of zones, not tens of thousands.
DEFAULT_ZONE_ROWS = 65536

#: Rows per streamed batch.  Each batch becomes a throwaway in-memory
#: mini-relation for the exact recheck, so this trades peak memory
#: against per-batch kernel-compile overhead.
STREAM_BATCH_ROWS = 65536

#: Rows per slice a loaded batch is transposed and bound in.  Each
#: slice's per-column temporaries stay near 64 KB: after a 220k-row
#: load in 65 536-row batches, whole-batch columns left glibc's heap
#: holding about 21 MB of freed memory against 4 MB for these slices
#: (resident set before and after ``malloc_trim``), and a later
#: query's peak resident set starts from that floor.
LOAD_SLICE_ROWS = 8192

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


#: ``<float>__nan`` flag codes.  0 is an ordinary value (NULL when the
#: value column is NULL); sqlite cannot store NaN, nor the sign of a
#: zero (it keeps an integral REAL as an integer), so those two values
#: store as ``(NULL, 1)`` and ``(0.0, 2)``.  Files written before the
#: ``2`` code existed never contain it and read back unchanged.
NAN_FLAG = 1
NEGATIVE_ZERO_FLAG = 2

#: The storage dtype of a decoded column.
_DTYPES = {
    ColumnType.FLOAT: np.float64,
    ColumnType.INT: np.int64,
    ColumnType.BOOL: bool,
    ColumnType.TEXT: object,
}


def _select_exprs(schema, names):
    """Quoted stored columns of ``names``: a FLOAT adds its flag column."""
    exprs = []
    for name in names:
        exprs.append(quote_ident(name))
        if schema.type_of(name) is ColumnType.FLOAT:
            exprs.append(quote_ident(_nan_column(name)))
    return exprs


def _null_mask(stored):
    """The NULL mask of one fetched or loaded column."""
    if None not in stored:
        return np.zeros(len(stored), dtype=bool)
    return np.fromiter((value is None for value in stored), bool, len(stored))


def _float_flags(values, nulls):
    """The ``__nan`` flag codes of a float64 column."""
    flags = np.zeros(len(values), dtype=np.int8)
    flags[np.isnan(values) & ~nulls] = NAN_FLAG
    flags[(values == 0.0) & np.signbit(values)] = NEGATIVE_ZERO_FLAG
    return flags


def _decode_column(column_type, stored, flags=None):
    """``(values, nulls)`` of one column as sqlite returned it.

    ``stored`` is the column's tuple of fetched values, ``flags`` the
    FLOAT flag column's; each becomes one numpy array in a single pass.
    """
    if column_type is ColumnType.FLOAT:
        values = np.array(stored, dtype=np.float64)  # NULL reads as NaN
        nulls = np.isnan(values)
        if any(flags):
            codes = np.array(flags, dtype=np.int8)
            nulls &= codes != NAN_FLAG
            values[codes == NEGATIVE_ZERO_FLAG] = -0.0
        return values, nulls
    nulls = _null_mask(stored)
    if column_type is ColumnType.TEXT:
        values = np.empty(len(stored), dtype=object)
        values[:] = stored
        return values, nulls
    if nulls.any():
        stored = [0 if value is None else value for value in stored]
    return np.array(stored, dtype=_DTYPES[column_type]), nulls


def _decode_row(schema, raw):
    """One fetched row as an engine-value tuple: the one-row read, too
    short to pay for building arrays."""
    out = []
    stored = iter(raw)
    for column in schema:
        value = next(stored)
        if column.type is ColumnType.FLOAT:
            flag = next(stored)
            if flag == NAN_FLAG:
                value = math.nan
            elif flag == NEGATIVE_ZERO_FLAG:
                value = -0.0
            elif value is not None:
                value = float(value)
        elif column.type is ColumnType.BOOL and value is not None:
            value = bool(value)
        out.append(value)
    return tuple(out)


def _decode_batch(schema, names, stored):
    """A :class:`ColumnBatch` of columns ``names`` from ``stored``, the
    fetched values transposed into one tuple per stored column."""
    columns = {}
    index = 0
    for name in names:
        column_type = schema.type_of(name)
        if column_type is ColumnType.FLOAT:
            columns[name] = _decode_column(
                column_type, stored[index], stored[index + 1]
            )
            index += 2
        else:
            columns[name] = _decode_column(column_type, stored[index])
            index += 1
    return ColumnBatch(columns, len(stored[0]) if stored else 0)


def _encode_rows(name, schema, rows, first_rid, validate):
    """Transpose one slice of loaded row tuples into stored columns.

    Returns ``(bound, arrays)``: ``bound`` lists the sequences to zip
    into ``INSERT`` parameters (the rids, then each stored column in
    table order), ``arrays`` each schema column's ``(values, nulls)`` in
    :class:`_StreamingSummary`'s engine form.
    """
    try:
        stored = list(zip(*rows, strict=True))
    except ValueError:
        stored = []
    if len(stored) != len(schema):
        raise ValueError(f"row tuples of {name!r} must have {len(schema)} values")
    bound, arrays = [range(first_rid, first_rid + len(rows))], []
    for column, values in zip(schema, stored):
        types = set(map(type, values))
        if validate and not types <= _TYPED[column.type]:
            for value in values:
                column.type.validate(value)
        nulls = _null_mask(values)
        if column.type is ColumnType.FLOAT:
            floats = np.array(values, dtype=np.float64)  # None -> NaN
            flags = _float_flags(floats, nulls)
            # sqlite3 binds a NaN as NULL, and the flag tells the two
            # apart; an int binds as its float.
            bound.append(floats.tolist() if int in types else values)
            bound.append(flags.tolist() if flags.any() else repeat(0))
            arrays.append((floats, nulls))
        elif column.type is ColumnType.TEXT:
            bound.append(values)
            if nulls.any():
                values = ["" if value is None else value for value in values]
            arrays.append((values, nulls))
        else:
            # A bool binds as the integer 0 or 1.
            bound.append(values)
            arrays.append((np.array(values, dtype=np.float64), nulls))
    return bound, arrays


def _engine_arrays(column_type, values, nulls):
    """One decoded column as :meth:`Relation.column_arrays` spells it:
    float64 with NaN under NULL, or TEXT as a list with ``""`` there."""
    if column_type is ColumnType.TEXT:
        text = values.tolist()
        for index in np.flatnonzero(nulls).tolist():
            text[index] = ""
        return text, nulls
    if values.dtype != np.float64:
        values = values.astype(np.float64)
        values[nulls] = np.nan
    return values, nulls


class ColumnBatch:
    """One streamed batch of rows, decoded a column at a time.

    ``columns`` maps each fetched column name to a ``(values, nulls)``
    pair of numpy arrays: ``values`` in the column's storage dtype
    (float64 for FLOAT, int64 for INT, bool for BOOL, object for TEXT)
    with NaN, 0, False or ``None`` under a NULL, and ``nulls`` the NULL
    mask.  A FLOAT NaN is a value, not a NULL.  ``len()`` is the number
    of rows.
    """

    __slots__ = ("columns", "_rows")

    def __init__(self, columns, rows):
        self.columns = columns
        self._rows = rows

    def __len__(self):
        return self._rows

    @classmethod
    def concat(cls, batches, schema):
        """One batch holding ``batches`` end to end, over ``schema``."""
        pieces = {name: [] for name in schema.names}
        rows = 0
        for batch in batches:
            rows += len(batch)
            for name in schema.names:
                pieces[name].append(batch.columns[name])
        columns = {}
        for column in schema:
            parts = pieces[column.name]
            if not parts:
                parts = [(np.empty(0, _DTYPES[column.type]), np.empty(0, bool))]
            columns[column.name] = (
                np.concatenate([values for values, _ in parts]),
                np.concatenate([nulls for _, nulls in parts]),
            )
        return cls(columns, rows)

    def to_relation(self, name, schema):
        """An in-memory :class:`Relation` of the batch's ``schema`` columns.

        A column holding a NULL reaches :meth:`Relation.from_columns` as
        Python values with ``None`` there; any other as its array.
        """
        columns = {}
        for column_name in schema.names:
            values, nulls = self.columns[column_name]
            if nulls.any():
                values = values.tolist()
                for index in np.flatnonzero(nulls).tolist():
                    values[index] = None
            columns[column_name] = values
        return Relation.from_columns(name, schema, columns)


class _StreamingSummary:
    """Accumulates the fingerprint and the zone map while rows stream in.

    Each batch arrives as one ``(values, nulls)`` pair per schema
    column, already in :meth:`Relation.column_arrays`' engine form
    (float64 with NaN under NULL; TEXT a list with ``""`` there), so
    the loader and the streaming pass hand it the arrays they built
    anyway.  The hasher absorbs them whole; the zone map cuts them at
    zone boundaries (batches may span zones and zones may span
    batches), buffers at most one zone per column, and reduces each
    zone as one contiguous array through :func:`zone_stats_of` — so
    its statistics are bit-identical to the in-memory shard's over the
    same rows.
    """

    def __init__(self, schema, zone_rows):
        self._schema = schema
        self._zone_rows = zone_rows
        self._hashers = [ColumnHasher(column_kind(c.type)) for c in schema]
        self._numeric = [c.type is not ColumnType.TEXT for c in schema]
        self._count = 0
        self._pending = [[] for _ in schema]  # pieces of each open zone
        self._zones = [[] for _ in schema]

    def update(self, columns):
        """Absorb one batch: a ``(values, nulls)`` pair per schema column."""
        rows = len(columns[0][1]) if columns else 0
        if not rows:
            return
        buffered = self._count % self._zone_rows  # rows in the open zone
        self._count += rows
        for index, (values, nulls) in enumerate(columns):
            numeric = self._numeric[index]
            self._hashers[index].update(values, nulls)
            start, room = 0, self._zone_rows - buffered
            while start < rows:
                stop = min(rows, start + room)
                # TEXT zones keep counts only, so their values are not buffered.
                self._pending[index].append(
                    (values[start:stop] if numeric else None, nulls[start:stop])
                )
                if stop - start == room:
                    self._close_zone(index)
                start, room = stop, self._zone_rows

    def _close_zone(self, index):
        pieces, self._pending[index] = self._pending[index], []
        numeric = self._numeric[index]
        nulls = np.concatenate([nulls for _, nulls in pieces])
        values = np.concatenate([values for values, _ in pieces]) if numeric else None
        self._zones[index].append(zone_stats_of(values, nulls, numeric))

    def finish(self):
        """``(fingerprint, zones)`` once every row has been absorbed;
        ``zones`` maps each column name to its tuple of ZoneStats."""
        if self._count % self._zone_rows:
            for index in range(len(self._schema)):
                self._close_zone(index)
        fingerprint = fingerprint_parts(
            self._schema,
            self._count,
            [hasher.hexdigest() for hasher in self._hashers],
        )
        zones = {
            column.name: tuple(stats)
            for column, stats in zip(self._schema, self._zones)
        }
        return fingerprint, zones


def _dump_zones(zones):
    """The zone map as one JSON text.

    ``json`` writes floats with ``repr`` (exact round trip) and spells
    NaN and ±inf out as ``NaN`` / ``Infinity`` / ``-Infinity``.
    """
    return json.dumps(
        {name: [astuple(zone) for zone in stats] for name, stats in zones.items()}
    )


def _load_zones(text):
    return {
        name: tuple(ZoneStats(*zone) for zone in stats)
        for name, stats in json.loads(text).items()
    }


class SqlRelation:
    """A relation whose rows live in a sqlite table.

    Construct with :meth:`from_relation` (materialize an in-memory
    relation), :meth:`from_row_batches` (stream rows in without ever
    holding them all — the 10M-row path), or :meth:`open` (reattach to
    a database built earlier; schema, fingerprint and zone map come
    from the embedded metadata table, so a warm restart needs no
    rescan).
    """

    #: Duck-typing marker the engine checks to route the pushdown path.
    is_sql_backed = True

    def __init__(self, connection, path, name, schema, count, zone_rows):
        _check_identifier(name, "relation")
        _check_nan_collisions(schema)
        self._connection = connection
        self._path = path
        self._name = name
        self._schema = schema
        self._count = count
        self._zone_rows = zone_rows
        self._summary = None  # (fingerprint, zones), read on first use
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
                Each batch is transposed once and bound and summarized
                a column at a time.
            path: sqlite database path (``":memory:"`` for tests).
            zone_rows: rows per zone-map zone.
            validate: type-check every value against the schema (turn
                off for trusted generators when load time matters).
        """
        connection = cls._create(path, name, schema, zone_rows)
        width = sum(2 if c.type is ColumnType.FLOAT else 1 for c in schema)
        placeholders = ", ".join(["?"] * (width + 1))
        insert = f"INSERT INTO {quote_ident(name)} VALUES ({placeholders})"
        summary = _StreamingSummary(schema, zone_rows)
        rid = 0
        for batch in batches:
            for first in range(0, len(batch), LOAD_SLICE_ROWS):
                rows = batch[first : first + LOAD_SLICE_ROWS]
                bound, arrays = _encode_rows(name, schema, rows, rid, validate)
                summary.update(arrays)
                connection.executemany(insert, zip(*bound))
                rid += len(rows)
        fingerprint, zones = summary.finish()
        meta = {
            "name": name,
            "schema": schema_signature(schema),
            "count": str(rid),
            "zone_rows": str(zone_rows),
            "fingerprint": fingerprint,
            "zones": _dump_zones(zones),
        }
        connection.executemany(
            f"INSERT INTO {_META_TABLE} (key, value) VALUES (?, ?)",
            sorted(meta.items()),
        )
        connection.commit()
        return cls(connection, path, name, schema, rid, zone_rows)

    @classmethod
    def from_relation(cls, relation, path=":memory:",
                      zone_rows=DEFAULT_ZONE_ROWS, batch_rows=STREAM_BATCH_ROWS):
        """Materialize an in-memory relation as a sql-backed one."""

        def batches():
            total = len(relation)
            for start in range(0, total, batch_rows):
                yield relation.row_tuples(start, min(start + batch_rows, total))

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
            int(meta["zone_rows"]),
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
        names = self._schema.names
        raw = self._connection.execute(
            f"SELECT {', '.join(_select_exprs(self._schema, names))} "
            f"FROM {quote_ident(self._name)} WHERE rid = ?",
            (rid,),
        ).fetchone()
        return _decode_row(self._schema, raw)

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

    def _stream_sql(self, names, where_sql=None, rid_table=None):
        """The ``SELECT`` :meth:`iter_batches` runs."""
        table = quote_ident(self._name)
        exprs = ", ".join(["rid"] + _select_exprs(self._schema, names))
        sql = f"SELECT {exprs} FROM {table}"
        clauses = []
        if rid_table is not None:
            clauses.append(f"rid IN (SELECT rid FROM {quote_ident(rid_table)})")
        if where_sql:
            clauses.append(f"({where_sql})")
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        return sql + " ORDER BY rid"

    def iter_batches(self, columns=None, where_sql=None, rid_table=None,
                     batch_rows=STREAM_BATCH_ROWS, params=()):
        """Yield ``(rids, batch)`` pairs in rid order.

        Args:
            columns: column names to fetch (default: all, in schema
                order).
            where_sql: optional SQL predicate over the stored columns
                (callers quote identifiers; NaN-flagged FLOAT values
                appear as NULL to the predicate, and a FLOAT ``-0.0``
                as ``0.0``).
            rid_table: optional name of a temp table with a ``rid``
                column; when given, only rows whose rid appears there
                are streamed (the resident-materialization join).
            batch_rows: rows per yielded batch.
            params: values bound to ``where_sql``'s ``?`` placeholders.

        ``rids`` is an int64 numpy array of absolute row ids; ``batch``
        a :class:`ColumnBatch` holding each fetched column as one
        ``(values, nulls)`` pair of arrays.  Every fetch is transposed
        once and decoded a column at a time, never a cell at a time.
        At most one batch is in memory.
        """
        names = self._schema.names if columns is None else tuple(columns)
        sql = self._stream_sql(names, where_sql, rid_table)
        try:
            cursor = self._connection.execute(sql, params)
        except sqlite3.Error as exc:
            raise SqlRelationError(f"stream failed: {exc}\n  sql: {sql}") from exc
        while True:
            fetched = cursor.fetchmany(batch_rows)
            if not fetched:
                return
            stored = list(zip(*fetched))
            yield (
                np.array(stored[0], dtype=np.int64),
                _decode_batch(self._schema, names, stored[1:]),
            )

    def stream_plan(self, columns=None, where_sql=None, params=()):
        """sqlite's ``EXPLAIN QUERY PLAN`` detail lines for the stream
        :meth:`iter_batches` would run with these arguments."""
        names = self._schema.names if columns is None else tuple(columns)
        sql = self._stream_sql(names, where_sql)
        try:
            rows = self._connection.execute(f"EXPLAIN QUERY PLAN {sql}", params)
        except sqlite3.Error as exc:
            raise SqlRelationError(f"explain failed: {exc}\n  sql: {sql}") from exc
        return [row[3] for row in rows]

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
            zip(np.asarray(rids, dtype=np.int64).tolist()),
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
            self._materialized = ColumnBatch.concat(
                (batch for _, batch in self.iter_batches()), self._schema
            ).to_relation(self._name, self._schema)
        return self._materialized

    # -- identity --------------------------------------------------------

    def _file_summary(self):
        """``(fingerprint, zones)`` as persisted in the metadata table.

        Both are accumulated while rows stream in at build time, so a
        reopened database reads them back without touching the data
        table.  A database lacking either key (built before the zone
        map was persisted) gets one streaming pass through the same
        accumulator, which writes both keys back for later opens.
        """
        if self._summary is None:
            meta = dict(
                self._connection.execute(
                    f"SELECT key, value FROM {_META_TABLE} "
                    "WHERE key IN ('fingerprint', 'zones')"
                )
            )
            if len(meta) < 2:
                summary = _StreamingSummary(self._schema, self._zone_rows)
                for _, batch in self.iter_batches():
                    summary.update(
                        [
                            _engine_arrays(column.type, *batch.columns[column.name])
                            for column in self._schema
                        ]
                    )
                fingerprint, zones = summary.finish()
                meta = {"fingerprint": fingerprint, "zones": _dump_zones(zones)}
                self._connection.executemany(
                    f"INSERT OR REPLACE INTO {_META_TABLE} (key, value) "
                    "VALUES (?, ?)",
                    sorted(meta.items()),
                )
                self._connection.commit()
            self._summary = (meta["fingerprint"], _load_zones(meta["zones"]))
        return self._summary

    def relation_fingerprint(self):
        """Content fingerprint, bit-identical to the in-memory hash."""
        return self._file_summary()[0]

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
        """Per-zone :class:`ZoneStats` for column ``name``, from the file.

        Bit-identical to the in-memory :meth:`ShardedRelation.zone_stats`
        over the same row ranges: both come from :func:`zone_stats_of`.
        """
        return self._file_summary()[1][self._schema[name].name]

    # -- lifecycle -------------------------------------------------------

    def close(self):
        self._connection.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False
