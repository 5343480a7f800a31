"""In-memory relations.

A :class:`Relation` is the tuple source that package queries draw from.
It stores rows row-major (tuples of values in schema order) for cheap
iteration and slicing, and lazily materializes numpy column vectors for
the columnar work the evaluation pipeline does (vectorized WHERE
filtering, cardinality-bound derivation, ILP coefficient extraction,
bulk aggregates, greedy scoring).

Columnar access comes in two flavours:

* :meth:`Relation.numeric_column` — float64 array with NULL as NaN
  (numeric columns only; the historical API).
* :meth:`Relation.column_arrays` — ``(values, nulls)`` pair for *any*
  column type, with NULL-ness tracked by an explicit boolean mask so
  legitimate NaN data is never conflated with NULL.  This is what the
  expression compiler (:mod:`repro.core.vectorize`) consumes.

Relations are immutable after construction; derived relations
(``filter``, ``filter_mask``, ``take``) share no mutable state with
their source.  "Mutation" (:meth:`Relation.append_rows`,
:meth:`Relation.delete_rows`) follows the same discipline: each call
returns a *new* relation, so everything keyed on a relation's content
(column caches, content fingerprints, the durable artifact store's
entries) stays valid for the old object and is computed fresh — or
rediscovered by content hash — for the new one.
"""

from __future__ import annotations

import numpy as np

from repro.relational.schema import Schema, SchemaError, _check_identifier
from repro.relational.types import ColumnType, infer_type

#: Aggregate reducers usable with :meth:`Relation.bulk_aggregate` and
#: :func:`aggregate_reduce`.
AGGREGATE_FUNCS = ("count", "sum", "avg", "min", "max")


def aggregate_reduce(func, values, nulls, weights=None):
    """Reduce a value vector with SQL/package aggregate semantics.

    Args:
        func: one of :data:`AGGREGATE_FUNCS`.
        values: float64 array of per-row values (entries under ``nulls``
            are ignored).
        nulls: boolean array marking SQL NULL entries.
        weights: optional per-row multiplicities (defaults to 1).

    Returns:
        A float (or int for counts), or ``None`` for NULL results:
        ``sum`` of an empty selection is 0 (matching the ILP
        translation), ``avg``/``min``/``max`` of an empty or all-NULL
        selection is ``None``.
    """
    valid = ~nulls
    if weights is None:
        total_weight = int(np.count_nonzero(valid))
    else:
        weights = np.asarray(weights, dtype=np.float64)
        total_weight = float(weights[valid].sum()) if valid.any() else 0.0
    if func == "count":
        return int(total_weight)
    if func == "sum":
        if not valid.any():
            return 0
        kept = values[valid]
        # ``inf + -inf`` is a real NaN here, not a fault to warn about.
        with np.errstate(invalid="ignore"):
            return float(kept.sum() if weights is None else kept @ weights[valid])
    if not valid.any():
        return None
    kept = values[valid]
    if func == "avg":
        with np.errstate(invalid="ignore"):
            weighted = kept.sum() if weights is None else kept @ weights[valid]
        return float(weighted / total_weight)
    if func == "min":
        return float(kept.min())
    if func == "max":
        return float(kept.max())
    raise ValueError(f"unknown aggregate function {func!r}")


class Relation:
    """An immutable named table.

    Args:
        name: relation name (must be a SQL-safe identifier).
        schema: the :class:`Schema` describing the columns.
        rows: iterable of row dicts keyed by column name.  Each row is
            validated against the schema.
    """

    def __init__(self, name, schema, rows):
        _check_identifier(name, "relation")
        self._name = name
        self._schema = schema
        packed = []
        for row in rows:
            schema.validate_row(row)
            packed.append(tuple(row[column] for column in schema.names))
        self._rows = tuple(packed)
        self._column_cache = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_dicts(cls, name, rows, schema=None):
        """Build a relation from row dicts, inferring the schema if absent.

        Schema inference uses the union of keys across all rows; a key
        absent from some row becomes NULL there.

        Raises:
            SchemaError: if ``rows`` is empty and no schema is given.
        """
        rows = list(rows)
        if schema is None:
            if not rows:
                raise SchemaError(
                    "cannot infer a schema from zero rows; pass schema="
                )
            names = []
            for row in rows:
                for key in row:
                    if key not in names:
                        names.append(key)
            from repro.relational.schema import Column

            schema = Schema(
                [
                    Column(key, infer_type(row.get(key) for row in rows))
                    for key in names
                ]
            )
        filled = [{key: row.get(key) for key in schema.names} for row in rows]
        return cls(name, schema, filled)

    @classmethod
    def _from_packed(cls, name, schema, packed):
        """Build a relation from already-validated packed row tuples.

        Internal fast path for the mutation APIs: the source rows were
        validated when the parent relation was built, so re-running
        ``schema.validate_row`` over every surviving row (the
        :meth:`take` path) would make each mutation O(n) validation on
        top of the O(n) copy.
        """
        relation = object.__new__(cls)
        relation._name = name
        relation._schema = schema
        relation._rows = tuple(packed)
        relation._column_cache = {}
        return relation

    # -- basic protocol ---------------------------------------------------

    @property
    def name(self):
        return self._name

    @property
    def schema(self):
        return self._schema

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        """Iterate over rows as dicts."""
        names = self._schema.names
        for packed in self._rows:
            yield dict(zip(names, packed))

    def __getitem__(self, index):
        """Return row ``index`` as a dict (supports negative indices)."""
        names = self._schema.names
        return dict(zip(names, self._rows[index]))

    def __repr__(self):
        return f"Relation({self._name!r}, {len(self)} rows, {self._schema!r})"

    def row_tuple(self, index):
        """Return row ``index`` as a value tuple in schema order."""
        return self._rows[index]

    def rows(self):
        """Return all rows as a list of dicts."""
        return list(self)

    # -- columnar access --------------------------------------------------

    def column(self, name):
        """Return column ``name`` as a list of values (schema order rows)."""
        position = self._schema.names.index(self._schema[name].name)
        return [row[position] for row in self._rows]

    def numeric_column(self, name):
        """Return a numeric column as a float64 numpy array.

        NULLs become NaN.  The array is cached and must not be mutated
        by callers.

        Raises:
            SchemaError: if the column is not numeric.
        """
        if name in self._column_cache:
            return self._column_cache[name]
        column = self._schema[name]
        if not column.type.is_numeric:
            raise SchemaError(f"column {name!r} is {column.type.value}, not numeric")
        values = self.column(name)
        array = np.array(
            [np.nan if value is None else float(value) for value in values],
            dtype=np.float64,
        )
        self._column_cache[name] = array
        return array

    def column_arrays(self, name):
        """Return ``(values, nulls)`` arrays for column ``name``.

        ``nulls`` is a boolean mask marking SQL NULL entries (computed
        from the stored values, so float NaN *data* is not conflated
        with NULL).  ``values`` depends on the column type:

        * INT / FLOAT — float64, with NULL entries as NaN;
        * BOOL — float64 0.0/1.0, with NULL entries as NaN;
        * TEXT — numpy unicode array, with NULL entries as ``""``.

        Both arrays are cached and must not be mutated by callers.
        """
        key = ("arrays", name)
        if key in self._column_cache:
            return self._column_cache[key]
        column = self._schema[name]
        raw = self.column(column.name)
        nulls = np.array([value is None for value in raw], dtype=bool)
        if column.type is ColumnType.TEXT:
            values = np.array(
                ["" if value is None else value for value in raw]
            )
        else:
            values = np.array(
                [
                    np.nan if value is None else float(value)
                    for value in raw
                ],
                dtype=np.float64,
            )
        nulls.setflags(write=False)
        values.setflags(write=False)
        self._column_cache[key] = (values, nulls)
        return values, nulls

    def bulk_aggregate(self, func, name, rids=None, weights=None):
        """Aggregate a numeric column over a row subset in one pass.

        Args:
            func: one of :data:`AGGREGATE_FUNCS` (lower-case names).
            name: the column to aggregate.
            rids: row indices to include (all rows when ``None``).
            weights: optional per-rid multiplicities, aligned with
                ``rids``.

        Returns:
            The aggregate with package semantics (see
            :func:`aggregate_reduce`); NULL rows are excluded, a
            ``sum`` over nothing is 0 and ``avg``/``min``/``max`` over
            nothing is ``None``.
        """
        column = self._schema[name]
        if not column.type.is_numeric and column.type is not ColumnType.BOOL:
            raise SchemaError(
                f"column {name!r} is {column.type.value}, not aggregatable"
            )
        values, nulls = self.column_arrays(name)
        if rids is not None:
            index = np.asarray(rids, dtype=np.intp)
            values = values[index]
            nulls = nulls[index]
        return aggregate_reduce(func, values, nulls, weights)

    def column_stats(self, name):
        """Return ``(min, max)`` of a numeric column, ignoring NULLs.

        Returns ``(None, None)`` for an empty or all-NULL column.
        """
        array = self.numeric_column(name)
        finite = array[~np.isnan(array)]
        if finite.size == 0:
            return (None, None)
        return (float(finite.min()), float(finite.max()))

    # -- derivation ---------------------------------------------------------

    def filter(self, predicate, name=None):
        """Return a new relation with rows where ``predicate(row)`` is true.

        ``predicate`` receives each row as a dict.
        """
        kept = [row for row in self if predicate(row)]
        return Relation(name or self._name, self._schema, kept)

    def filter_mask(self, mask, name=None):
        """Return a new relation keeping rows where ``mask`` is true.

        ``mask`` is a length-``len(self)`` boolean array (or sequence),
        e.g. a predicate mask from the vectorized expression compiler.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self._rows),):
            raise ValueError(
                f"mask length {mask.shape} does not match relation "
                f"cardinality {len(self._rows)}"
            )
        return self.take(np.flatnonzero(mask), name=name)

    def take(self, indices, name=None):
        """Return a new relation with the rows at ``indices``, in order.

        ``indices`` may be any iterable of row indices, including a
        numpy integer array.
        """
        names = self._schema.names
        kept = [dict(zip(names, self._rows[int(i)])) for i in indices]
        return Relation(name or self._name, self._schema, kept)

    def head(self, count=5):
        """Return the first ``count`` rows as dicts (for inspection)."""
        return [self[i] for i in range(min(count, len(self)))]

    # -- mutation (persistent: returns new relations) -----------------------

    def append_rows(self, rows, name=None):
        """Return a new relation with ``rows`` appended at the end.

        Args:
            rows: iterable of row dicts keyed by column name; each is
                validated against the schema (missing keys raise, as
                in the constructor — use ``None`` for NULL).
            name: optional name for the result (defaults to this
                relation's name).

        Appended rows land *after* every existing row, so every
        existing row keeps its rid — prefixes of the relation are
        bit-identical, which is what lets shard-level content hashing
        reuse artifacts for untouched shards.
        """
        appended = []
        for row in rows:
            self._schema.validate_row(row)
            appended.append(tuple(row[column] for column in self._schema.names))
        return Relation._from_packed(
            name or self._name, self._schema, self._rows + tuple(appended)
        )

    def delete_rows(self, rids, name=None):
        """Return a new relation without the rows at indices ``rids``.

        Args:
            rids: iterable of row indices to drop (duplicates allowed;
                out-of-range indices raise ``IndexError``).
            name: optional name for the result.

        Surviving rows keep their relative order; rows after a deleted
        index shift down, so only shards at or after the first deleted
        rid change content.
        """
        count = len(self._rows)
        drop = set()
        for rid in rids:
            rid = int(rid)
            if not 0 <= rid < count:
                raise IndexError(
                    f"rid {rid} out of range for relation of {count} rows"
                )
            drop.add(rid)
        if not drop:
            return self
        kept = [row for index, row in enumerate(self._rows) if index not in drop]
        return Relation._from_packed(name or self._name, self._schema, kept)
