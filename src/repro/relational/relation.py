"""In-memory relations.

A :class:`Relation` is the tuple source that package queries draw from.
It stores one typed array per column, with an explicit NULL mask:

* FLOAT — float64, NaN under NULL entries (plus a mask of the entries
  that hold Python ints, so they read back as ints);
* INT — int64, 0 under NULL entries;
* BOOL — bool, False under NULL entries;
* TEXT — an object array of the stored strings, ``None`` under NULL.

A column whose values a typed array cannot hold exactly (an INT beyond
int64, a FLOAT holding ints beyond 2^53, or values of a subclass such
as ``numpy.float64``) falls back to an object array of the values
themselves.  Rows are not stored: :meth:`Relation.row_tuple`,
``relation[i]`` and iteration build Python values on demand, with the
same values and types the relation was built from.

Columnar access comes in two flavours:

* :meth:`Relation.numeric_column` — float64 array with NULL as NaN
  (numeric columns only; the historical API).
* :meth:`Relation.column_arrays` — ``(values, nulls)`` pair for *any*
  column type, with NULL-ness tracked by an explicit boolean mask so
  legitimate NaN data is never conflated with NULL.  This is what the
  expression compiler (:mod:`repro.core.vectorize`) consumes; for a
  FLOAT column it is the storage itself, for the other types a float64
  or ``<U`` array derived once and cached.

Relations are immutable after construction; derived relations
(``filter``, ``filter_mask``, ``take``) index the parent's arrays and
share no mutable state with it.  "Mutation" (:meth:`Relation.append_rows`,
:meth:`Relation.delete_rows`) follows the same discipline: each call
returns a *new* relation, so everything keyed on a relation's content
(derived arrays, content fingerprints, the durable artifact store's
entries) stays valid for the old object and is computed fresh — or
rediscovered by content hash — for the new one.
"""

from __future__ import annotations

import numpy as np

from repro.relational.content_hash import inherit_checkpoints
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


_NONE = type(None)

#: The exact Python value types each column type stores in a typed
#: array.  Anything else a column accepts (a subclass that passes
#: :meth:`ColumnType.validate`) is kept as-is in an object array.
_TYPED = {
    ColumnType.FLOAT: frozenset({float, int, _NONE}),
    ColumnType.INT: frozenset({int, _NONE}),
    ColumnType.BOOL: frozenset({bool, _NONE}),
    ColumnType.TEXT: frozenset({str, _NONE}),
}

#: Largest magnitude up to which every int is exact in float64.
_FLOAT_EXACT_INT = 2**53


def _frozen(array):
    array.setflags(write=False)
    return array


class _ColumnStore:
    """One column's storage.

    ``values`` is float64, int64, bool or object; ``nulls`` marks SQL
    NULL entries; ``ints`` (FLOAT columns only, else ``None``) marks the
    entries that were Python ints.  All three are read-only.
    """

    __slots__ = ("values", "nulls", "ints")

    def __init__(self, values, nulls, ints=None):
        self.values = _frozen(values)
        self.nulls = _frozen(nulls)
        self.ints = None if ints is None or not ints.any() else _frozen(ints)

    @classmethod
    def of_objects(cls, values):
        """Keep ``values`` exactly as given, ``None`` for NULL."""
        array = np.empty(len(values), dtype=object)
        array[:] = values
        nulls = np.fromiter((value is None for value in values), bool, len(values))
        return cls(array, nulls)

    def __len__(self):
        return len(self.nulls)

    @property
    def is_object(self):
        return self.values.dtype == object

    def value(self, index):
        """The Python value at ``index``."""
        if self.nulls.item(index):
            return None
        if self.ints is not None and self.ints.item(index):
            return int(self.values.item(index))
        return self.values.item(index)

    def reader(self):
        """The cheapest callable mapping an index to its Python value:
        the array's own ``item`` where no NULL or int needs patching."""
        if self.is_object or (self.ints is None and not self.nulls.any()):
            return self.values.item
        return self.value

    def to_list(self, start=None, stop=None):
        """Python values of rows ``[start, stop)``."""
        span = slice(start, stop)
        out = self.values[span].tolist()
        if not self.is_object:
            for index in np.flatnonzero(self.nulls[span]).tolist():
                out[index] = None
            if self.ints is not None:
                for index in np.flatnonzero(self.ints[span]).tolist():
                    out[index] = int(out[index])
        return out

    def select(self, index):
        """The entries at ``index`` (an integer array or a boolean mask)."""
        return _ColumnStore(
            self.values[index],
            self.nulls[index],
            None if self.ints is None else self.ints[index],
        )

    def engine_arrays(self, column_type):
        """``(values, nulls)`` as :meth:`Relation.column_arrays` hands
        them to the kernels: float64 with NaN under NULL, or ``<U``
        with ``""`` under NULL for TEXT."""
        if column_type is ColumnType.TEXT:
            values = np.array(
                ["" if value is None else value for value in self.values.tolist()]
            )
        elif self.values.dtype == np.float64:
            return self.values, self.nulls
        elif self.is_object:
            values = np.array(
                [
                    np.nan if value is None else float(value)
                    for value in self.values.tolist()
                ],
                dtype=np.float64,
            )
        else:
            values = self.values.astype(np.float64)
            values[self.nulls] = np.nan
        return _frozen(values), self.nulls


def _store_values(column_type, values, types=None):
    """Storage for one column of Python values (``None`` is NULL).

    The set of value types is checked against the column type once;
    only a column holding some other type is validated value by value,
    which raises the usual :meth:`ColumnType.validate` error or, for an
    accepted subclass, keeps the values in an object array.
    """
    if types is None:
        types = set(map(type, values))
    if not types <= _TYPED[column_type]:
        for value in values:
            column_type.validate(value)
        return _ColumnStore.of_objects(values)
    if column_type is ColumnType.TEXT:
        return _ColumnStore.of_objects(values)
    count = len(values)
    if _NONE in types:
        nulls = np.fromiter((value is None for value in values), bool, count)
    else:
        nulls = np.zeros(count, dtype=bool)
    if column_type is ColumnType.FLOAT:
        ints = None
        if int in types:
            if any(
                abs(value) > _FLOAT_EXACT_INT
                for value in values
                if type(value) is int
            ):
                return _ColumnStore.of_objects(values)
            ints = np.fromiter((type(value) is int for value in values), bool, count)
        if _NONE in types:
            values = [np.nan if value is None else value for value in values]
        return _ColumnStore(np.array(values, dtype=np.float64), nulls, ints)
    if column_type is ColumnType.INT:
        filled = values
        if _NONE in types:
            filled = [0 if value is None else value for value in values]
        try:
            array = np.array(filled, dtype=np.int64)
        except OverflowError:
            return _ColumnStore.of_objects(values)
        return _ColumnStore(array, nulls)
    if _NONE in types:
        values = [False if value is None else value for value in values]
    return _ColumnStore(np.array(values, dtype=bool), nulls)


#: The numpy dtype kind :meth:`Relation.from_columns` accepts per column
#: type, and the dtype a numeric column is stored as.
_ARRAY_KINDS = {
    ColumnType.FLOAT: ("f", np.float64),
    ColumnType.INT: ("i", np.int64),
    ColumnType.BOOL: ("b", bool),
    ColumnType.TEXT: ("U", None),
}


def _store_array(column, array):
    """Storage for a NULL-free numpy column, checking its dtype."""
    kind, dtype = _ARRAY_KINDS[column.type]
    if array.ndim != 1 or array.dtype.kind != kind:
        raise TypeError(
            f"{column.type.value} column {column.name!r} cannot be built from "
            f"a {array.ndim}-d {array.dtype} array"
        )
    if dtype is None:
        return _ColumnStore.of_objects(array.tolist())
    return _ColumnStore(array.astype(dtype), np.zeros(len(array), dtype=bool))


def _concat(stores):
    """One store holding ``stores`` end to end."""
    if len(stores) == 1:
        return stores[0]
    dtypes = {store.values.dtype for store in stores}
    if len(dtypes) > 1:
        return _ColumnStore.of_objects(
            [value for store in stores for value in store.to_list()]
        )
    ints = None
    if any(store.ints is not None for store in stores):
        ints = np.concatenate(
            [
                np.zeros(len(store), dtype=bool) if store.ints is None else store.ints
                for store in stores
            ]
        )
    return _ColumnStore(
        np.concatenate([store.values for store in stores]),
        np.concatenate([store.nulls for store in stores]),
        ints,
    )


class Relation:
    """An immutable named table.

    Args:
        name: relation name (must be a SQL-safe identifier).
        schema: the :class:`Schema` describing the columns.
        rows: iterable of row dicts keyed by column name.  Each row must
            carry exactly the schema's columns, and each value must fit
            its column type (``None`` is NULL).
    """

    def __init__(self, name, schema, rows):
        _check_identifier(name, "relation")
        rows = list(rows)
        names = schema.names
        try:
            columns = [[row[name] for row in rows] for name in names]
            typesets = [set(map(type, values)) for values in columns]
        except KeyError:
            columns = typesets = None
        fits = (
            columns is not None
            and all(len(row) == len(names) for row in rows)
            and all(
                types <= _TYPED[column.type]
                for column, types in zip(schema, typesets)
            )
        )
        if not fits:
            # Validate row by row: this raises the first error in row
            # order, or passes when the only misfits are accepted
            # subclasses of their column's type.
            for row in rows:
                schema.validate_row(row)
        self._init(
            name,
            schema,
            len(rows),
            [
                _store_values(column.type, values, types)
                for column, values, types in zip(schema, columns, typesets)
            ],
        )

    def _init(self, name, schema, count, stores):
        self._name = name
        self._schema = schema
        self._count = count
        self._stores = tuple(stores)
        self._readers = None
        # Lazily derived, content-determined values: the engine arrays
        # of non-FLOAT columns, the content fingerprints and the
        # relation hash's checkpoints.
        self._derived = {}

    @classmethod
    def _of_stores(cls, name, schema, count, stores):
        relation = object.__new__(cls)
        relation._init(name, schema, count, stores)
        return relation

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
    def from_columns(cls, name, schema, columns):
        """Build a relation from whole columns.

        Args:
            name: relation name (SQL-safe identifier).
            schema: the :class:`Schema`.
            columns: mapping from every schema column name to either a
                one-dimensional numpy array, which holds no NULLs and
                must match the column type (FLOAT a float array, INT a
                signed integer array, BOOL a bool array, TEXT a ``<U``
                array), or a sequence of Python values with ``None``
                for NULL, type-checked like the row constructor's.

        Raises:
            SchemaError: on missing or unknown column names.
            TypeError: on an array of the wrong dtype or a value that
                does not fit its column type.
            ValueError: when the columns differ in length.
        """
        _check_identifier(name, "relation")
        missing = [column for column in schema.names if column not in columns]
        if missing:
            raise SchemaError(f"columns missing: {missing}")
        extra = [key for key in columns if key not in schema]
        if extra:
            raise SchemaError(f"unknown columns {extra}")
        stores = []
        for column in schema:
            data = columns[column.name]
            if isinstance(data, np.ndarray) and data.dtype != object:
                stores.append(_store_array(column, data))
            else:
                if not isinstance(data, (list, tuple)):
                    data = list(data)
                stores.append(_store_values(column.type, data))
        lengths = {len(store) for store in stores}
        if len(lengths) > 1:
            raise ValueError(f"columns differ in length: {sorted(lengths)}")
        return cls._of_stores(name, schema, lengths.pop(), stores)

    @classmethod
    def from_row_batches(cls, name, schema, batches):
        """Build a relation from batches of row tuples in schema order.

        Each batch becomes typed columns as it arrives (values are
        type-checked one column at a time), and the batches' columns
        are concatenated at the end.  Batches take the shape
        :meth:`SqlRelation.from_row_batches
        <repro.relational.sql_relation.SqlRelation.from_row_batches>`
        loads; a sql-backed relation streams columns back out, which
        :meth:`from_columns` builds from.

        Raises:
            ValueError: on a row whose width is not the schema's.
            TypeError: on a value that does not fit its column type.
        """
        _check_identifier(name, "relation")
        width = len(schema)
        parts = []
        for rows in batches:
            if not rows:
                continue
            if any(len(row) != width for row in rows):
                raise ValueError(f"row tuples of {name!r} must have {width} values")
            parts.append(
                [
                    _store_values(column.type, values)
                    for column, values in zip(schema, zip(*rows))
                ]
            )
        if not parts:
            return cls(name, schema, [])
        stores = [_concat(list(pieces)) for pieces in zip(*parts)]
        return cls._of_stores(name, schema, len(stores[0]), stores)

    # -- basic protocol ---------------------------------------------------

    @property
    def name(self):
        return self._name

    @property
    def schema(self):
        return self._schema

    def __len__(self):
        return self._count

    def __iter__(self):
        """Iterate over rows as dicts."""
        names = self._schema.names
        for values in self.row_tuples():
            yield dict(zip(names, values))

    def __getitem__(self, index):
        """Return row ``index`` as a dict (supports negative indices)."""
        return dict(zip(self._schema.names, self.row_tuple(index)))

    def __repr__(self):
        return f"Relation({self._name!r}, {len(self)} rows, {self._schema!r})"

    def row_tuple(self, index):
        """Return row ``index`` as a value tuple in schema order."""
        if self._readers is None:
            self._readers = tuple(store.reader() for store in self._stores)
        return tuple([read(index) for read in self._readers])

    def row_tuples(self, start=0, stop=None):
        """Return rows ``[start, stop)`` as value tuples in schema order.

        Built a column at a time, so it is the cheap way to read many
        consecutive rows.
        """
        return list(zip(*(store.to_list(start, stop) for store in self._stores)))

    def rows(self):
        """Return all rows as a list of dicts."""
        return list(self)

    # -- columnar access --------------------------------------------------

    def _store(self, name):
        return self._stores[self._schema.names.index(self._schema[name].name)]

    def column(self, name):
        """Return column ``name`` as a list of values (schema order rows)."""
        return self._store(name).to_list()

    def numeric_column(self, name):
        """Return a numeric column as a float64 numpy array.

        NULLs become NaN.  The array is read-only.

        Raises:
            SchemaError: if the column is not numeric.
        """
        column = self._schema[name]
        if not column.type.is_numeric:
            raise SchemaError(f"column {name!r} is {column.type.value}, not numeric")
        return self.column_arrays(name)[0]

    def column_arrays(self, name):
        """Return ``(values, nulls)`` arrays for column ``name``.

        ``nulls`` is a boolean mask marking SQL NULL entries (so float
        NaN *data* is not conflated with NULL).  ``values`` depends on
        the column type:

        * INT / FLOAT — float64, with NULL entries as NaN;
        * BOOL — float64 0.0/1.0, with NULL entries as NaN;
        * TEXT — numpy unicode array, with NULL entries as ``""``.

        Both arrays are read-only: a FLOAT column's are its storage,
        the others are derived on first use and cached.
        """
        column = self._schema[name]
        arrays = self._derived.get(column.name)
        if arrays is None:
            arrays = self._store(column.name).engine_arrays(column.type)
            self._derived[column.name] = arrays
        return arrays

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

    def _select(self, index, name=None):
        """A new relation of the rows ``index`` picks (integer array or
        boolean mask), every column indexed the same way."""
        stores = [store.select(index) for store in self._stores]
        return Relation._of_stores(
            name or self._name, self._schema, len(stores[0]), stores
        )

    def filter(self, predicate, name=None):
        """Return a new relation with rows where ``predicate(row)`` is true.

        ``predicate`` receives each row as a dict.
        """
        mask = np.fromiter(
            (bool(predicate(row)) for row in self), dtype=bool, count=self._count
        )
        return self._select(mask, name=name)

    def filter_mask(self, mask, name=None):
        """Return a new relation keeping rows where ``mask`` is true.

        ``mask`` is a length-``len(self)`` boolean array (or sequence),
        e.g. a predicate mask from the vectorized expression compiler.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._count,):
            raise ValueError(
                f"mask length {mask.shape} does not match relation "
                f"cardinality {self._count}"
            )
        return self._select(mask, name=name)

    def take(self, indices, name=None):
        """Return a new relation with the rows at ``indices``, in order.

        ``indices`` may be any iterable of row indices, including a
        numpy integer array; negative indices count from the end.
        """
        if not isinstance(indices, np.ndarray):
            indices = list(indices)
        return self._select(np.asarray(indices, dtype=np.intp), name=name)

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
        appended = Relation(name or self._name, self._schema, rows)
        stores = [
            _concat([mine, theirs])
            for mine, theirs in zip(self._stores, appended._stores)
        ]
        relation = Relation._of_stores(
            appended.name, self._schema, self._count + len(appended), stores
        )
        inherit_checkpoints(self, relation, self._count)
        if self._count and appended._count:
            # Engine arrays this relation built from Python values (TEXT,
            # numeric columns not stored as float64) extend by the
            # appended rows' own: two fresh builds end to end are exactly
            # a fresh build of the whole, without converting every value
            # again.  An empty relation's TEXT engine array is float64,
            # so neither side may be empty.
            for column, store in zip(self._schema, stores):
                arrays = self._derived.get(column.name)
                if arrays is None or store.values.dtype == np.float64:
                    continue
                tail = appended.column_arrays(column.name)[0]
                relation._derived[column.name] = (
                    _frozen(np.concatenate([arrays[0], tail])),
                    store.nulls,
                )
        return relation

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
        count = self._count
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
        keep = np.ones(count, dtype=bool)
        keep[list(drop)] = False
        relation = self._select(keep, name=name)
        inherit_checkpoints(self, relation, min(drop))
        return relation
