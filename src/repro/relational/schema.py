"""Relation schemas: ordered, named, typed columns."""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational.types import ColumnType


class SchemaError(Exception):
    """Raised for invalid schema definitions or unknown column lookups."""


_RESERVED_NAMES = frozenset({"rowid", "_rowid_", "oid"})


_IDENTIFIER_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)
_IDENTIFIER_STARTS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)


def quote_ident(name):
    """Quote ``name`` for direct interpolation into SQL text.

    Double-quote form with internal quotes doubled, per the SQL
    standard (sqlite honors it for every identifier position).  The
    schema layer already restricts relation and column names to ASCII
    identifier characters (:func:`_check_identifier`), but identifier
    characters alone are not enough: ``"order"`` or ``"group"`` are
    valid column names here and SQL keywords there, so every
    identifier that reaches SQL text must pass through this helper —
    never through a bare f-string.
    """
    return '"' + str(name).replace('"', '""') + '"'


def _check_identifier(name, what):
    """Validate ``name`` as a SQL-safe ASCII identifier.

    Every identifier that reaches SQL text rendering must pass this
    check, which is what lets the SQL renderer avoid quoting and
    injection concerns.  ASCII-only on purpose: ``str.isalnum`` would
    admit characters like ``'²'`` whose behaviour in SQL identifiers
    is undefined across engines.
    """
    if not name:
        raise SchemaError(f"{what} name must be non-empty")
    if name[0] not in _IDENTIFIER_STARTS:
        raise SchemaError(f"{what} name {name!r} must start with a letter or '_'")
    if not all(ch in _IDENTIFIER_CHARS for ch in name):
        raise SchemaError(
            f"{what} name {name!r} may contain only ASCII letters, digits "
            "and '_'"
        )
    if name.lower() in _RESERVED_NAMES:
        raise SchemaError(f"{what} name {name!r} is reserved by sqlite")


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: ColumnType

    def __post_init__(self):
        _check_identifier(self.name, "column")


class Schema:
    """An ordered collection of :class:`Column` with by-name lookup.

    Column names are case-sensitive (matching the in-memory relation)
    but must be unique case-insensitively so that sqlite, which folds
    identifier case, cannot produce collisions.
    """

    def __init__(self, columns):
        self._columns = tuple(columns)
        if not self._columns:
            raise SchemaError("a schema needs at least one column")
        seen = set()
        for column in self._columns:
            if not isinstance(column, Column):
                raise SchemaError(f"expected Column, got {column!r}")
            folded = column.name.lower()
            if folded in seen:
                raise SchemaError(f"duplicate column name {column.name!r}")
            seen.add(folded)
        self._by_name = {column.name: column for column in self._columns}
        self._names = tuple(column.name for column in self._columns)

    @classmethod
    def of(cls, **column_types):
        """Build a schema from keyword arguments.

        Example::

            Schema.of(name=ColumnType.TEXT, calories=ColumnType.FLOAT)
        """
        return cls([Column(name, ctype) for name, ctype in column_types.items()])

    @property
    def columns(self):
        return self._columns

    @property
    def names(self):
        return self._names

    def __len__(self):
        return len(self._columns)

    def __iter__(self):
        return iter(self._columns)

    def __contains__(self, name):
        return name in self._by_name

    def __getitem__(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; schema has {list(self.names)}"
            ) from None

    def __eq__(self, other):
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self):
        return hash(self._columns)

    def __repr__(self):
        body = ", ".join(f"{c.name}:{c.type.value}" for c in self._columns)
        return f"Schema({body})"

    def type_of(self, name):
        """Return the :class:`ColumnType` of column ``name``."""
        return self[name].type

    def numeric_names(self):
        """Names of all numeric (INT or FLOAT) columns, in schema order."""
        return tuple(c.name for c in self._columns if c.type.is_numeric)

    def validate_row(self, row):
        """Type-check a row dict against this schema.

        Raises:
            SchemaError: on missing or extra keys.
            TypeError: on a value that does not fit its column type.
        """
        missing = [name for name in self.names if name not in row]
        if missing:
            raise SchemaError(f"row is missing columns {missing}")
        extra = [key for key in row if key not in self._by_name]
        if extra:
            raise SchemaError(f"row has unknown columns {extra}")
        for column in self._columns:
            column.type.validate(row[column.name])
