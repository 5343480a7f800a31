"""sqlite-backed storage: the DBMS the package engine talks SQL to.

The PackageBuilder paper positions the system as "an external module
which communicates with the DBMS, where the data resides, via SQL"
(Section 4).  This module is that boundary for the paper's two SQL
algorithms: the ``sql`` strategy's generate-and-validate self-join
(:mod:`repro.core.sql_generate`) and the local-search replacement
query (:func:`repro.core.local_search.sql_k_swap`).  Relations are
materialized into sqlite tables with an explicit ``rid`` column that
records the in-memory row index, so SQL-produced packages map back to
:class:`repro.relational.relation.Relation` rows.  Neither algorithm
decides WHERE here: sqlite stores float NaN as NULL, so the engine's
kernels choose the candidates and the SQL only reads their rids.

Every identifier that reaches SQL text goes through
:func:`repro.relational.schema.quote_ident`: schema validation already
restricts names to ASCII identifier characters, but a column named
``order`` or ``group`` is still a SQL keyword, and quoting is what
makes it (and any future caller-supplied temp-table name) safe to
interpolate.

:meth:`Database.load_relation` inserts ``executemany`` chunks built
from :meth:`~repro.relational.relation.Relation.row_tuples`.  The
out-of-core relation, whose table is the data itself and is streamed
in batches by
:meth:`~repro.relational.sql_relation.SqlRelation.iter_batches`, lives
in :mod:`repro.relational.sql_relation`.
"""

from __future__ import annotations

import sqlite3

from repro.relational.schema import quote_ident

#: Rows per executemany chunk.  Large enough to amortize
#: the sqlite statement overhead, small enough that a batch is noise
#: next to the page cache.
BATCH_ROWS = 4096


class DatabaseError(Exception):
    """Raised for backend failures (bad SQL, unknown tables, ...)."""


class Database:
    """A sqlite connection holding materialized relations.

    Usage::

        db = Database()                    # in-memory
        db.load_relation(recipes)
        rows = db.execute("SELECT rid FROM Recipes WHERE rid < ?", (3,))
    """

    def __init__(self, path=":memory:"):
        self._connection = sqlite3.connect(path)
        self._connection.row_factory = sqlite3.Row
        self._schemas = {}

    def close(self):
        self._connection.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    # -- relation management -----------------------------------------------

    def load_relation(self, relation, replace=True, batch_rows=BATCH_ROWS):
        """Materialize ``relation`` as a sqlite table named after it.

        The table gets an extra ``rid INTEGER PRIMARY KEY`` column equal
        to the row's index in the in-memory relation.  Rows are
        inserted in ``executemany`` batches of ``batch_rows`` built
        from :meth:`Relation.row_tuples` (no per-row dicts).
        """
        name = relation.name
        table = quote_ident(name)
        if replace:
            self._connection.execute(f"DROP TABLE IF EXISTS {table}")
        columns = ", ".join(
            f"{quote_ident(column.name)} {column.type.sql_name}"
            for column in relation.schema
        )
        self._connection.execute(
            f"CREATE TABLE {table} (rid INTEGER PRIMARY KEY, {columns})"
        )
        placeholders = ", ".join(["?"] * (len(relation.schema) + 1))
        insert = f"INSERT INTO {table} VALUES ({placeholders})"
        total = len(relation)
        for start in range(0, total, batch_rows):
            stop = min(start + batch_rows, total)
            batch = [
                (rid,)
                + tuple(
                    int(value) if isinstance(value, bool) else value
                    for value in values
                )
                for rid, values in enumerate(
                    relation.row_tuples(start, stop), start
                )
            ]
            self._connection.executemany(insert, batch)
        self._connection.commit()
        self._schemas[name] = relation.schema

    def schema_of(self, name):
        try:
            return self._schemas[name]
        except KeyError:
            raise DatabaseError(f"no relation {name!r} loaded") from None

    # -- querying ------------------------------------------------------------

    def execute(self, sql, params=()):
        """Run arbitrary SQL, returning a list of sqlite3.Row.

        Raises:
            DatabaseError: wrapping any sqlite error, with the SQL text.
        """
        try:
            cursor = self._connection.execute(sql, params)
            return cursor.fetchall()
        except sqlite3.Error as exc:
            raise DatabaseError(f"SQL failed: {exc}\n  sql: {sql}") from exc

    def create_temp_package_table(self, table_name, relation_name, rids):
        """Materialize a candidate package as a temp table of rids.

        Used by the paper's local-search SQL query (Section 4.2), which
        joins the current package ``P0`` against the base relation.
        """
        self.schema_of(relation_name)
        table = quote_ident(table_name)
        self._connection.execute(f"DROP TABLE IF EXISTS {table}")
        self._connection.execute(
            f"CREATE TEMP TABLE {table} (pid INTEGER PRIMARY KEY, rid INTEGER)"
        )
        self._connection.executemany(
            f"INSERT INTO {table} (pid, rid) VALUES (?, ?)",
            list(enumerate(rids)),
        )
        self._connection.commit()

    def drop_table(self, table_name):
        self._connection.execute(f"DROP TABLE IF EXISTS {quote_ident(table_name)}")
        self._connection.commit()

