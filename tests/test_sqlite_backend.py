"""Tests for the sqlite backend (the DBMS boundary)."""

import pytest

from repro.relational import (
    Column,
    ColumnType,
    Database,
    DatabaseError,
    Relation,
    Schema,
)


@pytest.fixture
def rel():
    schema = Schema(
        [
            Column("name", ColumnType.TEXT),
            Column("value", ColumnType.FLOAT),
            Column("active", ColumnType.BOOL),
            Column("count", ColumnType.INT),
        ]
    )
    rows = [
        {"name": "a", "value": 1.5, "active": True, "count": 3},
        {"name": "b", "value": None, "active": False, "count": 1},
        {"name": "c", "value": -2.0, "active": None, "count": 7},
    ]
    return Relation("T", schema, rows)


def stored_rows(db, name):
    """The stored table, in rid order, as value tuples (bools as 0/1)."""
    return [
        tuple(row)
        for row in db.execute(f"SELECT * FROM {name} ORDER BY rid")
    ]


class TestLoadAndFetch:
    def test_round_trip_preserves_values(self, rel):
        with Database() as db:
            db.load_relation(rel)
            stored = stored_rows(db, "T")
        assert stored == [
            (0, "a", 1.5, 1, 3),
            (1, "b", None, 0, 1),
            (2, "c", -2.0, None, 7),
        ]

    def test_bools_stored_as_integers(self, rel):
        with Database() as db:
            db.load_relation(rel)
            stored = [row[3] for row in stored_rows(db, "T")]
        # Stored as 0/1 integers; NULL stays NULL.
        assert stored == [1, 0, None]
        assert [type(value) for value in stored] == [int, int, type(None)]

    def test_int_valued_floats_come_back_as_floats(self):
        rel = Relation(
            "F",
            Schema.of(v=ColumnType.FLOAT),
            [{"v": 3.0}],
        )
        with Database() as db:
            db.load_relation(rel)
            (row,) = db.execute("SELECT v FROM F")
        assert isinstance(row["v"], float)

    def test_replace_reloads(self, rel):
        with Database() as db:
            db.load_relation(rel)
            smaller = rel.take([0], name="T")
            db.load_relation(smaller)
            assert len(stored_rows(db, "T")) == 1

    def test_unknown_relation_raises(self):
        with Database() as db:
            with pytest.raises(DatabaseError, match="no relation"):
                db.create_temp_package_table("pkg", "missing", [0])


class TestQuerying:
    def test_execute_binds_params(self, rel):
        with Database() as db:
            db.load_relation(rel)
            rows = db.execute("SELECT rid FROM T WHERE name = ?", ("b",))
            assert [row["rid"] for row in rows] == [1]

    def test_bad_sql_wrapped(self, rel):
        with Database() as db:
            db.load_relation(rel)
            with pytest.raises(DatabaseError, match="SQL failed"):
                db.execute("SELECT nope FROM T")


class TestPackageTempTable:
    def test_create_and_join(self, rel):
        with Database() as db:
            db.load_relation(rel)
            db.create_temp_package_table("pkg", "T", [2, 0])
            rows = db.execute(
                "SELECT P.pid, R.name FROM pkg P JOIN T R ON R.rid = P.rid "
                "ORDER BY P.pid"
            )
            assert [(row["pid"], row["name"]) for row in rows] == [
                (0, "c"),
                (1, "a"),
            ]
            db.drop_table("pkg")

    def test_recreate_replaces(self, rel):
        with Database() as db:
            db.load_relation(rel)
            db.create_temp_package_table("pkg", "T", [0, 1, 2])
            db.create_temp_package_table("pkg", "T", [1])
            rows = db.execute("SELECT COUNT(*) AS n FROM pkg")
            assert rows[0]["n"] == 1
