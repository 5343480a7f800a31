"""SqlRelation backend: round-trips, identity, zone-map parity.

The contract under test: a sql-backed relation is *indistinguishable*
from its in-memory twin at every interface the engine consumes — row
values (including NaN, ±inf, NULL and hostile TEXT), content
fingerprint, and zone statistics — while never materializing the
table.
"""

import math
import sqlite3

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.vectorize import UnsupportedExpression
from repro.relational.content_hash import relation_fingerprint
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema, SchemaError
from repro.relational.sharding import ShardedRelation
from repro.relational.sql_relation import (
    STREAM_BATCH_ROWS,
    SqlRelation,
    SqlRelationError,
)
from repro.relational.types import ColumnType

SCHEMA = Schema.of(
    label=ColumnType.TEXT,
    calories=ColumnType.FLOAT,
    servings=ColumnType.INT,
    vegan=ColumnType.BOOL,
)


def make_relation(rows, name="Meals"):
    return Relation(name, SCHEMA, rows)


HOSTILE_ROWS = [
    {"label": "plain", "calories": 100.0, "servings": 2, "vegan": True},
    {"label": "o'brien; DROP", "calories": float("nan"), "servings": None, "vegan": False},
    {"label": None, "calories": float("inf"), "servings": -3, "vegan": None},
    {"label": 'quo"ted', "calories": float("-inf"), "servings": 7, "vegan": True},
    {"label": "", "calories": None, "servings": 0, "vegan": False},
]


def values_equal(left, right):
    if isinstance(left, float) and isinstance(right, float):
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        return left == right
    return left == right and type(left) is type(right)


class TestRoundTrip:
    def test_rows_round_trip_bit_identically(self):
        relation = make_relation(HOSTILE_ROWS)
        sql = SqlRelation.from_relation(relation)
        assert len(sql) == len(relation)
        assert sql.name == relation.name
        assert sql.schema == relation.schema
        for rid in range(len(relation)):
            expected = relation.row_tuple(rid)
            actual = sql.row_tuple(rid)
            assert all(values_equal(a, e) for a, e in zip(actual, expected))

    def test_getitem_returns_engine_typed_dict(self):
        sql = SqlRelation.from_relation(make_relation(HOSTILE_ROWS))
        row = sql[1]
        assert math.isnan(row["calories"])  # NaN survives the NULL binding
        assert row["servings"] is None
        assert row["vegan"] is False and isinstance(row["vegan"], bool)
        assert sql[0]["vegan"] is True

    def test_negative_index_and_out_of_range(self):
        sql = SqlRelation.from_relation(make_relation(HOSTILE_ROWS))
        assert sql[-1] == sql[len(sql) - 1]
        with pytest.raises(IndexError):
            sql.row_tuple(len(sql))

    def test_materialize_rebuilds_the_relation(self):
        relation = make_relation(HOSTILE_ROWS)
        sql = SqlRelation.from_relation(relation)
        rebuilt = sql.materialize()
        assert len(rebuilt) == len(relation)
        for rid in range(len(relation)):
            assert all(
                values_equal(a, e)
                for a, e in zip(rebuilt.row_tuple(rid), relation.row_tuple(rid))
            )
        assert sql.materialize() is rebuilt  # cached

    def test_open_reattaches_with_metadata(self, tmp_path):
        path = str(tmp_path / "meals.db")
        relation = make_relation(HOSTILE_ROWS)
        built = SqlRelation.from_relation(relation, path=path)
        fingerprint = built.relation_fingerprint()
        built.close()
        with SqlRelation.open(path) as reopened:
            assert reopened.name == "Meals"
            assert reopened.schema == SCHEMA
            assert len(reopened) == len(relation)
            # Persisted fingerprint: no rescan needed on reopen.
            assert reopened.relation_fingerprint() == fingerprint
            assert math.isnan(reopened[1]["calories"])

    def test_open_rejects_non_sqlrelation_database(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "other.db")
        sqlite3.connect(path).execute("CREATE TABLE t (x)").connection.close()
        with pytest.raises(SqlRelationError, match="_repro_meta"):
            SqlRelation.open(path)

    def test_nan_flag_collision_is_rejected(self):
        schema = Schema(
            [Column("v", ColumnType.FLOAT), Column("v__nan", ColumnType.INT)]
        )
        relation = Relation("Bad", schema, [{"v": 1.0, "v__nan": 0}])
        with pytest.raises(SqlRelationError, match="collides"):
            SqlRelation.from_relation(relation)

    def test_keyword_column_names_are_quoted(self):
        schema = Schema.of(order=ColumnType.INT, group=ColumnType.TEXT)
        relation = Relation(
            "Keywords", schema, [{"order": i, "group": f"g{i}"} for i in range(5)]
        )
        sql = SqlRelation.from_relation(relation)
        assert sql.row_tuple(3) == (3, "g3")
        sql.ensure_indexes(["order"])
        assert sql.count_where('"order" >= 2') == 3


class TestStreaming:
    def test_iter_batches_streams_in_rid_order(self):
        relation = make_relation(HOSTILE_ROWS * 4)
        sql = SqlRelation.from_relation(relation)
        seen = []
        for rids, rows in sql.iter_batches(batch_rows=3):
            assert len(rids) == len(rows) <= 3
            seen.extend(zip(rids.tolist(), rows))
        assert [rid for rid, _ in seen] == list(range(len(relation)))
        for rid, row in seen:
            assert all(
                values_equal(a, e) for a, e in zip(row, relation.row_tuple(rid))
            )

    def test_iter_batches_column_subset_and_where(self):
        relation = make_relation(HOSTILE_ROWS)
        sql = SqlRelation.from_relation(relation)
        batches = list(
            sql.iter_batches(columns=["servings"], where_sql='"servings" > 0')
        )
        rids = np.concatenate([rids for rids, _ in batches])
        assert rids.tolist() == [0, 3]
        assert [rows for _, rows in batches] == [[(2,), (7,)]]

    def test_rid_table_restricts_the_stream(self):
        sql = SqlRelation.from_relation(make_relation(HOSTILE_ROWS))
        table = sql.create_temp_rid_table([0, 2, 4])
        rids = np.concatenate(
            [rids for rids, _ in sql.iter_batches(rid_table=table)]
        )
        assert rids.tolist() == [0, 2, 4]
        sql.drop_temp_table(table)

    def test_from_row_batches_streams_without_materializing(self):
        rows = [(f"r{i}", float(i), i, i % 2 == 0) for i in range(100)]

        def batches():
            for start in range(0, 100, 7):
                yield rows[start : start + 7]

        sql = SqlRelation.from_row_batches("Streamed", SCHEMA, batches())
        assert len(sql) == 100
        assert sql.row_tuple(42) == ("r42", 42.0, 42, True)

    def test_from_row_batches_validates_types(self):
        with pytest.raises(TypeError):
            SqlRelation.from_row_batches(
                "BadTypes", SCHEMA, [[("ok", "not-a-float", 1, True)]]
            )

    def test_column_arrays_raises_unsupported(self):
        sql = SqlRelation.from_relation(make_relation(HOSTILE_ROWS))
        with pytest.raises(UnsupportedExpression):
            sql.column_arrays("calories")
        with pytest.raises(SchemaError):
            sql.column_arrays("nope")


class TestIdentity:
    def test_fingerprint_matches_in_memory_twin(self):
        relation = make_relation(HOSTILE_ROWS * 3)
        sql = SqlRelation.from_relation(relation)
        assert sql.relation_fingerprint() == relation_fingerprint(relation)
        # The module-level helper delegates to the backend's method.
        assert relation_fingerprint(sql) == relation_fingerprint(relation)

    def test_fingerprint_distinguishes_content(self):
        base = make_relation(HOSTILE_ROWS)
        changed_rows = [dict(row) for row in HOSTILE_ROWS]
        changed_rows[2]["servings"] = -4
        changed = make_relation(changed_rows)
        assert (
            SqlRelation.from_relation(base).relation_fingerprint()
            != SqlRelation.from_relation(changed).relation_fingerprint()
        )

    def test_fingerprint_ignores_build_path(self):
        relation = make_relation(HOSTILE_ROWS * 5)

        def batches():
            for start in range(0, len(relation), 3):
                yield [
                    relation.row_tuple(rid)
                    for rid in range(start, min(start + 3, len(relation)))
                ]

        streamed = SqlRelation.from_row_batches("Meals", SCHEMA, batches())
        assert streamed.relation_fingerprint() == relation_fingerprint(relation)


ROW = st.fixed_dictionaries(
    {
        "label": st.one_of(st.none(), st.text(max_size=8)),
        "calories": st.one_of(
            st.none(),
            st.floats(allow_nan=True, allow_infinity=True, width=64),
        ),
        "servings": st.one_of(st.none(), st.integers(-(2**40), 2**40)),
        "vegan": st.one_of(st.none(), st.booleans()),
    }
)


def assert_zones_equal(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.count == want.count
        assert got.null_count == want.null_count
        assert values_equal(got.minimum, want.minimum)
        assert values_equal(got.maximum, want.maximum)
        assert values_equal(got.total, want.total)


#: Nine floats whose sum depends on the order of addition: a
#: left-to-right sum loses every 1.0 against 1e16, numpy's pairwise
#: sum keeps six of them.
ORDER_SENSITIVE_ROWS = [
    {"label": None, "calories": value, "servings": 1, "vegan": None}
    for value in [1e16] + [1.0] * 7 + [-1e16]
] * 2


class TestZoneParity:
    @staticmethod
    def assert_zone_parity(rows, zone_rows, batch_rows=STREAM_BATCH_ROWS):
        relation = make_relation(rows)
        sql = SqlRelation.from_relation(
            relation, zone_rows=zone_rows, batch_rows=batch_rows
        )
        slices = [
            slice(*sql.zone_slice(index)) for index in range(sql.num_zones())
        ]
        sharded = ShardedRelation(relation, len(slices), slices=slices)
        for column in SCHEMA.names:
            assert_zones_equal(sql.zone_stats(column), sharded.zone_stats(column))

    def test_zone_stats_match_in_memory_shards(self):
        self.assert_zone_parity(HOSTILE_ROWS * 7, zone_rows=4)

    def test_single_zone_covers_everything(self):
        self.assert_zone_parity(HOSTILE_ROWS, zone_rows=1024)

    def test_large_zone_total_is_bit_identical(self):
        values = np.random.default_rng(26).uniform(-1e3, 1e3, 5000)
        rows = [
            {"label": "x", "calories": float(value), "servings": 1, "vegan": True}
            for value in values
        ]
        self.assert_zone_parity(rows, zone_rows=5000)

    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(ROW, min_size=1, max_size=40), zone_rows=st.integers(1, 9))
    def test_zone_stats_parity_property(self, rows, zone_rows):
        self.assert_zone_parity(rows, zone_rows)

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(ROW, min_size=1, max_size=60),
        zone_rows=st.integers(1, 12),
        batch_rows=st.integers(1, 12),
    )
    @example(rows=ORDER_SENSITIVE_ROWS, zone_rows=9, batch_rows=4)
    def test_batch_boundaries_never_move_a_zone(self, rows, zone_rows, batch_rows):
        self.assert_zone_parity(rows, zone_rows, batch_rows=batch_rows)

    def test_empty_relation_has_no_zones(self):
        sql = SqlRelation.from_relation(make_relation([]))
        assert sql.num_zones() == 0
        assert sql.zone_stats("calories") == ()


class TestOlderFiles:
    """Files built before the zone map was persisted still open."""

    def test_missing_summary_is_rebuilt_once_and_persisted(self, tmp_path):
        path = str(tmp_path / "meals.db")
        relation = make_relation(HOSTILE_ROWS * 7)
        fresh = SqlRelation.from_relation(relation, zone_rows=4)
        SqlRelation.from_relation(relation, path=path, zone_rows=4).close()
        connection = sqlite3.connect(path)
        connection.execute(
            "DELETE FROM _repro_meta WHERE key IN ('zones', 'fingerprint')"
        )
        connection.commit()
        connection.close()

        with SqlRelation.open(path) as reopened:
            for column in SCHEMA.names:
                assert_zones_equal(
                    reopened.zone_stats(column), fresh.zone_stats(column)
                )
            assert reopened.relation_fingerprint() == fresh.relation_fingerprint()
            keys = {
                key
                for (key,) in reopened.connection.execute(
                    "SELECT key FROM _repro_meta"
                )
            }
            assert {"zones", "fingerprint"} <= keys

        with SqlRelation.open(path) as third:
            statements = []
            third.connection.set_trace_callback(statements.append)
            for column in SCHEMA.names:
                assert_zones_equal(third.zone_stats(column), fresh.zone_stats(column))
            assert third.relation_fingerprint() == fresh.relation_fingerprint()
            third.connection.set_trace_callback(None)
        assert statements  # the metadata read is traced ...
        assert not [s for s in statements if '"Meals"' in s]  # ... the data is not
