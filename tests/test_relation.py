"""Tests for in-memory relations."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import (
    Column,
    ColumnType,
    Relation,
    Schema,
    SchemaError,
    relation_fingerprint,
)


@pytest.fixture
def rel():
    schema = Schema(
        [
            Column("name", ColumnType.TEXT),
            Column("value", ColumnType.FLOAT),
            Column("count", ColumnType.INT),
        ]
    )
    rows = [
        {"name": "a", "value": 1.5, "count": 3},
        {"name": "b", "value": None, "count": 1},
        {"name": "c", "value": -2.0, "count": 7},
    ]
    return Relation("T", schema, rows)


class TestConstruction:
    def test_length_and_iteration(self, rel):
        assert len(rel) == 3
        assert [row["name"] for row in rel] == ["a", "b", "c"]

    def test_indexing(self, rel):
        assert rel[0]["value"] == 1.5
        assert rel[-1]["name"] == "c"

    def test_row_tuple(self, rel):
        assert rel.row_tuple(0) == ("a", 1.5, 3)

    def test_rows_validated_against_schema(self):
        schema = Schema.of(a=ColumnType.INT)
        with pytest.raises(TypeError):
            Relation("T", schema, [{"a": "not an int"}])

    def test_relation_name_validated(self):
        schema = Schema.of(a=ColumnType.INT)
        with pytest.raises(SchemaError):
            Relation("bad name", schema, [])

    def test_empty_relation_allowed(self):
        schema = Schema.of(a=ColumnType.INT)
        assert len(Relation("T", schema, [])) == 0


class TestFromDicts:
    def test_schema_inference(self):
        rel = Relation.from_dicts(
            "T", [{"x": 1, "y": "a"}, {"x": 2.5, "y": "b"}]
        )
        assert rel.schema.type_of("x") is ColumnType.FLOAT
        assert rel.schema.type_of("y") is ColumnType.TEXT

    def test_missing_keys_become_null(self):
        rel = Relation.from_dicts("T", [{"x": 1}, {"x": 2, "y": "b"}])
        assert rel[0]["y"] is None

    def test_empty_without_schema_rejected(self):
        with pytest.raises(SchemaError):
            Relation.from_dicts("T", [])

    def test_empty_with_schema_allowed(self):
        schema = Schema.of(x=ColumnType.INT)
        rel = Relation.from_dicts("T", [], schema=schema)
        assert len(rel) == 0

    def test_column_order_is_first_seen(self):
        rel = Relation.from_dicts("T", [{"b": 1, "a": 2}])
        assert rel.schema.names == ("b", "a")


class TestColumnarAccess:
    def test_column_values(self, rel):
        assert rel.column("name") == ["a", "b", "c"]

    def test_numeric_column_nan_for_null(self, rel):
        array = rel.numeric_column("value")
        assert array[0] == 1.5
        assert math.isnan(array[1])
        assert array[2] == -2.0

    def test_numeric_column_cached(self, rel):
        assert rel.numeric_column("value") is rel.numeric_column("value")

    def test_numeric_column_rejects_text(self, rel):
        with pytest.raises(SchemaError, match="not numeric"):
            rel.numeric_column("name")

    def test_column_stats_ignores_nulls(self, rel):
        assert rel.column_stats("value") == (-2.0, 1.5)

    def test_column_stats_all_null(self):
        rel = Relation.from_dicts(
            "T", [{"v": None}], schema=Schema.of(v=ColumnType.FLOAT)
        )
        assert rel.column_stats("v") == (None, None)

    def test_int_column_as_numeric(self, rel):
        array = rel.numeric_column("count")
        assert list(array) == [3.0, 1.0, 7.0]


class TestDerivation:
    def test_filter(self, rel):
        kept = rel.filter(lambda row: row["count"] > 2)
        assert len(kept) == 2
        assert [row["name"] for row in kept] == ["a", "c"]

    def test_filter_does_not_mutate_source(self, rel):
        rel.filter(lambda row: False)
        assert len(rel) == 3

    def test_take(self, rel):
        taken = rel.take([2, 0])
        assert [row["name"] for row in taken] == ["c", "a"]

    def test_take_preserves_schema(self, rel):
        assert rel.take([0]).schema == rel.schema

    def test_head(self, rel):
        assert len(rel.head(2)) == 2
        assert len(rel.head(100)) == 3

    def test_filtered_relation_has_fresh_cache(self, rel):
        original = rel.numeric_column("value")
        kept = rel.filter(lambda row: row["name"] != "b")
        filtered = kept.numeric_column("value")
        assert len(original) == 3
        assert len(filtered) == 2


# -- columnar storage: values and types survive the round trip ---------------

INT64_MAX = 2**63 - 1

_SCHEMA = Schema(
    [
        Column("f", ColumnType.FLOAT),
        Column("i", ColumnType.INT),
        Column("b", ColumnType.BOOL),
        Column("t", ColumnType.TEXT),
    ]
)

_floats = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**53), 2**53),
    st.sampled_from([-0.0, 0.0, math.nan, 2**53 + 1, -(2**60) - 3]),
)
_ints = st.one_of(
    st.none(),
    st.integers(-1000, 1000),
    st.integers(-(2**70), 2**70),
    st.sampled_from([INT64_MAX, -INT64_MAX, -(2**63), 2**63, 0]),
)
_texts = st.one_of(
    st.none(),
    st.text(max_size=6),
    st.text(alphabet=st.characters(min_codepoint=0x10000), max_size=4),
)
_rows = st.lists(
    st.fixed_dictionaries(
        {
            "f": _floats,
            "i": _ints,
            "b": st.one_of(st.none(), st.booleans()),
            "t": _texts,
        }
    ),
    max_size=12,
)


def _same_value(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def _assert_rows(relation, rows):
    names = relation.schema.names
    assert len(relation) == len(rows)
    for index, row in enumerate(rows):
        got = relation.row_tuple(index)
        assert all(_same_value(a, row[name]) for a, name in zip(got, names)), (
            got,
            row,
        )
    assert all(
        _same_value(a, b)
        for got, row in zip(relation.row_tuples(), rows)
        for a, b in zip(got, (row[name] for name in names))
    )


def _reference_arrays(column_type, raw):
    """The engine arrays as the row-tuple store used to derive them."""
    nulls = np.array([value is None for value in raw], dtype=bool)
    if column_type is ColumnType.TEXT:
        return np.array(["" if value is None else value for value in raw]), nulls
    values = np.array(
        [np.nan if value is None else float(value) for value in raw],
        dtype=np.float64,
    )
    return values, nulls


def _assert_engine_arrays(relation, rows):
    for column in relation.schema:
        values, nulls = relation.column_arrays(column.name)
        expected, expected_nulls = _reference_arrays(
            column.type, [row[column.name] for row in rows]
        )
        assert values.dtype == expected.dtype
        assert values.tobytes() == expected.tobytes()
        assert nulls.tobytes() == expected_nulls.tobytes()
        assert not values.flags.writeable and not nulls.flags.writeable


class TestColumnarRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(rows=_rows)
    def test_row_tuple_returns_the_stored_values(self, rows):
        relation = Relation("T", _SCHEMA, rows)
        _assert_rows(relation, rows)
        for got, row in zip(relation, rows):
            assert list(got) == list(_SCHEMA.names)
            assert all(_same_value(got[name], row[name]) for name in got)
        _assert_engine_arrays(relation, rows)

    @settings(max_examples=100, deadline=None)
    @given(rows=_rows, more=_rows, data=st.data())
    def test_derivations_keep_values_and_arrays(self, rows, more, data):
        relation = Relation("T", _SCHEMA, rows)
        appended = relation.append_rows(more)
        _assert_rows(appended, rows + more)
        _assert_engine_arrays(appended, rows + more)
        assert relation_fingerprint(appended) == relation_fingerprint(
            Relation("T", _SCHEMA, rows + more)
        )
        whole = rows + more
        picks = data.draw(
            st.lists(st.integers(0, max(len(whole) - 1, 0)), max_size=8 if whole else 0)
        )
        _assert_rows(appended.take(picks), [whole[i] for i in picks])
        dropped = set(picks)
        kept = [row for index, row in enumerate(whole) if index not in dropped]
        deleted = appended.delete_rows(picks)
        _assert_rows(deleted, kept)
        _assert_engine_arrays(deleted, kept)
        tuples = [tuple(row[name] for name in _SCHEMA.names) for row in whole]
        batched = Relation.from_row_batches("T", _SCHEMA, [tuples[:3], [], tuples[3:]])
        _assert_rows(batched, whole)
        assert relation_fingerprint(batched) == relation_fingerprint(appended)


class TestColumnStorage:
    def test_float_column_keeps_ints_as_ints(self):
        rel = Relation("T", Schema.of(v=ColumnType.FLOAT), [{"v": 3}, {"v": 2.5}])
        assert [type(value) for value in rel.column("v")] == [int, float]
        assert rel.column_arrays("v")[0].tolist() == [3.0, 2.5]

    def test_int_beyond_int64_is_exact(self):
        big = 2**64 + 1
        rel = Relation("T", Schema.of(v=ColumnType.INT), [{"v": big}, {"v": None}])
        assert rel.row_tuple(0) == (big,)
        assert rel.row_tuple(-1) == (None,)
        assert rel.take([0, 0]).column("v") == [big, big]

    def test_subclass_values_read_back_unchanged(self):
        value = np.float64(1.25)
        rel = Relation("T", Schema.of(v=ColumnType.FLOAT), [{"v": value}])
        assert type(rel.row_tuple(0)[0]) is np.float64

    def test_validation_reports_the_first_bad_row(self):
        schema = Schema.of(a=ColumnType.INT, b=ColumnType.TEXT)
        with pytest.raises(TypeError, match="INT column cannot store str"):
            Relation("T", schema, [{"a": "x", "b": 1}, {"a": 1}])
        with pytest.raises(SchemaError, match="missing"):
            Relation("T", schema, [{"a": 1, "b": "x"}, {"a": 1}])
        with pytest.raises(SchemaError, match="unknown"):
            Relation("T", schema, [{"a": 1, "b": "x", "c": 2}])
        with pytest.raises(TypeError, match="boolean"):
            Relation("T", schema, [{"a": True, "b": "x"}])

    def test_from_columns_checks_dtypes(self):
        schema = Schema.of(a=ColumnType.INT, b=ColumnType.FLOAT)
        rel = Relation.from_columns(
            "T", schema, {"a": np.arange(3), "b": [0.5, None, 2]}
        )
        assert rel.rows() == [
            {"a": 0, "b": 0.5},
            {"a": 1, "b": None},
            {"a": 2, "b": 2},
        ]
        with pytest.raises(TypeError, match="INT column 'a'"):
            Relation.from_columns("T", schema, {"a": np.zeros(3), "b": [1.0] * 3})
        with pytest.raises(TypeError, match="FLOAT column cannot store str"):
            Relation.from_columns("T", schema, {"a": [1], "b": ["x"]})
        with pytest.raises(ValueError, match="length"):
            Relation.from_columns("T", schema, {"a": [1, 2], "b": [1.0]})
        with pytest.raises(SchemaError):
            Relation.from_columns("T", schema, {"a": [1]})

    def test_float_column_is_stored_once(self, rel):
        values, _ = rel.column_arrays("value")
        assert rel.numeric_column("value") is values
        assert rel.filter_mask([True, False, True]).column("value") == [1.5, -2.0]
