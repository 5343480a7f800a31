"""Content hashing: equality iff bit-identical columns, shard merge rule.

The properties the durable store's keying rests on:

* **Soundness** — any visible difference (one value, one NULL flag,
  one extra row, a swapped column) changes the digest.
* **Completeness** — invisible differences (NaN bit patterns, payload
  bytes under NULL slots, numpy's fixed-width TEXT padding, array
  object identity) do *not* change the digest.
* **Composability** — feeding a column's shards in row order through
  one :class:`ColumnHasher` yields exactly the whole-column digest,
  at every split point; and a shard's :func:`range_fingerprint` is a
  function of its content alone, not its offset in the relation.
* **Incrementality** — a mutated relation's hash, resumed from the
  checkpoints it inherited, and a mutated sharded view's inherited
  shard fingerprints equal a fresh recompute over the same rows.
"""

from __future__ import annotations

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import clustered_relation
from repro.relational import (
    Column,
    ColumnType,
    Relation,
    Schema,
    column_digest,
    merge_digests,
    range_fingerprint,
    relation_fingerprint,
)
from repro.relational import content_hash
from repro.relational.content_hash import ColumnHasher, column_kind
from repro.relational.sharding import ShardedRelation

# -- strategies ------------------------------------------------------------

_value = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.integers(-(10**6), 10**6).map(float),
)
_cell = st.one_of(st.none(), _value)
_column = st.lists(_cell, min_size=0, max_size=40)


def _arrays(cells):
    nulls = np.array([cell is None for cell in cells], dtype=bool)
    values = np.array(
        [np.nan if cell is None else cell for cell in cells],
        dtype=np.float64,
    )
    return values, nulls


# -- soundness: visible differences change the digest ----------------------


class TestSoundness:
    @given(_column, st.data())
    @settings(max_examples=150, deadline=None)
    def test_value_perturbation_changes_digest(self, cells, data):
        values, nulls = _arrays(cells)
        baseline = column_digest(values, nulls)
        if not cells:
            return
        index = data.draw(st.integers(0, len(cells) - 1))
        perturbed = values.copy()
        changed_nulls = nulls.copy()
        if nulls[index]:
            # Turning a NULL into a value must change the digest.
            changed_nulls[index] = False
            perturbed[index] = 0.0
        else:
            perturbed[index] = np.nextafter(values[index], np.inf)
        assert column_digest(perturbed, changed_nulls) != baseline

    @given(_column)
    @settings(max_examples=100, deadline=None)
    def test_extra_row_changes_digest(self, cells):
        values, nulls = _arrays(cells)
        longer_values, longer_nulls = _arrays(cells + [1.0])
        assert column_digest(values, nulls) != column_digest(
            longer_values, longer_nulls
        )

    def test_null_never_collides_with_nan_value(self):
        # A NULL entry and a NaN *data* value are semantically distinct
        # (the engine's mask separates them); the digest must too.
        values = np.array([1.0, np.nan], dtype=np.float64)
        as_null = column_digest(values, np.array([False, True]))
        as_nan = column_digest(values, np.array([False, False]))
        assert as_null != as_nan

    def test_merge_is_order_and_boundary_sensitive(self):
        a = column_digest(np.array([1.0]), np.zeros(1, dtype=bool))
        b = column_digest(np.array([2.0]), np.zeros(1, dtype=bool))
        assert merge_digests([a, b]) != merge_digests([b, a])
        assert merge_digests([a, b]) != merge_digests([a, b, b])
        assert merge_digests([a]) != merge_digests([a, a])


# -- completeness: invisible differences do not ----------------------------


class TestCompleteness:
    @given(_column)
    @settings(max_examples=100, deadline=None)
    def test_equal_content_hashes_equal(self, cells):
        first = column_digest(*_arrays(cells))
        second = column_digest(*_arrays(cells))
        assert first == second

    def test_nan_bit_patterns_are_canonicalized(self):
        # A signaling-ish NaN with a nonzero payload versus the default
        # quiet NaN: the kernels can never tell them apart, so the
        # digests must agree.
        weird = np.frombuffer(
            struct.pack("<Q", 0x7FF8000000000001), dtype=np.float64
        )
        plain = np.array([np.nan], dtype=np.float64)
        assert not np.array_equal(
            weird.view(np.uint64), plain.view(np.uint64)
        )
        nulls = np.zeros(1, dtype=bool)
        assert column_digest(weird, nulls) == column_digest(plain, nulls)

    def test_payload_under_null_is_ignored(self):
        nulls = np.array([False, True])
        a = np.array([1.0, np.nan], dtype=np.float64)
        b = np.array([1.0, 123.456], dtype=np.float64)
        assert column_digest(a, nulls) == column_digest(b, nulls)

    def test_text_digest_is_padding_independent(self):
        # The same strings in a <U8 array and a <U2 array (different
        # numpy itemsize) must hash identically.
        wide = np.array(["ab", "c", "longest8"])[:2]
        narrow = np.array(["ab", "c"])
        assert wide.dtype != narrow.dtype
        nulls = np.zeros(2, dtype=bool)
        assert column_digest(wide, nulls, kind="text") == column_digest(
            narrow, nulls, kind="text"
        )

    def test_text_boundaries_are_unambiguous(self):
        nulls = np.zeros(2, dtype=bool)
        ab_c = column_digest(np.array(["ab", "c"]), nulls, kind="text")
        a_bc = column_digest(np.array(["a", "bc"]), nulls, kind="text")
        assert ab_c != a_bc


# -- composability: the shard merge rule -----------------------------------


class TestMergeRule:
    @given(_column, st.data())
    @settings(max_examples=150, deadline=None)
    def test_streaming_splits_match_whole_column(self, cells, data):
        values, nulls = _arrays(cells)
        whole = column_digest(values, nulls)
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(0, len(cells)), min_size=0, max_size=4
                )
            )
        )
        hasher = ColumnHasher()
        previous = 0
        for cut in cuts + [len(cells)]:
            hasher.update(values[previous:cut], nulls[previous:cut])
            previous = cut
        assert hasher.hexdigest() == whole

    def test_range_fingerprint_is_position_independent(self):
        # The same 50 rows at offset 0 of one relation and offset 100
        # of another fingerprint identically — the property that lets a
        # delete shift later shards without invalidating them.
        relation = clustered_relation(200, seed=3)
        rows = [dict(row) for row in relation]
        head = Relation("Readings", relation.schema, rows[:50])
        shifted = Relation(
            "Readings", relation.schema, rows[100:120] + rows[:50]
        )
        assert range_fingerprint(head, 0, 50) == range_fingerprint(
            shifted, 20, 70
        )

    def test_relation_fingerprint_matches_full_range(self):
        relation = clustered_relation(64, seed=7)
        assert relation_fingerprint(relation) == range_fingerprint(
            relation, 0, len(relation)
        )

    def test_relation_fingerprint_is_cross_object_stable(self):
        a = clustered_relation(100, seed=11)
        b = clustered_relation(100, seed=11)
        assert a is not b
        assert relation_fingerprint(a) == relation_fingerprint(b)
        assert relation_fingerprint(a) != relation_fingerprint(
            clustered_relation(100, seed=12)
        )

    def test_mutations_change_only_the_expected_fingerprints(self):
        relation = clustered_relation(40, seed=1)
        appended = relation.append_rows(
            [{"label": "x", "ts": 200.0, "cost": 1.0, "gain": 2.0, "weight": 3.0}]
        )
        assert relation_fingerprint(appended) != relation_fingerprint(relation)
        # The untouched prefix keeps its range fingerprint.
        assert range_fingerprint(appended, 0, 40) == range_fingerprint(
            relation, 0, 40
        )


# -- incrementality: resumed hashes equal fresh ones -------------------------

_MIXED = Schema(
    [
        Column("label", ColumnType.TEXT),
        Column("x", ColumnType.FLOAT),
        Column("n", ColumnType.INT),
        Column("b", ColumnType.BOOL),
    ]
)
_row = st.fixed_dictionaries(
    {
        "label": st.one_of(st.none(), st.text(max_size=4)),
        "x": st.one_of(
            st.none(), st.just(float("nan")), st.floats(allow_nan=False, width=32)
        ),
        "n": st.one_of(st.none(), st.integers(-3, 3)),
        "b": st.one_of(st.none(), st.booleans()),
    }
)


def _fresh(relation):
    """The same rows in a relation that inherited nothing."""
    return Relation(relation.name, relation.schema, relation.rows())


def _hashed_rows(call):
    """``(result, rows absorbed per column)`` of ``call()``."""
    absorbed = []
    update = ColumnHasher.update

    def counting(hasher, values, nulls):
        absorbed.append(len(nulls))
        return update(hasher, values, nulls)

    with mock.patch.object(ColumnHasher, "update", counting):
        result = call()
    return result, sum(absorbed)


class TestIncrementalHashing:
    @given(
        rows=st.lists(_row, max_size=30),
        shards=st.integers(1, 4),
        spacing=st.sampled_from([3, 8]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_mutation_sequences_match_a_fresh_recompute(
        self, rows, shards, spacing, data
    ):
        # A small checkpoint grid makes 30-row relations cross many
        # checkpoints; the digest never depends on the spacing.
        with mock.patch.object(content_hash, "CHECKPOINT_ROWS", spacing):
            sharded = ShardedRelation(Relation("T", _MIXED, rows), shards)
            for _ in range(data.draw(st.integers(1, 4), label="steps")):
                relation = sharded.relation
                # Hash everything first, so the mutation has state to hand on.
                relation_fingerprint(relation)
                for index in range(sharded.num_shards):
                    sharded.shard_fingerprint(index)
                if data.draw(st.booleans(), label="append"):
                    sharded, _ = sharded.append(
                        data.draw(st.lists(_row, max_size=6), label="appended")
                    )
                elif len(relation):
                    rids = st.integers(0, len(relation) - 1)
                    sharded, _ = sharded.delete(
                        data.draw(st.lists(rids, max_size=4), label="deleted")
                    )
                fresh = _fresh(sharded.relation)
                for name in _MIXED.names:
                    values, nulls = sharded.relation.column_arrays(name)
                    fresh_values, fresh_nulls = fresh.column_arrays(name)
                    assert np.array_equal(nulls, fresh_nulls)
                    assert values.dtype == fresh_values.dtype
                    assert values.tolist() == fresh_values.tolist() or (
                        np.array_equal(values, fresh_values, equal_nan=True)
                    )
                assert relation_fingerprint(sharded.relation) == (
                    range_fingerprint(fresh, 0, len(fresh))
                )
                assert relation_fingerprint(sharded.relation) == (
                    relation_fingerprint(fresh)
                )
                for index in range(sharded.num_shards):
                    part = sharded.shard_slice(index)
                    assert sharded.shard_fingerprint(index) == range_fingerprint(
                        fresh, part.start, part.stop
                    )

    def test_a_mutation_hashes_from_its_last_inherited_checkpoint(self):
        spacing = content_hash.CHECKPOINT_ROWS
        relation = clustered_relation(2 * spacing + 500, seed=5)
        _, rows = _hashed_rows(lambda: relation_fingerprint(relation))
        width = len(relation.schema)
        assert rows == len(relation) * width
        appended = relation.append_rows(
            [dict(relation[0], ts=500.0), dict(relation[1], ts=501.0)]
        )
        fingerprint, rows = _hashed_rows(lambda: relation_fingerprint(appended))
        assert rows == (len(appended) - 2 * spacing) * width
        assert fingerprint == relation_fingerprint(_fresh(appended))
        # A delete keeps only the checkpoints at or below its first rid.
        deleted = appended.delete_rows([spacing + 7, 3])
        fingerprint, rows = _hashed_rows(lambda: relation_fingerprint(deleted))
        assert rows == len(deleted) * width
        deleted = appended.delete_rows([spacing + 7, len(appended) - 1])
        fingerprint, rows = _hashed_rows(lambda: relation_fingerprint(deleted))
        assert rows == (len(deleted) - spacing) * width
        assert fingerprint == relation_fingerprint(_fresh(deleted))
        # The children resumed from copies: a second child of the same
        # parent still starts from the states the parent saved.
        sibling = relation.append_rows([dict(relation[2], ts=502.0)])
        assert relation_fingerprint(sibling) == relation_fingerprint(_fresh(sibling))

    def test_untouched_and_reused_shards_are_not_hashed_again(self):
        relation = clustered_relation(400, seed=2)
        sharded = ShardedRelation(relation, 4)
        first = [sharded.shard_fingerprint(i) for i in range(4)]
        # A second view over the same relation (a new session) reuses
        # the relation's cached range fingerprints.
        view = ShardedRelation(relation, 4)
        again, rows = _hashed_rows(
            lambda: [view.shard_fingerprint(i) for i in range(4)]
        )
        assert again == first and rows == 0
        grown, report = sharded.append([dict(relation[0], ts=900.0)])
        assert report.untouched == (0, 1, 2)
        inherited, rows = _hashed_rows(
            lambda: [grown.shard_fingerprint(i) for i in report.untouched]
        )
        assert inherited == first[:3] and rows == 0
        _, rows = _hashed_rows(lambda: grown.shard_fingerprint(3))
        assert rows == 101 * len(relation.schema)
        shrunk, report = grown.delete([150])
        assert report.touched == (1,)
        _, rows = _hashed_rows(lambda: shrunk.shard_fingerprint(3))
        assert rows == 0
        _, rows = _hashed_rows(lambda: shrunk.shard_fingerprint(1))
        assert rows == 99 * len(relation.schema)


# -- the columnar TEXT serialization ---------------------------------------


def _scalar_text_bytes(values, nulls):
    """The per-value serialization the columnar path must reproduce."""
    pieces = []
    for value, null in zip(np.asarray(values).tolist(), nulls.tolist()):
        encoded = b"" if null else str(value).encode("utf-8")
        pieces.append(len(encoded).to_bytes(4, "little") + encoded)
    return b"".join(pieces)


def _long(strings):
    """``strings`` repeated past the columnar cut-over."""
    copies = content_hash._COLUMNAR_TEXT_MIN // len(strings) + 1
    return np.array(strings * copies)


class TestColumnarText:
    @pytest.mark.parametrize(
        "strings",
        [
            ["ab", "c", "longer label", ""],
            ["a\x00b", "\x00lead", "tail\x00", "\x00"],
            ["", "", ""],
            ["tab\tand\nnewline", "~!@#", "x" * 40],
        ],
        ids=["ascii", "nul-bytes", "empty-strings", "control-and-wide"],
    )
    def test_ascii_columns_take_the_columnar_path(self, strings):
        values = _long(strings)
        rng = np.random.default_rng(len(strings))
        for nulls in (
            np.zeros(len(values), dtype=bool),
            rng.random(len(values)) < 0.3,
            np.ones(len(values), dtype=bool),
        ):
            packed = content_hash._ascii_text_bytes(values, nulls)
            assert packed is not None
            assert packed == _scalar_text_bytes(values, nulls)
            assert content_hash._canonical_text_bytes(values, nulls) == packed

    def test_trailing_nul_is_stripped_like_tolist(self):
        values = _long(["ab\x00", "ab"])
        nulls = np.zeros(len(values), dtype=bool)
        assert values[0] == "ab"
        assert content_hash._canonical_text_bytes(values, nulls) == (
            _scalar_text_bytes(np.array(["ab"] * len(values)), nulls)
        )

    def test_other_arrays_fall_back_to_the_loop(self):
        non_ascii = _long(["café", "naïve", "ok", "日本"])
        nulls = np.zeros(len(non_ascii), dtype=bool)
        assert content_hash._ascii_text_bytes(non_ascii, nulls) is None
        expected = _scalar_text_bytes(non_ascii, nulls)
        assert content_hash._canonical_text_bytes(non_ascii, nulls) == expected
        ascii_values = _long(["big", "endian", ""])
        nulls = np.zeros(len(ascii_values), dtype=bool)
        swapped = ascii_values.astype(">U6")
        assert not swapped.dtype.isnative
        assert content_hash._canonical_text_bytes(swapped, nulls) == (
            _scalar_text_bytes(ascii_values, nulls)
        )
        objects = ascii_values.astype(object)
        assert content_hash._canonical_text_bytes(objects, nulls) == (
            _scalar_text_bytes(ascii_values, nulls)
        )

    def test_lone_surrogate_raises_on_both_paths(self):
        values = _long(["fine", "\ud800"])
        nulls = np.zeros(len(values), dtype=bool)
        with pytest.raises(UnicodeEncodeError):
            _scalar_text_bytes(values, nulls)
        with pytest.raises(UnicodeEncodeError):
            content_hash._canonical_text_bytes(values, nulls)


def test_column_kind_routes_text_separately():
    assert column_kind(ColumnType.TEXT) == "text"
    for numeric in (ColumnType.INT, ColumnType.FLOAT, ColumnType.BOOL):
        assert column_kind(numeric) == "numeric"
    with pytest.raises(ValueError):
        ColumnHasher("decimal")


def test_schema_is_part_of_the_fingerprint():
    rows = [{"a": 1.0}]
    renamed = [{"b": 1.0}]
    fp_a = relation_fingerprint(
        Relation("R", Schema([Column("a", ColumnType.FLOAT)]), rows)
    )
    fp_b = relation_fingerprint(
        Relation("R", Schema([Column("b", ColumnType.FLOAT)]), renamed)
    )
    assert fp_a != fp_b
