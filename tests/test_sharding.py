"""Sharded evaluation: zone statistics, skip soundness, exact parity.

Two properties carry the subsystem:

* **Zone-map soundness** — a shard flagged skippable by the interval
  analysis contains *no* row satisfying the predicate (checked against
  the row interpreter over random data and random WHERE shapes).

* **Shard parity** — ``evaluate(shards=K, workers=W)`` returns exactly
  what ``shards=1`` returns: same status, same package multiset, same
  objective, same candidate count and bounds, for random queries,
  shard counts, and worker counts — including the empty-shard
  (``K > n``) and all-shards-pruned edge cases.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineOptions, PackageQueryEvaluator, evaluate
from repro.core.pruning import derive_bounds
from repro.core.result import ResultStatus
from repro.core.vectorize import evaluator_for
from repro.datasets import clustered_relation
from repro.paql.eval import EvaluationError, eval_predicate
from repro.paql.parser import parse
from repro.paql.semantics import analyze
from repro.relational import (
    Column,
    ColumnType,
    Relation,
    Schema,
    ShardedRelation,
    ZoneStats,
    merge_zone_stats,
)

from tests.paql_strategies import COLUMN_NAMES, TEXT_COLUMN_NAMES, predicates

# ---------------------------------------------------------------------------
# Unit coverage: structure, zone statistics, shard aggregation
# ---------------------------------------------------------------------------

_SCHEMA = Schema(
    [
        Column("label", ColumnType.TEXT),
        Column("value", ColumnType.FLOAT),
    ]
)


def _relation(values):
    rows = [
        {"label": f"r{i}", "value": value} for i, value in enumerate(values)
    ]
    return Relation("T", _SCHEMA, rows)


class TestShardStructure:
    def test_contiguous_cover(self):
        sharded = ShardedRelation(_relation(range(10)), 3)
        assert sharded.num_shards == 3
        rids = []
        for index in range(3):
            part = sharded.shard_slice(index)
            rids.extend(range(part.start, part.stop))
        assert rids == list(range(10))

    def test_more_shards_than_rows(self):
        sharded = ShardedRelation(_relation(range(3)), 8)
        assert sharded.num_shards == 8
        assert sum(sharded.shard_sizes()) == 3
        assert sharded.shard_sizes()[3:] == [0] * 5

    def test_split_rids_round_trip(self):
        sharded = ShardedRelation(_relation(range(20)), 4)
        rids = [0, 3, 5, 9, 10, 11, 19]
        groups = sharded.split_rids(rids)
        assert [int(r) for group in groups for r in group] == rids
        assert all(len(group) >= 0 for group in groups)

    def test_shard_views_share_parent_storage(self):
        relation = _relation(range(10))
        sharded = ShardedRelation(relation, 2)
        parent_values, _ = relation.column_arrays("value")
        shard_values, _ = sharded.shard_column_arrays(1, "value")
        assert shard_values.base is not None
        assert np.shares_memory(shard_values, parent_values)


class TestZoneStats:
    def test_known_values(self):
        sharded = ShardedRelation(_relation([1.0, 2.0, None, 8.0]), 2)
        first, second = sharded.zone_stats("value")
        assert first == ZoneStats(2, 0, 1.0, 2.0, 3.0)
        assert second == ZoneStats(2, 1, 8.0, 8.0, 8.0)

    def test_all_null_shard(self):
        sharded = ShardedRelation(_relation([None, None, 5.0, 6.0]), 2)
        first = sharded.zone_stats("value")[0]
        assert first.minimum is None and first.non_null == 0

    def test_text_columns_carry_counts_only(self):
        sharded = ShardedRelation(_relation([1.0, 2.0]), 1)
        (zone,) = sharded.zone_stats("label")
        assert zone.count == 2 and zone.minimum is None

    def test_merge(self):
        merged = merge_zone_stats(
            [ZoneStats(2, 0, 1.0, 2.0, 3.0), ZoneStats(2, 1, 8.0, 8.0, 8.0)]
        )
        assert merged == ZoneStats(4, 1, 1.0, 8.0, 11.0)

    def test_column_zone_matches_relation_stats(self):
        relation = _relation([3.0, None, -2.0, 7.5, 0.0])
        sharded = ShardedRelation(relation, 3)
        zone = sharded.column_zone("value")
        assert (zone.minimum, zone.maximum) == relation.column_stats("value")


class TestShardedBulkAggregate:
    @pytest.mark.parametrize("func", ["count", "sum", "avg", "min", "max"])
    @pytest.mark.parametrize("rids", [None, [0, 2, 4, 9], []])
    def test_matches_relation_bulk_aggregate(self, func, rids):
        relation = _relation([3.0, None, -2.0, 7.5, 0.0, 1.0, None, 4.0, 9.0, -1.0])
        sharded = ShardedRelation(relation, 4)
        assert sharded.bulk_aggregate(func, "value", rids=rids) == (
            relation.bulk_aggregate(func, "value", rids=rids)
        )

    def test_all_null_column(self):
        relation = _relation([None, None, None])
        sharded = ShardedRelation(relation, 2)
        assert sharded.bulk_aggregate("sum", "value") == 0
        assert sharded.bulk_aggregate("min", "value") is None
        assert sharded.bulk_aggregate("count", "value") == 0

    def test_rejects_unknown_function(self):
        sharded = ShardedRelation(_relation([1.0]), 1)
        with pytest.raises(ValueError):
            sharded.bulk_aggregate("median", "value")

    def test_rejects_text_columns_like_the_relation_does(self):
        from repro.relational import SchemaError

        sharded = ShardedRelation(_relation([1.0, 2.0]), 2)
        with pytest.raises(SchemaError, match="not aggregatable"):
            sharded.bulk_aggregate("sum", "label")

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_sum_is_shard_count_independent(self, shards):
        # 0.1 is not dyadic: per-shard partial sums would associate
        # differently, so sum must come from the whole-subset reduction.
        relation = _relation([0.1] * 23 + [0.3] * 10)
        sharded = ShardedRelation(relation, shards)
        assert sharded.bulk_aggregate("sum", "value") == (
            relation.bulk_aggregate("sum", "value")
        )
        rids = list(range(0, 33, 2))
        assert sharded.bulk_aggregate("sum", "value", rids=rids) == (
            relation.bulk_aggregate("sum", "value", rids=rids)
        )


# ---------------------------------------------------------------------------
# Zone-map skip soundness (property)
# ---------------------------------------------------------------------------

_ZONE_SCHEMA = Schema(
    [Column(name, ColumnType.FLOAT) for name in COLUMN_NAMES]
    + [Column(name, ColumnType.TEXT) for name in TEXT_COLUMN_NAMES]
)


@st.composite
def zone_relations(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    # NaN and ±inf are legitimate FLOAT data (distinct from NULL per
    # Relation.column_arrays); the skip analysis must stay sound when
    # zone min/max are poisoned by them.
    values = st.one_of(
        st.none(),
        st.floats(allow_nan=False, allow_infinity=False, min_value=-50, max_value=50),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    texts = st.one_of(st.none(), st.sampled_from(["a", "bb", "free"]))
    rows = []
    for _ in range(n):
        row = {name: draw(values) for name in COLUMN_NAMES}
        row.update({name: draw(texts) for name in TEXT_COLUMN_NAMES})
        rows.append(row)
    return Relation("Zoned", _ZONE_SCHEMA, rows)


class TestZoneSkipSoundness:
    @given(
        relation=zone_relations(),
        where=predicates(),
        shards=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=150, deadline=None)
    def test_skipped_shards_contain_no_matching_row(
        self, relation, where, shards
    ):
        sharded = ShardedRelation(relation, shards)
        skippable = sharded.skippable_shards(where)
        assert len(skippable) == sharded.num_shards
        for index, skip in enumerate(skippable):
            if not skip:
                continue
            part = sharded.shard_slice(index)
            for rid in range(part.start, part.stop):
                try:
                    verdict = eval_predicate(where, relation[rid])
                except EvaluationError:
                    pytest.fail(
                        "a shard containing a runtime fault was skipped "
                        "(division must veto skipping)"
                    )
                assert not verdict, (
                    f"shard {index} was skipped but row {rid} satisfies "
                    f"the predicate"
                )

    def test_division_vetoes_skipping(self):
        relation = _relation([1.0, 2.0, 3.0, 4.0])
        sharded = ShardedRelation(relation, 2)
        where = analyze(
            parse(
                "SELECT PACKAGE(T) FROM T "
                "WHERE T.value / 2 > 100 SUCH THAT COUNT(*) = 1"
            ),
            relation.schema,
        ).where
        assert sharded.skippable_shards(where) == [False, False]

    def test_range_predicate_skips_disjoint_shards(self):
        relation = _relation([float(i) for i in range(100)])
        sharded = ShardedRelation(relation, 4)
        where = analyze(
            parse(
                "SELECT PACKAGE(T) FROM T "
                "WHERE T.value BETWEEN 10 AND 20 SUCH THAT COUNT(*) = 1"
            ),
            relation.schema,
        ).where
        assert sharded.skippable_shards(where) == [False, True, True, True]

    def test_is_null_skips_null_free_shards(self):
        relation = _relation([None, 1.0, 2.0, 3.0])
        sharded = ShardedRelation(relation, 2)
        where = analyze(
            parse(
                "SELECT PACKAGE(T) FROM T "
                "WHERE T.value IS NULL SUCH THAT COUNT(*) = 1"
            ),
            relation.schema,
        ).where
        assert sharded.skippable_shards(where) == [False, True]


class TestNonFiniteZoneData:
    """NaN/±inf are valid FLOAT data and must never cause a wrong skip.

    NaN poisons ``kept.min()``/``max()`` and compares false to
    everything, so a naive interval analysis "proves" the shard empty
    — dropping real matching rows.  ±inf endpoints feed NaN into
    interval arithmetic (``inf + -inf``) with the same hazard.
    """

    @staticmethod
    def _where(relation, text):
        return analyze(
            parse(
                f"SELECT PACKAGE(T) FROM T WHERE {text} "
                "SUCH THAT COUNT(*) = 1"
            ),
            relation.schema,
        ).where

    def test_nan_data_does_not_skip_a_shard_with_matches(self):
        # Shard 0 is [NaN, 10.0]; row 1 satisfies value > 5 and the
        # NaN-poisoned zone stats must not prove the shard empty.
        relation = _relation([math.nan, 10.0, 1.0, 2.0])
        sharded = ShardedRelation(relation, 2)
        where = self._where(relation, "T.value > 5")
        assert sharded.skippable_shards(where)[0] is False

    def test_nan_data_preserves_candidate_parity_end_to_end(self):
        schema = Schema(
            [
                Column("label", ColumnType.TEXT),
                Column("cost", ColumnType.FLOAT),
                Column("gain", ColumnType.FLOAT),
            ]
        )
        rows = [
            {"label": "nan", "cost": math.nan, "gain": 1.0},
            {"label": "big", "cost": 10.0, "gain": 2.0},
            {"label": "lo1", "cost": 1.0, "gain": 3.0},
            {"label": "lo2", "cost": 2.0, "gain": 4.0},
            {"label": "hit", "cost": 7.0, "gain": 5.0},
        ]
        relation = Relation("Parity", schema, rows)
        text = (
            "SELECT PACKAGE(P) FROM Parity P WHERE P.cost > 5 "
            "SUCH THAT COUNT(*) = 2 MAXIMIZE SUM(P.gain)"
        )
        baseline = evaluate(text, relation)
        for shards in (2, 3, 5):
            sharded = evaluate(text, relation, shards=shards)
            assert sharded.status is baseline.status
            assert sharded.package.counts == baseline.package.counts
            assert sharded.objective == baseline.objective

    def test_infinite_endpoints_do_not_skip_via_nan_arithmetic(self):
        # cost spans [-inf, +inf] in shard 0, so cost + cost has the
        # inf + -inf corner; a NaN bound must widen, not skip, while
        # shard 1 (all small values) is still provably empty.
        relation = _relation([math.inf, -math.inf, 9.0, 1.0, 1.0, 1.0])
        sharded = ShardedRelation(relation, 2)
        where = self._where(relation, "T.value + T.value > 10")
        skippable = sharded.skippable_shards(where)
        assert skippable[0] is False
        assert skippable[1] is True

    def test_interval_arithmetic_widens_nan_bounds(self):
        # Finite but huge data: a*a overflows to a [-inf, +inf]
        # interval and b*b to [+inf, +inf]; their sum's lower bound is
        # -inf + inf = NaN, which must widen to -inf, never survive as
        # a NaN bound.
        from repro.paql import ast
        from repro.relational.sharding import _interval

        schema = Schema(
            [Column("a", ColumnType.FLOAT), Column("b", ColumnType.FLOAT)]
        )
        rows = [{"a": -1e200, "b": 1e200}, {"a": 1e200, "b": 1e200}]
        sharded = ShardedRelation(Relation("Huge", schema, rows), 1)
        square = lambda name: ast.BinaryOp(
            ast.BinOp.MUL,
            ast.ColumnRef(None, name),
            ast.ColumnRef(None, name),
        )
        node = ast.BinaryOp(ast.BinOp.ADD, square("a"), square("b"))
        interval = _interval(node, sharded, 0)
        assert interval.low == -math.inf
        assert interval.high == math.inf

    def test_inf_only_data_keeps_its_shard(self):
        relation = _relation([math.inf, math.inf, 1.0, 2.0])
        sharded = ShardedRelation(relation, 2)
        where = self._where(relation, "T.value > 100")
        assert sharded.skippable_shards(where)[0] is False

    def test_merge_zone_stats_propagates_nan_like_numpy(self):
        # Whichever shard holds the NaN, the merged min/max must be
        # NaN — matching a whole-column numpy reduction.
        finite = ZoneStats(2, 0, 1.0, 2.0, 3.0)
        poisoned = ZoneStats(2, 0, math.nan, math.nan, math.nan)
        for parts in ([finite, poisoned], [poisoned, finite]):
            merged = merge_zone_stats(parts)
            assert math.isnan(merged.minimum)
            assert math.isnan(merged.maximum)

    @pytest.mark.parametrize("func", ["min", "max", "count"])
    @pytest.mark.parametrize("rids", [None, [0, 1, 2, 3]])
    def test_bulk_aggregate_parity_under_nan(self, func, rids):
        relation = _relation([1.0, math.nan, 5.0, 2.0])
        sharded = ShardedRelation(relation, 2)
        expected = relation.bulk_aggregate(func, "value", rids=rids)
        actual = sharded.bulk_aggregate(func, "value", rids=rids)
        if isinstance(expected, float) and math.isnan(expected):
            assert math.isnan(actual)
        else:
            assert actual == expected


# ---------------------------------------------------------------------------
# Shard parity (property): evaluate(shards=K) == evaluate(shards=1)
# ---------------------------------------------------------------------------

_PARITY_SCHEMA = Schema(
    [
        Column("label", ColumnType.TEXT),
        Column("cost", ColumnType.FLOAT),
        Column("gain", ColumnType.FLOAT),
    ]
)

_PARITY_TEMPLATES = (
    # Selective WHERE + fixed cardinality + objective.
    "SELECT PACKAGE(P) FROM Parity P WHERE P.cost <= {a} "
    "SUCH THAT COUNT(*) = 2 MAXIMIZE SUM(P.gain)",
    # Band WHERE + SUM constraint (drives the pruner statistics).
    "SELECT PACKAGE(P) FROM Parity P WHERE P.cost BETWEEN {a} AND {b} "
    "SUCH THAT COUNT(*) <= 3 AND SUM(P.cost) <= {c} MINIMIZE SUM(P.cost)",
    # No WHERE at all (the shards carry only the pruner statistics).
    "SELECT PACKAGE(P) FROM Parity P "
    "SUCH THAT COUNT(*) BETWEEN 1 AND 2 MAXIMIZE SUM(P.gain)",
    # WHERE that may match nothing (all shards zone-pruned).
    "SELECT PACKAGE(P) FROM Parity P WHERE P.cost < {low} "
    "SUCH THAT COUNT(*) = 1",
    # Disjunction + IS NULL (3VL through the zone analysis).
    "SELECT PACKAGE(P) FROM Parity P "
    "WHERE P.gain IS NULL OR P.cost > {a} SUCH THAT COUNT(*) = 1 "
    "MAXIMIZE SUM(P.cost)",
)


@st.composite
def parity_cases(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    value = st.one_of(
        st.none(),
        st.floats(
            allow_nan=False, allow_infinity=False, min_value=0, max_value=100
        ),
    )
    rows = [
        {
            "label": f"r{i}",
            "cost": draw(value),
            "gain": draw(value),
        }
        for i in range(n)
    ]
    template = draw(st.sampled_from(_PARITY_TEMPLATES))
    text = template.format(
        a=draw(st.integers(min_value=0, max_value=100)),
        b=draw(st.integers(min_value=0, max_value=100)),
        c=draw(st.integers(min_value=0, max_value=300)),
        low=draw(st.integers(min_value=-10, max_value=1)),
    )
    shards = draw(st.integers(min_value=2, max_value=12))
    workers = draw(st.sampled_from([0, 1, 2, 4]))
    return rows, text, shards, workers


#: A selective ts band over ``clustered_relation`` plus a SUM global
#: constraint, so pruning statistics run over the sharded candidates.
_BAND_QUERY = """
SELECT PACKAGE(R) FROM Readings R
WHERE R.ts BETWEEN 42 AND 49 AND R.cost + R.weight <= 160
SUCH THAT COUNT(*) = 5 AND SUM(R.cost) <= 400
MAXIMIZE SUM(R.gain)
"""

@pytest.fixture(scope="module")
def clustered_band():
    """The clustered relation and its unsharded band-query answer."""
    relation = clustered_relation(10000, seed=5)
    return relation, evaluate(_BAND_QUERY, relation)


class TestShardParity:
    @given(case=parity_cases())
    @settings(max_examples=120, deadline=None)
    def test_sharded_evaluation_is_bit_identical(self, case):
        rows, text, shards, workers = case
        if not rows:
            return  # Relation construction requires a schema'd row set.
        relation = Relation(
            "Parity", _PARITY_SCHEMA, [dict(row) for row in rows]
        )
        baseline = evaluate(text, relation)
        sharded = evaluate(text, relation, shards=shards, workers=workers)

        assert sharded.status is baseline.status
        assert sharded.objective == baseline.objective
        assert sharded.candidate_count == baseline.candidate_count
        assert sharded.bounds == baseline.bounds
        if baseline.package is None:
            assert sharded.package is None
        else:
            assert sharded.package.counts == baseline.package.counts
        # Strategy-level stats aggregates must agree too (same
        # candidates in the same order implies the same downstream
        # work); timing, the shard payload, and the per-stage records
        # (which legitimately carry path/timing differences) are the
        # only additions.
        baseline_stats = {
            key: value
            for key, value in baseline.stats.items()
            if key not in ("where_path", "stages")
        }
        sharded_stats = {
            key: value
            for key, value in sharded.stats.items()
            if key not in ("where_path", "shards", "stages")
        }
        assert sharded_stats == baseline_stats

    @pytest.mark.parametrize(
        "shards, workers, backend",
        [
            (3, 1, "thread"),
            (3, 4, "thread"),
            (8, 1, "thread"),
            (8, 2, "thread"),
            (8, 4, "thread"),
            (64, 1, "thread"),
            (64, 4, "thread"),
        ],
    )
    def test_clustered_band_query_parity(
        self, clustered_band, shards, workers, backend
    ):
        # Append-ordered data and a selective ts band: zone maps skip
        # most shards, and the survivors' merge order decides the
        # candidate list every later stage sees.
        relation, baseline = clustered_band
        evaluator = PackageQueryEvaluator(relation)
        try:
            sharded = evaluator.evaluate(
                _BAND_QUERY,
                EngineOptions(
                    shards=shards, workers=workers, parallel_backend=backend
                ),
            )
        finally:
            evaluator.close()
        assert sharded.status is baseline.status
        assert sharded.objective == baseline.objective
        assert sharded.package.counts == baseline.package.counts
        assert sharded.candidate_count == baseline.candidate_count
        assert sharded.bounds == baseline.bounds
        assert sharded.stats["where_path"] == "vectorized-sharded"
        assert sharded.stats["shards"]["skipped"] > 0

    def test_all_shards_pruned_matches_unsharded_infeasible(self):
        relation = Relation(
            "Parity",
            _PARITY_SCHEMA,
            [{"label": "a", "cost": 5.0, "gain": 1.0}] * 6,
        )
        text = (
            "SELECT PACKAGE(P) FROM Parity P WHERE P.cost < 0 "
            "SUCH THAT COUNT(*) = 1"
        )
        baseline = evaluate(text, relation)
        sharded = evaluate(text, relation, shards=3)
        assert sharded.status is baseline.status is ResultStatus.INFEASIBLE
        assert sharded.stats["shards"]["skipped"] == 3
        assert sharded.stats["where_path"] == "vectorized-sharded"

    def test_empty_shards_are_harmless(self):
        relation = Relation(
            "Parity",
            _PARITY_SCHEMA,
            [
                {"label": "a", "cost": 1.0, "gain": 2.0},
                {"label": "b", "cost": 2.0, "gain": 3.0},
            ],
        )
        text = (
            "SELECT PACKAGE(P) FROM Parity P WHERE P.cost >= 0 "
            "SUCH THAT COUNT(*) = 1 MAXIMIZE SUM(P.gain)"
        )
        baseline = evaluate(text, relation)
        sharded = evaluate(text, relation, shards=64)
        assert sharded.package.counts == baseline.package.counts
        assert sharded.stats["shards"]["count"] == 64

    def test_interpreted_fallback_ignores_sharding(self, meals):
        # Text concatenation has no kernel; the engine must fall back
        # to the interpreter even when shards were requested.
        text = (
            "SELECT PACKAGE(R) FROM Recipes R WHERE R.gluten = 'free' "
            "SUCH THAT COUNT(*) = 2"
        )
        evaluator = PackageQueryEvaluator(meals)
        query = evaluator.prepare(text)
        options = EngineOptions(shards=4)
        rids, path, info = evaluator._candidates_with_path(query, options)
        assert path == "vectorized-sharded"
        assert info["count"] == 4
        baseline_rids, _, _ = evaluator._candidates_with_path(query, None)
        assert rids == baseline_rids


# ---------------------------------------------------------------------------
# Sharded pruning statistics and the planner
# ---------------------------------------------------------------------------

class TestShardedPruning:
    def test_bounds_identical_with_sharded_statistics(self):
        relation = _relation([float(i) for i in range(50)] + [None, None])
        query = analyze(
            parse(
                "SELECT PACKAGE(T) FROM T "
                "SUCH THAT SUM(T.value) BETWEEN 40 AND 60"
            ),
            relation.schema,
        )
        rids = list(range(len(relation)))
        plain = derive_bounds(query, relation, rids)
        sharded = derive_bounds(
            query,
            relation,
            rids,
            sharded=ShardedRelation(relation, 7),
            workers=2,
        )
        assert plain == sharded

    @pytest.mark.parametrize("nan_row", [1, 48])
    def test_extent_merge_propagates_nan_regardless_of_shard(
        self, nan_row, monkeypatch
    ):
        # The shard-parallel statistics path merges per-shard extents;
        # Python min/max drop NaN order-dependently while the unsharded
        # whole-subset numpy reduction propagates it, so whichever
        # shard holds the NaN the merged extent (and hence the bounds)
        # must match the unsharded run.
        import repro.core.pruning as pruning
        from repro.paql import ast

        monkeypatch.setattr(pruning, "_SHARD_STATS_MIN_CANDIDATES", 4)
        values = [float(i) for i in range(50)]
        values[nan_row] = math.nan
        relation = _relation(values)
        query = analyze(
            parse(
                "SELECT PACKAGE(T) FROM T "
                "SUCH THAT SUM(T.value + T.value) BETWEEN 40 AND 60"
            ),
            relation.schema,
        )
        rids = list(range(len(relation)))
        plain = pruning.CardinalityPruner(query, relation, rids)
        sharded = pruning.CardinalityPruner(
            query,
            relation,
            rids,
            sharded=ShardedRelation(relation, 7),
            workers=2,
        )
        arg = ast.BinaryOp(
            ast.BinOp.ADD,
            ast.ColumnRef(None, "value"),
            ast.ColumnRef(None, "value"),
        )
        plain_extent = plain._vectorized_range(arg)
        sharded_extent = sharded._vectorized_range(arg)
        assert all(math.isnan(bound) for bound in plain_extent)
        assert all(math.isnan(bound) for bound in sharded_extent)
        assert plain.bounds() == sharded.bounds()

    def test_plan_reports_sharding(self):
        from repro.core.plan import plan

        relation = _relation([float(i) for i in range(30)])
        query = analyze(
            parse(
                "SELECT PACKAGE(T) FROM T WHERE T.value <= 4 "
                "SUCH THAT COUNT(*) = 2 MAXIMIZE SUM(T.value)"
            ),
            relation.schema,
        )
        outcome = plan(
            query, relation, options=EngineOptions(shards=5, workers=1)
        )
        assert outcome.sharding is not None
        assert outcome.sharding["count"] == 5
        assert outcome.sharding["skipped"] >= 1
        assert any("sharded scan" in line for line in outcome.lines())
        unsharded = plan(query, relation)
        assert outcome.candidate_count == unsharded.candidate_count
        assert outcome.chosen_strategy == unsharded.chosen_strategy


# ---------------------------------------------------------------------------
# The parallel partition refinement
# ---------------------------------------------------------------------------

class TestParallelRefine:
    #: Bimodal costs: any package with SUM(cost) in [130, 140] must mix
    #: one ~40-cost tuple with one ~95-cost tuple, so the sketch loads
    #: representatives from (at least) two partitions and the first
    #: refinement runs as a multi-partition wave.
    @staticmethod
    def _bimodal_relation():
        schema = Schema(
            [
                Column("label", ColumnType.TEXT),
                Column("cost", ColumnType.FLOAT),
                Column("gain", ColumnType.FLOAT),
            ]
        )
        rows = []
        for i in range(60):
            rows.append(
                {
                    "label": f"lo{i}",
                    "cost": 38.0 + (i % 9) * 0.5,
                    "gain": float(i % 13),
                }
            )
            rows.append(
                {
                    "label": f"hi{i}",
                    "cost": 93.0 + (i % 9) * 0.5,
                    "gain": float((i * 7) % 11),
                }
            )
        return Relation("Split", schema, rows)

    _QUERY = (
        "SELECT PACKAGE(S) FROM Split S WHERE S.cost > 0 "
        "SUCH THAT COUNT(*) = 2 AND SUM(S.cost) BETWEEN 130 AND 140 "
        "MAXIMIZE SUM(S.gain)"
    )

    def _run(self, relation, workers, parallel_refine):
        from repro.core.partitioning import PartitionOptions

        return PackageQueryEvaluator(relation).evaluate(
            self._QUERY,
            EngineOptions(
                strategy="partition",
                workers=workers,
                partition=PartitionOptions(
                    num_partitions=4, parallel_refine=parallel_refine
                ),
            ),
        )

    def test_wave_refinement_is_deterministic_and_valid(self):
        from repro.core.validator import validate

        relation = self._bimodal_relation()
        serial = self._run(relation, workers=1, parallel_refine=True)
        threaded = self._run(relation, workers=4, parallel_refine=True)
        assert serial.found and threaded.found
        assert validate(serial.package, serial.query).valid
        assert serial.package.counts == threaded.package.counts
        assert serial.objective == threaded.objective
        assert serial.stats.get("refine_waves", 0) >= 1
        assert serial.stats["refine_waves"] == threaded.stats["refine_waves"]

    def test_sequential_refinement_still_default(self):
        relation = self._bimodal_relation()
        result = self._run(relation, workers=4, parallel_refine=False)
        assert result.found
        assert "refine_waves" not in result.stats
