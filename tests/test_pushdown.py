"""Out-of-core pushdown parity: the sql scan must be invisible.

The contract under test (``docs/out_of_core.md``): evaluating over a
:class:`~repro.relational.sql_relation.SqlRelation` — WHERE prefilter
and zone skipping in SQL, exact batch recheck, SQL reduction fixing,
resident streaming — produces **bit-identical** candidate rids,
objective values, statuses and packages to the in-memory engine, on
every workload including NULL, NaN, ±inf and hostile TEXT.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import pushdown
from repro.core.engine import EngineOptions, PackageQueryEvaluator
from repro.core.ir import STAGE_STREAM, STAGE_WHERE
from repro.core.reduction import minmax_fixing_sql
from repro.core.result import EngineError, ResultStatus
from repro.core.session import EvaluationSession
from repro.core.vectorize import where_positions
from repro.paql import ast
from repro.paql.parser import parse
from repro.paql.semantics import analyze
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.sql_relation import SqlRelation
from repro.relational.types import ColumnType

SCHEMA = Schema.of(
    label=ColumnType.TEXT,
    calories=ColumnType.FLOAT,
    servings=ColumnType.INT,
    vegan=ColumnType.BOOL,
)

TAIL = "SUCH THAT COUNT(*) BETWEEN 1 AND 3 MAXIMIZE SUM(M.servings)"


def query_for(where_fragment):
    text = f"SELECT PACKAGE(M) FROM Meals M WHERE {where_fragment} {TAIL}"
    return analyze(parse(text), SCHEMA)


def in_memory_candidates(relation, query):
    return where_positions(query.where, relation)[0].tolist()


#: WHERE fragments spanning every pushdown hazard: NaN-poisoned float
#: comparisons under NOT, weakened NULL handling, hostile TEXT
#: escaping, BETWEEN/IN sugar, arithmetic, division (prefilter veto),
#: NaN literals and >2**53 int literals (conjunct veto).
WHERE_FRAGMENTS = [
    "M.calories > 100",
    "NOT (M.calories > 100)",
    "M.calories >= 50 AND M.servings >= 2",
    "M.calories BETWEEN 40 AND 260",
    "M.servings IN (1, 3)",
    "M.label = 'o''brien; DROP'",
    "M.vegan = TRUE",
    "NOT (M.vegan = FALSE OR M.calories < 100)",
    "M.servings * 2 + 1 > 5",
    "M.calories / 2.0 > 60",
    "M.calories > 9007199254740993",
    "M.calories <> M.calories",
]

ROW = st.fixed_dictionaries(
    {
        "label": st.one_of(
            st.none(), st.sampled_from(["plain", "o'brien; DROP", 'quo"ted', ""])
        ),
        "calories": st.one_of(
            st.none(),
            st.floats(allow_nan=True, allow_infinity=True, width=64),
        ),
        "servings": st.one_of(st.none(), st.integers(-(2**40), 2**40)),
        "vegan": st.one_of(st.none(), st.booleans()),
    }
)


def hostile_rows(n=40):
    rows = []
    for i in range(n):
        calories = float((i * 37) % 500)
        if i % 11 == 0:
            calories = float("nan")
        elif i % 13 == 0:
            calories = float("inf") if i % 2 else float("-inf")
        elif i % 17 == 0:
            calories = None
        rows.append(
            {
                "label": ["plain", "o'brien; DROP", None, 'quo"ted'][i % 4],
                "calories": calories,
                "servings": None if i % 19 == 0 else i % 5,
                "vegan": None if i % 23 == 0 else i % 2 == 0,
            }
        )
    return rows


class TestWhereParity:
    @pytest.mark.parametrize("fragment", WHERE_FRAGMENTS)
    def test_candidates_bit_identical_on_hostile_rows(self, fragment):
        relation = Relation("Meals", SCHEMA, hostile_rows(60))
        sql = SqlRelation.from_relation(relation, zone_rows=7)
        query = query_for(fragment)
        outcome = pushdown.run_where(
            sql, query, EngineOptions(pushdown="always"), batch_rows=13
        )
        assert outcome.path == "sql-pushdown"
        assert outcome.candidate_rids == in_memory_candidates(relation, query)
        # The prefilter is an over-approximation by construction.
        assert outcome.estimated_rows >= len(outcome.candidate_rids)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(ROW, min_size=1, max_size=30),
        fragment=st.sampled_from(WHERE_FRAGMENTS),
        zone_rows=st.integers(1, 9),
    )
    def test_candidates_bit_identical_property(self, rows, fragment, zone_rows):
        relation = Relation("Meals", SCHEMA, rows)
        sql = SqlRelation.from_relation(relation, zone_rows=zone_rows)
        query = query_for(fragment)
        outcome = pushdown.run_where(
            sql, query, EngineOptions(pushdown="always"), batch_rows=5
        )
        assert outcome.candidate_rids == in_memory_candidates(relation, query)

    def test_division_vetoes_prefilter_and_zones(self):
        sql = SqlRelation.from_relation(
            Relation("Meals", SCHEMA, hostile_rows()), zone_rows=8
        )
        query = query_for("M.calories / 2.0 > 60")
        plan = pushdown.build_prefilter(query.where, sql)
        assert plan.prefilter_sql is None
        assert any("division" in reason for reason in plan.skipped)
        ranges, _ = pushdown.zone_keep_ranges(sql, query.where)
        assert ranges is None  # no zone skipping either

    def test_nan_and_huge_int_literals_not_pushed(self):
        sql = SqlRelation.from_relation(Relation("Meals", SCHEMA, hostile_rows()))
        huge = query_for("M.servings < 9007199254740993")
        plan = pushdown.build_prefilter(huge.where, sql)
        assert plan.pushed == 0
        assert any("float64" in reason for reason in plan.skipped)

    def test_huge_int_column_data_not_pushed(self):
        schema = Schema.of(big=ColumnType.INT)
        relation = Relation(
            "Big", schema, [{"big": 2**60 + i} for i in range(5)]
        )
        sql = SqlRelation.from_relation(relation)
        where = analyze(
            parse(
                "SELECT PACKAGE(B) FROM Big B WHERE B.big > 5 "
                "SUCH THAT COUNT(*) >= 1 MAXIMIZE COUNT(*)"
            ),
            schema,
        ).where
        plan = pushdown.build_prefilter(where, sql)
        assert plan.pushed == 0

    def test_zone_skipping_proves_empty_without_streaming(self):
        rows = [
            {"label": "x", "calories": float(i % 50), "servings": 1, "vegan": True}
            for i in range(64)
        ]
        sql = SqlRelation.from_relation(Relation("Meals", SCHEMA, rows), zone_rows=8)
        query = query_for("M.calories > 1000")
        outcome = pushdown.run_where(sql, query, EngineOptions(pushdown="always"))
        assert outcome.candidate_rids == []
        assert outcome.zones_kept == 0 and outcome.zones_total == 8
        assert outcome.batches == 0  # proved empty, nothing streamed


class TestScanPathChoice:
    @pytest.mark.parametrize(
        "rows, estimated, path",
        [
            (10_000_000, 10_000_000, "sql-pushdown"),  # past the row budget
            (1_500_000, 1_500_000, "sql-pushdown"),
            (220_000, 2_000, "sql-pushdown"),  # selective band
            (220_000, 200_000, "materialize"),  # streams most rows anyway
            (200_000, 1, "materialize"),  # fits the in-memory budget
        ],
    )
    def test_auto_streams_large_or_selective_tables(self, rows, estimated, path):
        from repro.core.cost import choose_scan_path

        chosen, _ = choose_scan_path(rows, estimated, EngineOptions())
        assert chosen == path


class TestFixingParity:
    CASES = [
        (ast.AggFunc.MIN, ast.CmpOp.GE),  # bad: v < t (tolerance-narrowed)
        (ast.AggFunc.MIN, ast.CmpOp.GT),  # bad: v <= t (exact)
        (ast.AggFunc.MAX, ast.CmpOp.LE),  # bad: v > t (mirrored, narrowed)
        (ast.AggFunc.MAX, ast.CmpOp.LT),  # bad: v >= t (mirrored, exact)
    ]

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.none(),
                st.floats(allow_nan=False, allow_infinity=True, width=64),
            ),
            min_size=1,
            max_size=25,
        ),
        case=st.sampled_from(CASES),
        threshold=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    # sqlite 3.40.1 parses this literal one ulp low: a threshold spelled
    # into the SQL text instead of bound would miss the equal row.
    @example(
        values=[1.95457294881716e-302],
        case=(ast.AggFunc.MIN, ast.CmpOp.GT),
        threshold=1.95457294881716e-302,
    )
    def test_sql_bad_set_matches_vector_formula(self, values, case, threshold):
        """The SQL fixing predicate selects exactly the rows the
        reducer's vectorized MIN/MAX pass fixes (same tolerance-
        narrowed threshold arithmetic, evaluated in sqlite)."""
        func, op = case
        predicate = minmax_fixing_sql(func, op, threshold, "v")
        assert predicate is not None
        where_sql, params = predicate
        schema = Schema.of(v=ColumnType.FLOAT)
        relation = Relation("V", schema, [{"v": value} for value in values])
        sql = SqlRelation.from_relation(relation)
        chunks = [
            rids
            for rids, _ in sql.iter_batches(where_sql=where_sql, params=params)
        ]
        got = set(np.concatenate(chunks).tolist()) if chunks else set()

        from repro.core.translate_ilp import minmax_plan
        from repro.core.validator import DEFAULT_TOLERANCE

        plan = minmax_plan(func, op)
        array = np.array(
            [np.nan if value is None else value for value in values],
            dtype=np.float64,
        )
        nulls = np.array([value is None for value in values])
        mirrored = -array if plan.negate else array
        pivot = -threshold if plan.negate else threshold
        # Near the float range the narrowed threshold overflows to
        # -inf, in numpy and in sqlite alike.
        with np.errstate(invalid="ignore", over="ignore"):
            if plan.bad is ast.CmpOp.LT:
                slack = DEFAULT_TOLERANCE * np.fmax(
                    1.0, np.fmax(np.abs(mirrored), abs(pivot))
                )
                bad = mirrored < pivot - slack
            else:
                bad = mirrored <= pivot
        expected = set(np.flatnonzero(np.where(nulls, False, bad)).tolist())
        assert got == expected

    def test_nan_data_derives_no_fixing(self):
        rows = hostile_rows()  # calories contains NaN
        sql = SqlRelation.from_relation(Relation("Meals", SCHEMA, rows))
        query = analyze(
            parse(
                "SELECT PACKAGE(M) FROM Meals M "
                "SUCH THAT MIN(M.calories) >= 100 AND COUNT(*) >= 1 "
                "MAXIMIZE COUNT(*)"
            ),
            SCHEMA,
        )
        labels, predicates = pushdown.build_fixing_predicates(
            query, sql, EngineOptions()
        )
        assert labels == [] and predicates == []

    def test_int_columns_never_fixed_in_sql(self):
        rows = [
            {"label": "x", "calories": 1.0, "servings": i, "vegan": True}
            for i in range(10)
        ]
        sql = SqlRelation.from_relation(Relation("Meals", SCHEMA, rows))
        query = analyze(
            parse(
                "SELECT PACKAGE(M) FROM Meals M "
                "SUCH THAT MIN(M.servings) >= 5 AND COUNT(*) >= 1 "
                "MAXIMIZE COUNT(*)"
            ),
            SCHEMA,
        )
        labels, _ = pushdown.build_fixing_predicates(query, sql, EngineOptions())
        assert labels == []


CLEAN_TEXT = (
    "SELECT PACKAGE(M) FROM Meals M WHERE M.calories > 50 AND M.servings >= 1 "
    "SUCH THAT COUNT(*) BETWEEN 2 AND 4 AND MIN(M.calories) >= 100 "
    "MAXIMIZE SUM(M.calories)"
)


def clean_rows(n=300):
    return [
        {
            "label": f"r{i}",
            "calories": float((i * 37) % 500),
            "servings": i % 5,
            "vegan": i % 2 == 0,
        }
        for i in range(n)
    ]


class TestEngineParity:
    @pytest.fixture()
    def twin(self):
        relation = Relation("Meals", SCHEMA, clean_rows())
        return relation, SqlRelation.from_relation(relation, zone_rows=64)

    @pytest.mark.parametrize("mode", ["always", "materialize", "auto"])
    def test_packages_bit_identical_across_modes(self, twin, mode):
        relation, sql = twin
        expected = PackageQueryEvaluator(relation).evaluate(CLEAN_TEXT)
        result = PackageQueryEvaluator(sql).evaluate(
            CLEAN_TEXT, EngineOptions(pushdown=mode)
        )
        assert result.status == expected.status
        assert result.objective == expected.objective
        assert result.candidate_count == expected.candidate_count
        assert result.package.counts == expected.package.counts
        # The remapped package wraps the sql-backed relation itself.
        assert result.package.relation is sql

    def test_where_path_and_stream_stage_recorded(self, twin):
        _, sql = twin
        result = PackageQueryEvaluator(sql).evaluate(
            CLEAN_TEXT, EngineOptions(pushdown="always")
        )
        assert result.stats["where_path"] == "sql-pushdown"
        stages = {entry["name"]: entry for entry in result.stats["stages"]}
        stream = stages[STAGE_STREAM]
        assert stream["skipped"] is None
        assert stream["detail"]["path"] == "stream"
        assert result.stats["pushdown"]["sql_fixed"] >= 0
        assert stages[STAGE_WHERE]["detail"]["path"] == "sql-pushdown"

    def test_sql_fixing_never_changes_the_answer(self, twin):
        relation, sql = twin
        fixed_off = PackageQueryEvaluator(relation).evaluate(
            CLEAN_TEXT, EngineOptions(reduce="off")
        )
        streamed = PackageQueryEvaluator(sql).evaluate(
            CLEAN_TEXT, EngineOptions(pushdown="always")
        )
        assert streamed.objective == fixed_off.objective
        assert streamed.status == fixed_off.status
        assert streamed.stats["pushdown"]["sql_fixed"] > 0

    @settings(max_examples=15, deadline=None)
    @given(rows=st.lists(ROW, min_size=4, max_size=25))
    def test_status_and_objective_parity_property(self, rows):
        relation = Relation("Meals", SCHEMA, rows)
        sql = SqlRelation.from_relation(relation, zone_rows=5)
        text = (
            "SELECT PACKAGE(M) FROM Meals M WHERE M.servings >= 0 "
            "SUCH THAT COUNT(*) BETWEEN 1 AND 2 MAXIMIZE COUNT(*)"
        )
        expected = PackageQueryEvaluator(relation).evaluate(text)
        result = PackageQueryEvaluator(sql).evaluate(
            text, EngineOptions(pushdown="always")
        )
        assert result.status == expected.status
        assert result.objective == expected.objective
        assert result.candidate_count == expected.candidate_count

    def test_extreme_float_literal_agrees_on_every_path(self):
        # The literal equals the first row's value; sqlite's text parser
        # reads it one ulp low, which once made the pushed prefilter
        # drop the only candidate (INFEASIBLE under pushdown="always").
        schema = Schema.of(v=ColumnType.FLOAT, g=ColumnType.INT)
        relation = Relation(
            "R", schema, [{"v": 1.95457294881716e-302, "g": 1}, {"v": 1.0, "g": 2}]
        )
        sql = SqlRelation.from_relation(relation)
        text = (
            "SELECT PACKAGE(R) FROM R R WHERE R.v <= 1.95457294881716e-302 "
            "SUCH THAT COUNT(*) = 1 MAXIMIZE SUM(R.g)"
        )
        results = [PackageQueryEvaluator(relation).evaluate(text)] + [
            PackageQueryEvaluator(sql).evaluate(text, EngineOptions(pushdown=mode))
            for mode in ("materialize", "always")
        ]
        assert results[2].stats["where_path"] == "sql-pushdown"
        for result in results:
            assert result.status is ResultStatus.OPTIMAL
            assert result.objective == 1.0
            assert result.candidate_count == 1

    @pytest.mark.parametrize("mode", ["always", "materialize"])
    def test_int_sum_past_int64_agrees_on_every_path(self, mode):
        # 2**62 + 2**62 overflows a 64-bit integer SUM (sqlite raised
        # "integer overflow" building this zone map); float64 does not.
        schema = Schema.of(v=ColumnType.INT, f=ColumnType.FLOAT)
        relation = Relation(
            "R",
            schema,
            [{"v": 2**62, "f": 0.25}, {"v": 2**62, "f": 0.25}, {"v": 3, "f": 0.125}],
        )
        text = (
            "SELECT PACKAGE(R) FROM R R WHERE R.v > 0 "
            "SUCH THAT COUNT(*) <= 2 MAXIMIZE SUM(R.f)"
        )
        sql = SqlRelation.from_relation(relation)
        # v's magnitude is past float64's exact integers, so the row
        # interpreter decides WHERE on every path.
        expected = PackageQueryEvaluator(relation).evaluate(text)
        result = PackageQueryEvaluator(sql).evaluate(
            text, EngineOptions(pushdown=mode)
        )
        assert expected.objective == 0.5
        assert result.status == expected.status
        assert result.objective == expected.objective
        assert result.package.counts == expected.package.counts

    def test_nan_under_not_agrees_on_every_path(self):
        # sqlite stores NaN as NULL, so NOT (v > 5) is unknown there for
        # the NaN rows the engine keeps; only kernels may decide WHERE.
        schema = Schema.of(id=ColumnType.INT, v=ColumnType.FLOAT)
        relation = Relation(
            "T",
            schema,
            [
                {"id": i, "v": math.nan if i % 3 == 0 else float(i)}
                for i in range(12)
            ],
        )
        sql = SqlRelation.from_relation(relation, zone_rows=5)
        text = (
            "SELECT PACKAGE(T) FROM T WHERE NOT (T.v > 5) "
            "SUCH THAT COUNT(*) = 4 MINIMIZE SUM(T.id)"
        )
        results = [
            PackageQueryEvaluator(relation).evaluate(
                text, EngineOptions(strategy=strategy)
            )
            for strategy in ("auto", "sql", "brute-force")
        ] + [
            PackageQueryEvaluator(sql).evaluate(text, EngineOptions(pushdown=mode))
            for mode in ("always", "materialize")
        ]
        for result in results:
            assert result.status is ResultStatus.OPTIMAL
            assert result.objective == 6.0
            assert result.candidate_count == 8

    def test_no_where_still_evaluates(self, twin):
        relation, sql = twin
        text = (
            "SELECT PACKAGE(M) FROM Meals M "
            "SUCH THAT COUNT(*) = 2 MAXIMIZE SUM(M.calories)"
        )
        expected = PackageQueryEvaluator(relation).evaluate(text)
        result = PackageQueryEvaluator(sql).evaluate(
            text, EngineOptions(pushdown="always")
        )
        assert result.stats["where_path"] == "none"
        assert result.objective == expected.objective
        assert result.package.counts == expected.package.counts


class TestSessionIntegration:
    def test_warm_restart_reuses_stored_artifacts(self, tmp_path):
        db_path = str(tmp_path / "meals.db")
        store_path = str(tmp_path / "store")
        relation = Relation("Meals", SCHEMA, clean_rows())
        SqlRelation.from_relation(relation, path=db_path).close()
        options = EngineOptions(pushdown="always")

        with SqlRelation.open(db_path) as sql:
            session = EvaluationSession(sql, options=options, store_path=store_path)
            first = session.evaluate(CLEAN_TEXT)
            session.close()
        with SqlRelation.open(db_path) as sql:
            session = EvaluationSession(sql, options=options, store_path=store_path)
            second = session.evaluate(CLEAN_TEXT)
            store = session.store
            assert store is not None and store.stats()["hits"] > 0
            session.close()
        assert second.objective == first.objective
        assert second.package.counts == first.package.counts

    def test_mutation_rejected_on_sql_backed_relation(self):
        sql = SqlRelation.from_relation(Relation("Meals", SCHEMA, clean_rows(20)))
        session = EvaluationSession(sql)
        with pytest.raises(EngineError, match="sql-backed"):
            session.append_rows(
                [{"label": "new", "calories": 1.0, "servings": 1, "vegan": True}]
            )
        session.close()


class TestAccessPath:
    """The recheck SELECT lets sqlite take the prefilter's index only
    when the prefilter is clearly narrower than the kept zones."""

    SCHEMA = Schema.of(ts=ColumnType.FLOAT, cost=ColumnType.FLOAT, seq=ColumnType.INT)

    def relation(self):
        # 8 zones of 500 rows; ts and seq ascend with rid, so bands on
        # either keep one zone.  seq sits past 2**53, so no conjunct on
        # it is pushed into SQL.
        rows = [
            {"ts": i / 10, "cost": float((i * 37) % 100), "seq": 2**53 + 4 * i}
            for i in range(4000)
        ]
        return Relation("R", self.SCHEMA, rows)

    def run(self, relation, where, pushdown_mode="always"):
        sql = SqlRelation.from_relation(relation, zone_rows=500)
        query = analyze(
            parse(
                f"SELECT PACKAGE(R) FROM R WHERE {where} "
                "SUCH THAT COUNT(*) <= 2 MAXIMIZE SUM(R.cost)"
            ),
            self.SCHEMA,
        )
        statements = []
        sql.connection.set_trace_callback(statements.append)
        outcome = pushdown.run_where(sql, query, EngineOptions(pushdown=pushdown_mode))
        sql.connection.set_trace_callback(None)
        recheck = [s for s in statements if s.startswith("SELECT rid, ")]
        plan = (
            [
                row[3]
                for row in sql.connection.execute(f"EXPLAIN QUERY PLAN {recheck[0]}")
            ]
            if recheck
            else []
        )
        return outcome, plan

    @pytest.mark.parametrize(
        "where, kept_rows, access, plan_text",
        [
            # 11 prefilter rows against a kept zone of 500.
            ("R.ts BETWEEN 120 AND 121", 500, "index", "USING INDEX idx__R__ts"),
            # 491 of the kept zone's 500 rows.
            ("R.ts BETWEEN 100 AND 149", 500, "rowid-range", "INTEGER PRIMARY KEY"),
            # Nothing pushed, one zone kept.
            (
                f"R.seq BETWEEN {2**53 + 4000} AND {2**53 + 4040}",
                500,
                "rowid-range",
                "INTEGER PRIMARY KEY",
            ),
            # cost is unclustered, so every zone is kept: 40 rows ...
            ("R.cost BETWEEN 10 AND 10", 4000, "index", "USING INDEX idx__R__cost"),
            # ... and 840 rows of 4000, which sqlite alone would also
            # fetch through the index.
            ("R.cost BETWEEN 10 AND 30", 4000, "rowid-range", "INTEGER PRIMARY KEY"),
        ],
    )
    def test_access_follows_the_two_row_counts(
        self, where, kept_rows, access, plan_text
    ):
        relation = self.relation()
        outcome, plan = self.run(relation, where)
        assert outcome.path == "sql-pushdown"
        assert outcome.kept_rows == kept_rows
        assert outcome.zones_kept == kept_rows // 500
        assert outcome.access == access
        assert any(plan_text in line for line in plan), plan
        materialized, _ = self.run(relation, where, pushdown_mode="materialize")
        assert materialized.path == "materialized"
        assert outcome.candidate_rids == materialized.candidate_rids

    def test_unindexable_prefilter_keeps_the_rowid_range(self):
        # Selective, but sqlite cannot search an index on ts * 2, so the
        # residual form would read every row of the table.
        outcome, plan = self.run(self.relation(), "R.ts * 2 BETWEEN 240 AND 242")
        assert outcome.prefilter_rows * pushdown.INDEX_ACCESS_FACTOR <= outcome.kept_rows
        assert outcome.access == "rowid-range"
        assert any("INTEGER PRIMARY KEY" in line for line in plan), plan

    def test_access_reaches_stats_stage_detail_and_explain_footer(self):
        from repro.core.ir import stage_table

        sql = SqlRelation.from_relation(self.relation(), zone_rows=500)
        result = PackageQueryEvaluator(sql).evaluate(
            "SELECT PACKAGE(R) FROM R WHERE R.ts BETWEEN 120 AND 121 "
            "SUCH THAT COUNT(*) <= 2 MAXIMIZE SUM(R.cost)",
            EngineOptions(pushdown="always"),
        )
        choice = {"access": "index", "prefilter_rows": 11, "kept_rows": 500}
        assert choice.items() <= result.stats["pushdown"].items()
        assert result.stats["pushdown"]["path"] == "stream"
        (where,) = [s for s in result.stats["stages"] if s["name"] == STAGE_WHERE]
        assert choice.items() <= where["detail"].items()
        assert where["detail"]["path"] == "sql-pushdown"
        assert (
            "sql access: index (prefilter 11 rows, kept zones 500 rows)"
            in stage_table(result.stats["stages"])
        )
