"""Tests for SQL-based candidate generation (paper evaluation option (i))."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    EngineOptions,
    PackageQueryEvaluator,
    SQLGenerateUnsupported,
    build_generate_sql,
    find_best,
    is_valid,
    iter_valid_packages,
    sql_enumerate,
    sql_find_best,
)
from repro.core.engine import evaluate
from repro.core.validator import objective_value
from repro.paql.semantics import parse_and_analyze
from repro.relational import ColumnType, Database, Relation, Schema


def value_relation(values, name="T"):
    schema = Schema.of(value=ColumnType.FLOAT)
    return Relation(
        name,
        schema,
        [{"value": None if v is None else float(v)} for v in values],
    )


def analyzed(text, relation):
    return parse_and_analyze(text, relation.schema)


def db_for(relation):
    db = Database()
    db.load_relation(relation)
    return db


class TestEnumeration:
    def test_matches_in_memory_enumerator(self):
        rel = value_relation([5, 10, 15, 20, 25])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND SUM(T.value) <= 30",
            rel,
        )
        db = db_for(rel)
        via_sql = set(sql_enumerate(db, query, rel, range(5), 2))
        via_python = {
            p
            for p in iter_valid_packages(query, rel, range(5))
            if p.cardinality == 2
        }
        assert via_sql == via_python

    def test_base_constraints_applied(self):
        schema = Schema.of(value=ColumnType.FLOAT, tag=ColumnType.TEXT)
        rel = Relation(
            "T",
            schema,
            [
                {"value": 10.0, "tag": "in"},
                {"value": 20.0, "tag": "out"},
                {"value": 30.0, "tag": "in"},
            ],
        )
        query = parse_and_analyze(
            "SELECT PACKAGE(T) FROM T WHERE T.tag = 'in' "
            "SUCH THAT COUNT(*) = 2",
            rel.schema,
        )
        db = db_for(rel)
        packages = sql_enumerate(db, query, rel, [0, 2], 2)
        assert packages == [type(packages[0])(rel, [0, 2])]

    def test_disjunctive_formula_renders(self):
        rel = value_relation([10, 20, 30])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND (SUM(T.value) <= 30 OR SUM(T.value) >= 50)",
            rel,
        )
        db = db_for(rel)
        packages = sql_enumerate(db, query, rel, range(3), 2)
        assert all(is_valid(p, query) for p in packages)
        assert len(packages) == 2  # {10,20}=30 and {20,30}=50

    def test_limit(self):
        rel = value_relation([1, 2, 3, 4, 5])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2", rel
        )
        db = db_for(rel)
        assert len(sql_enumerate(db, query, rel, range(5), 2, limit=3)) == 3


class TestFindBest:
    def test_matches_brute_force_with_objective(self):
        rel = value_relation([5, 10, 15, 20, 25])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) BETWEEN 1 AND 3 AND SUM(T.value) <= 45 "
            "MAXIMIZE SUM(T.value)",
            rel,
        )
        db = db_for(rel)
        via_sql = sql_find_best(db, query, rel, range(5))
        exact = find_best(query, rel, range(5))
        assert objective_value(via_sql, query) == pytest.approx(
            objective_value(exact, query)
        )

    def test_minimize_direction(self):
        rel = value_relation([5, 10, 15])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 MINIMIZE SUM(T.value)",
            rel,
        )
        db = db_for(rel)
        best = sql_find_best(db, query, rel, range(3))
        assert objective_value(best, query) == 15  # 5 + 10

    def test_infeasible_returns_none(self):
        rel = value_relation([1, 2])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.value) >= 100", rel
        )
        db = db_for(rel)
        assert sql_find_best(db, query, rel, range(2)) is None

    def test_empty_package_handled_in_python(self):
        rel = value_relation([1])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.value) <= 100 "
            "MINIMIZE SUM(T.value)",
            rel,
        )
        db = db_for(rel)
        best = sql_find_best(db, query, rel, range(1))
        assert best.cardinality == 0

    def test_minmax_constraint_without_nulls(self):
        rel = value_relation([10, 20, 30, 40])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND MIN(T.value) >= 20 "
            "MAXIMIZE SUM(T.value)",
            rel,
        )
        db = db_for(rel)
        best = sql_find_best(db, query, rel, range(4))
        exact = find_best(query, rel, range(4))
        assert objective_value(best, query) == pytest.approx(
            objective_value(exact, query)
        )

    def test_avg_constraint(self):
        rel = value_relation([10, 20, 30, 40])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND AVG(T.value) <= 20 MAXIMIZE SUM(T.value)",
            rel,
        )
        db = db_for(rel)
        best = sql_find_best(db, query, rel, range(4))
        exact = find_best(query, rel, range(4))
        assert objective_value(best, query) == pytest.approx(
            objective_value(exact, query)
        )

    def test_sum_with_nulls(self):
        rel = value_relation([10, None, 30])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND SUM(T.value) <= 30 MAXIMIZE SUM(T.value)",
            rel,
        )
        db = db_for(rel)
        best = sql_find_best(db, query, rel, range(3))
        exact = find_best(query, rel, range(3))
        assert objective_value(best, query) == pytest.approx(
            objective_value(exact, query)
        )


class TestUnsupportedFragment:
    def test_repeat_rejected(self):
        rel = value_relation([1])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T REPEAT 2 SUCH THAT COUNT(*) = 2", rel
        )
        with pytest.raises(SQLGenerateUnsupported, match="set semantics"):
            build_generate_sql(query, rel, [0], 2, False)

    def test_nan_aggregate_argument_rejected(self):
        # Probe 3: sqlite would read the NaN rows' SUM(value) as 0.
        rel = id_value_relation(
            [math.nan if i % 3 == 0 else i for i in range(9)]
        )
        text = (
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2 AND "
            "SUM(T.value) <= 100 MINIMIZE SUM(T.id)"
        )
        with pytest.raises(SQLGenerateUnsupported, match="NaN"):
            evaluate(text, rel, options=EngineOptions(strategy="sql"))
        exact = evaluate(text, rel, options=EngineOptions(strategy="brute-force"))
        assert exact.objective == 3.0

    def test_minmax_with_nulls_rejected(self):
        rel = value_relation([10, None])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT MIN(T.value) >= 5", rel
        )
        with pytest.raises(SQLGenerateUnsupported, match="NULL"):
            build_generate_sql(query, rel, [0, 1], 2, False)


class TestEngineIntegration:
    def test_sql_strategy_through_engine(self, meals, headline_query):
        via_sql = evaluate(
            headline_query, meals, options=EngineOptions(strategy="sql")
        )
        via_ilp = evaluate(
            headline_query, meals, options=EngineOptions(strategy="ilp")
        )
        assert via_sql.status == via_ilp.status
        assert via_sql.objective == pytest.approx(via_ilp.objective)
        assert via_sql.strategy == "sql"


def id_value_relation(values):
    schema = Schema.of(id=ColumnType.INT, value=ColumnType.FLOAT)
    return Relation(
        "T",
        schema,
        [{"id": i, "value": float(v)} for i, v in enumerate(values)],
    )


#: Probe 2: NaN rows pass NOT (value > 5) in the engine, while sqlite
#: (which stores NaN as NULL) would drop them; rid 0 is in the optimum.
NAN_UNDER_NOT = (
    [math.nan, 1, 2, math.nan, 4, 5, math.nan, 7, 8],
    "SELECT PACKAGE(T) FROM T WHERE NOT (T.value > 5) "
    "SUCH THAT COUNT(*) = 2 MINIMIZE SUM(T.id)",
)


@st.composite
def sql_instances(draw):
    n = draw(st.integers(3, 6))
    values = draw(
        st.lists(
            st.one_of(st.integers(1, 60), st.just(math.nan)),
            min_size=n,
            max_size=n,
        )
    )
    where = draw(
        st.sampled_from(
            ["", f"WHERE NOT (T.value > {draw(st.integers(1, 60))}) "]
        )
    )
    column = draw(st.sampled_from(["id", "value"]))
    count_high = draw(st.integers(1, 3))
    op = draw(st.sampled_from(["<=", ">="]))
    rhs = draw(st.integers(10, 150))
    direction = draw(st.sampled_from(["MAXIMIZE", "MINIMIZE"]))
    text = (
        f"SELECT PACKAGE(T) FROM T {where}SUCH THAT "
        f"COUNT(*) BETWEEN 1 AND {count_high} AND SUM(T.{column}) {op} {rhs} "
        f"{direction} SUM(T.{column})"
    )
    return values, text


class TestRandomizedAgreement:
    @given(sql_instances())
    @example(NAN_UNDER_NOT)
    @settings(max_examples=40, deadline=None)
    def test_sql_matches_brute_force(self, instance):
        values, text = instance
        rel = id_value_relation(values)
        query = analyzed(text, rel)
        candidates = PackageQueryEvaluator(rel).candidates(query)
        exact = find_best(query, rel, candidates)
        db = db_for(rel)
        try:
            if "SUM(T.value)" in text and any(
                math.isnan(values[rid]) for rid in candidates
            ):
                with pytest.raises(SQLGenerateUnsupported, match="NaN"):
                    sql_find_best(db, query, rel, candidates)
                return
            via_sql = sql_find_best(db, query, rel, candidates)
        finally:
            db.close()
        if exact is None:
            assert via_sql is None
        else:
            assert objective_value(via_sql, query) == pytest.approx(
                objective_value(exact, query)
            )
