"""Edge-case battery across modules: degeneracy, redundancy, extremes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EngineOptions,
    Package,
    find_best,
    is_valid,
    translate,
)
from repro.core.engine import PackageQueryEvaluator, evaluate
from repro.core.validator import objective_value
from repro.paql.semantics import parse_and_analyze
from repro.relational import ColumnType, Relation, Schema
from repro.solver import (
    ConstraintSense,
    Model,
    ModelError,
    ObjectiveSense,
    Status,
    solve_lp,
    solve_milp,
)

try:
    from scipy.optimize import linprog

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    HAVE_SCIPY = False


def value_relation(values, name="T"):
    schema = Schema.of(value=ColumnType.FLOAT)
    return Relation(
        name,
        schema,
        [{"value": None if v is None else float(v)} for v in values],
    )


class TestSolverDegeneracy:
    def test_duplicated_equality_rows(self):
        # Redundant rows leave an artificial basic at zero in phase 2;
        # the solver must still finish and be right.
        model = Model()
        x = model.add_variable(upper=10)
        y = model.add_variable(upper=10)
        model.add_constraint({x: 1, y: 1}, "=", 6)
        model.add_constraint({x: 1, y: 1}, "=", 6)
        model.add_constraint({x: 2, y: 2}, "=", 12)
        model.set_objective({x: 1, y: 3}, ObjectiveSense.MINIMIZE)
        from repro.solver import solve_model_lp

        result = solve_model_lp(model)
        assert result.status is Status.OPTIMAL
        assert result.objective == pytest.approx(6)  # x=6, y=0

    def test_contradictory_duplicate_rows(self):
        model = Model()
        x = model.add_variable(upper=10)
        model.add_constraint({x: 1}, "=", 3)
        model.add_constraint({x: 1}, "=", 4)
        from repro.solver import solve_model_lp

        assert solve_model_lp(model).status is Status.INFEASIBLE

    def test_all_zero_objective(self):
        model = Model()
        x = model.add_variable(upper=5, integer=True)
        model.add_constraint({x: 1}, ">=", 2)
        solution = solve_milp(model)
        assert solution.status is Status.OPTIMAL
        assert 2 <= solution.x[0] <= 5

    def test_variable_fixed_by_bounds(self):
        model = Model()
        x = model.add_variable(lower=3, upper=3)
        y = model.add_variable(upper=10)
        model.add_constraint({x: 1, y: 1}, "<=", 8)
        model.set_objective({y: -1})
        from repro.solver import solve_model_lp

        result = solve_model_lp(model)
        assert result.x[0] == pytest.approx(3)
        assert result.x[1] == pytest.approx(5)

    def test_tiny_coefficients(self):
        model = Model()
        x = model.add_variable(upper=1e6)
        model.add_constraint({x: 1e-4}, "<=", 1.0)
        model.set_objective({x: -1})
        from repro.solver import solve_model_lp

        result = solve_model_lp(model)
        assert result.x[0] == pytest.approx(1e4)

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy unavailable")
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_degenerate_lps_with_duplicate_rows_match_highs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        base_rows = int(rng.integers(1, 3))
        c = rng.integers(-3, 4, size=n).astype(float)
        rows = [rng.integers(-3, 4, size=n).astype(float) for _ in range(base_rows)]
        rhs = [float(rng.integers(0, 12)) for _ in range(base_rows)]
        # Duplicate every row (and one scaled copy) to force degeneracy.
        A = np.array(rows + rows + [rows[0] * 2])
        b = np.array(rhs + rhs + [rhs[0] * 2])
        senses = [ConstraintSense.LE] * len(b)
        upper = np.full(n, 7.0)
        lower = np.zeros(n)

        ours = solve_lp(c, A, senses, b, lower, upper)
        theirs = linprog(
            c,
            A_ub=A,
            b_ub=b,
            bounds=list(zip(lower, upper)),
            method="highs",
        )
        if theirs.status == 0:
            assert ours.status is Status.OPTIMAL
            assert ours.objective == pytest.approx(theirs.fun, abs=1e-6)
        elif theirs.status == 2:
            assert ours.status is Status.INFEASIBLE


class TestQueryExtremes:
    def test_single_tuple_relation(self):
        rel = value_relation([42])
        result = evaluate(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 1 "
            "MAXIMIZE SUM(T.value)",
            rel,
        )
        assert result.found
        assert result.objective == 42

    def test_empty_candidate_set(self):
        schema = Schema.of(value=ColumnType.FLOAT, tag=ColumnType.TEXT)
        rel = Relation(
            "T", schema, [{"value": 1.0, "tag": "x"}]
        )
        result = evaluate(
            "SELECT PACKAGE(T) FROM T WHERE T.tag = 'nope' "
            "SUCH THAT COUNT(*) = 1",
            rel,
        )
        assert not result.found

    def test_zero_row_relation(self):
        rel = Relation("T", Schema.of(value=ColumnType.FLOAT), [])
        result = evaluate(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) >= 1", rel
        )
        assert not result.found

    def test_empty_package_is_a_legitimate_answer(self):
        rel = value_relation([5])
        result = evaluate(
            "SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.value) <= 100 "
            "MINIMIZE SUM(T.value)",
            rel,
        )
        assert result.found
        assert result.package.cardinality == 0
        assert result.objective == 0

    def test_all_null_aggregate_column(self):
        rel = value_relation([None, None, None])
        # MIN over all-NULL is NULL: no package can satisfy the bound.
        result = evaluate(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) >= 1 AND MIN(T.value) >= 0",
            rel,
        )
        assert not result.found

    def test_equality_on_fractional_sum(self):
        rel = value_relation([10.25, 20.5, 30.25])
        result = evaluate(
            "SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.value) = 30.75", rel
        )
        assert result.found
        assert result.package.aggregate(
            result.query.such_that.left
        ) == pytest.approx(30.75)

    def test_huge_repeat_bound(self):
        rel = value_relation([1])
        result = evaluate(
            "SELECT PACKAGE(T) FROM T REPEAT 50 SUCH THAT SUM(T.value) = 37",
            rel,
        )
        assert result.found
        assert result.package.multiplicity(0) == 37

    def test_negative_values_with_minimize(self):
        rel = value_relation([-10, -5, 3, 8])
        result = evaluate(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2 "
            "MINIMIZE SUM(T.value)",
            rel,
        )
        assert result.objective == pytest.approx(-15)

    def test_objective_mixing_count_and_sum(self):
        rel = value_relation([10, 20])
        result = evaluate(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) <= 2 "
            "MAXIMIZE SUM(T.value) - 100 * COUNT(*)",
            rel,
        )
        # Each tuple costs 100 but yields at most 20: take nothing.
        assert result.package.cardinality == 0
        assert result.objective == 0

    def test_same_aggregate_on_both_sides(self):
        rel = value_relation([10, 20, 30])
        result = evaluate(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND SUM(T.value) = SUM(T.value) "
            "MAXIMIZE SUM(T.value)",
            rel,
        )
        assert result.found  # tautology collapses to 0 = 0

    def test_cross_aggregate_comparison(self):
        schema = Schema.of(a=ColumnType.FLOAT, b=ColumnType.FLOAT)
        rel = Relation(
            "T",
            schema,
            [
                {"a": 10.0, "b": 5.0},
                {"a": 3.0, "b": 9.0},
                {"a": 7.0, "b": 7.0},
            ],
        )
        query = parse_and_analyze(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND SUM(T.a) >= SUM(T.b) MAXIMIZE SUM(T.b)",
            rel.schema,
        )
        translation = translate(query, rel, [0, 1, 2])
        solution = solve_milp(translation.model)
        package = translation.decode(solution)
        exact = find_best(query, rel, [0, 1, 2])
        assert objective_value(package, query) == pytest.approx(
            objective_value(exact, query)
        )


class TestNonFiniteObjective:
    """An infinite objective coefficient is refused at translation.

    It used to reach the solver: with gains ``(inf, 3, -inf)`` the
    simplex computed ``inf - inf`` and answered INFEASIBLE where brute
    force finds a package, and with ``(inf, 3, 1)`` the knapsack fast
    path never returned.
    """

    QUERY = (
        "SELECT PACKAGE(R) FROM R R SUCH THAT COUNT(*) <= 2 "
        "MAXIMIZE SUM(R.gain)"
    )

    @pytest.mark.parametrize(
        "gains, reduce",
        [
            ((math.inf, 3.0, -math.inf), "off"),
            ((math.inf, 3.0, 1.0), "off"),
            ((math.inf, 3.0, 1.0), "safe"),
        ],
    )
    def test_ilp_refuses_instead_of_answering_wrongly(self, gains, reduce):
        rel = Relation.from_dicts(
            "R", [{"cost": float(i + 1), "gain": g} for i, g in enumerate(gains)]
        )
        with pytest.raises(ModelError, match="non-finite coefficient"):
            evaluate(
                self.QUERY,
                rel,
                EngineOptions(strategy="ilp", solver_backend="builtin"),
                reduce=reduce,
            )


class TestEngineRobustness:
    def test_prepare_accepts_analyzed_query(self, meals, headline_query):
        evaluator = PackageQueryEvaluator(meals)
        analyzed = evaluator.prepare(headline_query)
        again = evaluator.prepare(analyzed)
        assert again == analyzed

    def test_evaluator_reuse_across_queries(self, meals):
        evaluator = PackageQueryEvaluator(meals)
        first = evaluator.evaluate(
            "SELECT PACKAGE(R) FROM Recipes R SUCH THAT COUNT(*) = 1 "
            "MAXIMIZE SUM(R.protein)"
        )
        second = evaluator.evaluate(
            "SELECT PACKAGE(R) FROM Recipes R SUCH THAT COUNT(*) = 2 "
            "MINIMIZE SUM(R.fat)"
        )
        assert first.package.cardinality == 1
        assert second.package.cardinality == 2

    def test_rewrite_of_contradictory_where_gives_no_candidates(self, meals):
        result = evaluate(
            "SELECT PACKAGE(R) FROM Recipes R "
            "WHERE R.calories >= 1000 AND R.calories <= 100 "
            "SUCH THAT COUNT(*) >= 1",
            meals,
        )
        assert not result.found
        assert result.candidate_count == 0
        assert "contradiction" in result.stats.get("rewrites", [])

    def test_stats_meaningful_for_every_strategy(self, meals, headline_query):
        for strategy in ("ilp", "brute-force", "local-search", "sql"):
            result = evaluate(
                headline_query,
                meals,
                options=EngineOptions(strategy=strategy),
            )
            assert result.strategy == strategy
            assert result.elapsed_seconds > 0
