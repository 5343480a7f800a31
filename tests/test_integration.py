"""End-to-end integration tests across the whole stack.

The capstone property: on random small instances, every exact strategy
(ILP with the from-scratch solver, ILP with HiGHS, pruned brute force,
unpruned brute force) agrees on feasibility and on the optimal
objective value — and the heuristic local search, when it returns a
package, returns a valid one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineOptions, PackageQueryEvaluator, ResultStatus
from repro.core.engine import evaluate
from repro.datasets import (
    MEAL_PLANNER_QUERY,
    PORTFOLIO_QUERY,
    VACATION_QUERY,
    generate_recipes,
    generate_stocks,
    generate_travel_products,
)
from repro.relational import ColumnType, Relation, Schema
from repro.relational.sql_relation import SqlRelation
from repro.solver import scipy_available


class TestPaperScenarios:
    @pytest.mark.parametrize("n", [100, 2000, 5000])
    def test_meal_planner_solves_exactly_across_sizes(self, n):
        result = evaluate(MEAL_PLANNER_QUERY, generate_recipes(n, seed=7))
        assert result.status is ResultStatus.OPTIMAL

    @pytest.mark.skipif(not scipy_available(), reason="scipy unavailable")
    @pytest.mark.parametrize(
        "relation, text",
        [
            (lambda: generate_recipes(200, seed=7), MEAL_PLANNER_QUERY),
            (lambda: generate_travel_products(seed=11), VACATION_QUERY),
            (lambda: generate_stocks(120, seed=13), PORTFOLIO_QUERY),
        ],
        ids=["meal", "vacation", "portfolio"],
    )
    def test_builtin_solver_matches_highs(self, relation, text):
        relation = relation()
        builtin = evaluate(text, relation, options=EngineOptions(strategy="ilp"))
        highs = evaluate(
            text,
            relation,
            options=EngineOptions(strategy="ilp", solver_backend="scipy"),
        )
        assert builtin.status is ResultStatus.OPTIMAL
        assert highs.objective == pytest.approx(builtin.objective, rel=1e-6)

    def test_meal_planner_end_to_end(self):
        recipes = generate_recipes(200)
        result = evaluate(MEAL_PLANNER_QUERY, recipes)
        assert result.status is ResultStatus.OPTIMAL
        rows = result.package.rows()
        assert len(rows) == 3
        assert all(row["gluten"] == "free" for row in rows)
        total = sum(row["calories"] for row in rows)
        assert 2000 <= total <= 2500

    def test_meal_planner_through_dbms(self):
        recipes = generate_recipes(200)
        with SqlRelation.from_relation(recipes) as sql:
            result = PackageQueryEvaluator(sql).evaluate(
                MEAL_PLANNER_QUERY, EngineOptions(pushdown="always")
            )
        assert result.status is ResultStatus.OPTIMAL
        assert result.stats["where_path"] == "sql-pushdown"
        assert result.objective == evaluate(MEAL_PLANNER_QUERY, recipes).objective

    def test_vacation_planner_disjunction(self):
        travel = generate_travel_products()
        result = evaluate(VACATION_QUERY, travel)
        assert result.status is ResultStatus.OPTIMAL
        rows = result.package.rows()
        hotel_distances = [
            row["beach_meters"] for row in rows if row["kind"] == "hotel"
        ]
        has_car = any(row["kind"] == "car" for row in rows)
        # The disjunctive constraint: walking distance OR a rental car.
        assert max(hotel_distances) <= 400 or has_car

    def test_portfolio_constraints_hold(self):
        stocks = generate_stocks(120)
        result = evaluate(PORTFOLIO_QUERY, stocks)
        rows = result.package.rows()
        assert sum(row["is_short"] for row in rows) >= 2
        assert sum(row["is_long"] for row in rows) >= 2
        assert all(row["risk"] <= 0.8 for row in rows)


@st.composite
def random_query_instances(draw):
    """A random small relation and a random (translatable) query."""
    n = draw(st.integers(4, 9))
    seed = draw(st.integers(0, 10**6))
    count_low = draw(st.integers(1, 2))
    count_high = draw(st.integers(count_low, min(4, n)))
    sum_rhs = draw(st.integers(20, 260))
    pieces = [f"COUNT(*) BETWEEN {count_low} AND {count_high}"]
    shape = draw(st.sampled_from(["sum", "avg", "minmax", "or"]))
    if shape == "sum":
        op = draw(st.sampled_from(["<=", ">="]))
        pieces.append(f"SUM(T.value) {op} {sum_rhs}")
    elif shape == "avg":
        op = draw(st.sampled_from(["<=", ">="]))
        pieces.append(f"AVG(T.value) {op} {draw(st.integers(10, 90))}")
    elif shape == "minmax":
        func = draw(st.sampled_from(["MIN", "MAX"]))
        op = draw(st.sampled_from(["<=", ">="]))
        pieces.append(f"{func}(T.value) {op} {draw(st.integers(10, 90))}")
    else:
        pieces.append(
            f"(SUM(T.value) <= {sum_rhs} OR COUNT(*) = {count_high})"
        )
    direction = draw(st.sampled_from(["MAXIMIZE", "MINIMIZE"]))
    text = (
        "SELECT PACKAGE(T) FROM T SUCH THAT "
        + " AND ".join(pieces)
        + f" {direction} SUM(T.value)"
    )
    return n, seed, text


def _value_relation(n, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    schema = Schema.of(value=ColumnType.FLOAT)
    rows = [{"value": float(rng.integers(1, 100))} for _ in range(n)]
    return Relation("T", schema, rows)


class TestStrategyAgreement:
    @given(random_query_instances())
    @settings(max_examples=40, deadline=None)
    def test_all_exact_strategies_agree(self, instance):
        n, seed, text = instance
        rel = _value_relation(n, seed)

        outcomes = {}
        outcomes["ilp"] = evaluate(
            text, rel, options=EngineOptions(strategy="ilp")
        )
        outcomes["bf"] = evaluate(
            text, rel, options=EngineOptions(strategy="brute-force")
        )
        outcomes["bf_nopruning"] = evaluate(
            text,
            rel,
            options=EngineOptions(strategy="brute-force", use_pruning=False),
        )
        outcomes["sql"] = evaluate(
            text, rel, options=EngineOptions(strategy="sql")
        )
        if scipy_available():
            outcomes["highs"] = evaluate(
                text,
                rel,
                options=EngineOptions(strategy="ilp", solver_backend="scipy"),
            )

        found = {name: result.found for name, result in outcomes.items()}
        assert len(set(found.values())) == 1, (text, found)

        if found["ilp"]:
            values = {
                name: result.objective for name, result in outcomes.items()
            }
            reference = values["bf"]
            for name, value in values.items():
                assert value == pytest.approx(reference, abs=1e-6), (
                    text,
                    values,
                )

    @given(random_query_instances())
    @settings(max_examples=25, deadline=None)
    def test_local_search_returns_only_valid_packages(self, instance):
        n, seed, text = instance
        rel = _value_relation(n, seed)
        result = evaluate(
            text, rel, options=EngineOptions(strategy="local-search")
        )
        # Heuristic: may fail to find a package, but must never return
        # an invalid one (the engine's oracle gate enforces this; the
        # call itself not raising is the assertion).
        if result.found:
            assert result.status is ResultStatus.FEASIBLE


class TestPublicApi:
    def test_quickstart_snippet_runs(self):
        # Mirrors the README quickstart.
        from repro import evaluate as api_evaluate
        from repro.datasets import generate_recipes as gen

        recipes = gen(150)
        result = api_evaluate(MEAL_PLANNER_QUERY, recipes)
        assert result.found
        assert result.package.cardinality == 3

    def test_version_exposed(self):
        import repro

        assert repro.__version__
