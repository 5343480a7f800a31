"""E5 — the headline meal-planner query at scale (paper Sections 1-2).

Claim: the demo evaluates the Section 2 query ("3 gluten-free meals,
2000-2500 total calories, maximize protein") interactively on a "rich
recipe data set".  This bench sweeps dataset size through the full
pipeline (parse, analyze, pushdown, prune, translate, solve, validate)
and through the sqlite DBMS path (the table in sqlite, WHERE pushed
down and rechecked), recording wall-clock per n.
"""

import pytest

from repro.core import EngineOptions
from repro.core.engine import PackageQueryEvaluator
from repro.datasets import MEAL_PLANNER_QUERY, generate_recipes
from repro.relational.sql_relation import SqlRelation


@pytest.mark.parametrize("n", [100, 500, 2000, 5000])
def test_full_pipeline(benchmark, n):
    recipes = generate_recipes(n, seed=7)

    def run():
        return PackageQueryEvaluator(recipes).evaluate(MEAL_PLANNER_QUERY)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info.update(
        {
            "n": n,
            "status": result.status.value,
            "objective": result.objective,
            "candidates": result.candidate_count,
        }
    )
    assert result.status.value == "optimal"


@pytest.mark.parametrize("n", [500, 2000])
def test_full_pipeline_through_dbms(benchmark, n):
    recipes = generate_recipes(n, seed=7)

    def run():
        with SqlRelation.from_relation(recipes) as table:
            return PackageQueryEvaluator(table).evaluate(
                MEAL_PLANNER_QUERY, EngineOptions(pushdown="always")
            )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info.update(
        {"n": n, "status": result.status.value, "objective": result.objective}
    )


@pytest.mark.parametrize("n", [2000])
def test_scipy_backend_at_scale(benchmark, n):
    from repro.solver import scipy_available

    if not scipy_available():
        pytest.skip("scipy unavailable")
    recipes = generate_recipes(n, seed=7)

    def run():
        return PackageQueryEvaluator(recipes).evaluate(
            MEAL_PLANNER_QUERY, EngineOptions(solver_backend="scipy")
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info.update({"n": n, "objective": result.objective})
