"""Differential stress tests: all exact strategies on a real workload.

Runs the random recipe workload (the generator benchmarks use) at a
size where every exact strategy terminates, and requires bitwise
agreement on feasibility and objective across: ILP (builtin solver),
ILP (HiGHS), SQL generate-and-validate, and pruned brute force — with
the heuristic checked for validity whenever it returns something.

This complements the hypothesis suites with queries shaped like real
use (categorical base constraints, mixed aggregate families,
disjunctions) rather than minimal synthetic formulas.
"""

import random

import pytest

from repro.core import EngineOptions, SQLGenerateUnsupported
from repro.core.engine import PackageQueryEvaluator
from repro.core.result import ResultStatus
from repro.datasets import generate_recipes
from repro.datasets.workload import recipe_workload
from repro.relational import Relation
from repro.relational.schema import Column, ColumnType, Schema
from repro.solver import scipy_available

RECIPES = generate_recipes(22, seed=11)
WORKLOAD = recipe_workload(12, base_seed=500, max_count=3)


def _strategies():
    strategies = [
        ("ilp-builtin", EngineOptions(strategy="ilp", solver_backend="builtin")),
        ("brute-force", EngineOptions(strategy="brute-force")),
        ("sql", EngineOptions(strategy="sql")),
    ]
    if scipy_available():
        strategies.append(
            ("ilp-highs", EngineOptions(strategy="ilp", solver_backend="scipy"))
        )
    return strategies


@pytest.mark.parametrize("query_index", range(len(WORKLOAD)))
def test_exact_strategies_agree_on_workload_query(query_index):
    query = WORKLOAD[query_index]
    evaluator = PackageQueryEvaluator(RECIPES)

    outcomes = {}
    for name, options in _strategies():
        try:
            outcomes[name] = evaluator.evaluate(query, options)
        except SQLGenerateUnsupported:
            continue  # MIN/MAX-with-NULLs etc: fragment limitation

    assert len(outcomes) >= 2
    found = {name: result.found for name, result in outcomes.items()}
    assert len(set(found.values())) == 1, found

    if any(found.values()):
        objectives = {
            name: result.objective for name, result in outcomes.items()
        }
        reference = objectives["ilp-builtin"]
        for name, value in objectives.items():
            assert value == pytest.approx(reference, abs=1e-6), objectives


@pytest.mark.parametrize("query_index", range(0, len(WORKLOAD), 3))
def test_heuristic_is_sound_on_workload_query(query_index):
    query = WORKLOAD[query_index]
    evaluator = PackageQueryEvaluator(RECIPES)
    exact = evaluator.evaluate(query, EngineOptions(strategy="ilp"))
    heuristic = evaluator.evaluate(
        query, EngineOptions(strategy="local-search")
    )
    # Soundness: the heuristic never claims feasibility on an
    # infeasible query (its packages pass the oracle), and never beats
    # the exact optimum.
    if heuristic.found:
        assert exact.found
        from repro.paql import ast

        direction = query.objective.direction
        if direction is ast.Direction.MAXIMIZE:
            assert heuristic.objective <= exact.objective + 1e-6
        else:
            assert heuristic.objective >= exact.objective - 1e-6


def test_workload_covers_multiple_feasibility_outcomes():
    """The workload is only a meaningful stressor if it includes both
    feasible and infeasible queries; guard against generator drift."""
    evaluator = PackageQueryEvaluator(RECIPES)
    verdicts = {
        evaluator.evaluate(query, EngineOptions(strategy="ilp")).found
        for query in WORKLOAD
    }
    assert verdicts == {True, False} or verdicts == {True}


# ---------------------------------------------------------------------------
# Decimal data: sums that float arithmetic cannot represent exactly
# ---------------------------------------------------------------------------

_DECIMAL_SCHEMA = Schema(
    [Column("cost", ColumnType.FLOAT), Column("gain", ColumnType.FLOAT)]
)


def _decimal_relation(pairs):
    return Relation(
        "T",
        _DECIMAL_SCHEMA,
        [{"cost": cost, "gain": gain} for cost, gain in pairs],
    )


def _knapsack_query(capacity, count=None, op="<="):
    cardinality = "" if count is None else f" AND COUNT(*) <= {count}"
    return (
        f"SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.cost) {op} {capacity}"
        f"{cardinality} MAXIMIZE SUM(T.gain)"
    )


def _verdict(relation, query, strategy):
    result = PackageQueryEvaluator(relation).evaluate(
        query, EngineOptions(strategy=strategy)
    )
    return result.status, result.objective


def test_ilp_agrees_with_brute_force_on_decimal_knapsacks():
    # One-decimal costs and gains: a package whose decimal sum equals
    # the capacity has a float sum an ulp either side of it, which the
    # validator's boundary tolerance accepts.  Brute force, judged by
    # the validator, is the reference; ilp and sql (whose generated SQL
    # widens non-strict comparisons by the same slack) must match it.
    rng = random.Random(2024)
    disagreements = []
    for draw in range(200):
        n = rng.randint(1, 8)
        pairs = [
            (rng.randint(1, 30) / 10, rng.randint(0, 30) / 10) for _ in range(n)
        ]
        capacity = rng.randint(0, 10 * n) / 10
        count = rng.choice([None, rng.randint(1, n)])
        relation = _decimal_relation(pairs)
        query = _knapsack_query(capacity, count)
        judge = _verdict(relation, query, "brute-force")
        for strategy in ("ilp", "sql"):
            verdict = _verdict(relation, query, strategy)
            if verdict[0] is not judge[0] or verdict[1] != pytest.approx(
                judge[1], abs=1e-9
            ):
                disagreements.append((draw, strategy, pairs, query, verdict, judge))
    assert disagreements == []


def test_ilp_agrees_with_brute_force_under_strict_caps_above_1000():
    # Half-unit costs above 1000 sum exactly in floats, so the judge
    # sees exact sums, and a package whose sum equals a strict cap
    # must be refused: the capacity slack must stay below the
    # translator's strict-comparison epsilon at any capacity.
    rng = random.Random(2025)
    disagreements = []
    for draw in range(100):
        n = rng.randint(1, 6)
        pairs = [
            (1000 + rng.randint(1, 8) / 2, rng.randint(0, 30) / 10)
            for _ in range(n)
        ]
        capacity = 1000 * rng.randint(1, n) + rng.randint(0, 8 * n) / 2
        count = rng.choice([None, rng.randint(1, n)])
        relation = _decimal_relation(pairs)
        query = _knapsack_query(capacity, count, op="<")
        judge = _verdict(relation, query, "brute-force")
        ilp = _verdict(relation, query, "ilp")
        if ilp[0] is not judge[0] or ilp[1] != pytest.approx(judge[1], abs=1e-9):
            disagreements.append((draw, pairs, query, ilp, judge))
    assert disagreements == []


def test_knapsack_fast_path_refuses_a_sum_equal_to_a_strict_cap():
    # 1000.5 + 999.5 is exactly 2000.0, which `< 2000` rejects.
    relation = _decimal_relation([(1000.5, 1.0), (999.5, 1.0)])
    query = _knapsack_query(2000, op="<")
    for strategy in ("ilp", "brute-force"):
        status, objective = _verdict(relation, query, strategy)
        assert status is ResultStatus.OPTIMAL, strategy
        assert objective == pytest.approx(1.0), strategy


def test_knapsack_fast_path_admits_a_sum_equal_to_the_capacity():
    # 0.5 + 0.9 + 0.3 + 0.1 is 1.8 in decimals; the fast path used to
    # refuse the last item on a capacity drained by float subtraction.
    relation = _decimal_relation([(0.5, 8), (0.3, 2), (0.9, 6), (0.1, 1)])
    query = _knapsack_query(1.8)
    for strategy in ("ilp", "brute-force"):
        status, objective = _verdict(relation, query, strategy)
        assert status is ResultStatus.OPTIMAL, strategy
        assert objective == pytest.approx(17.0), strategy


@pytest.mark.parametrize("strategy", ["ilp", "brute-force", "sql"])
def test_empty_optimal_package_is_optimal(strategy):
    # Every item is dearer than the capacity: the empty package is the
    # optimum, not a proof of infeasibility.
    relation = _decimal_relation([(0.9, 1.0), (0.5, 1.0), (0.4, 1.0)])
    status, objective = _verdict(relation, _knapsack_query(0.3), strategy)
    assert status is ResultStatus.OPTIMAL
    assert objective == 0.0
