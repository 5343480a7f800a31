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

import math
import random

import pytest

from repro.core import EngineOptions, SQLGenerateUnsupported
from repro.core.engine import PackageQueryEvaluator
from repro.core.result import EvaluationResult, ResultStatus
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


def _knapsack_query(capacity, count=None, op="<=", direction="MAXIMIZE"):
    cardinality = "" if count is None else f" AND COUNT(*) <= {count}"
    return (
        f"SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.cost) {op} {capacity!r}"
        f"{cardinality} {direction} SUM(T.gain)"
    )


def _verdict(relation, query, strategy):
    result = PackageQueryEvaluator(relation).evaluate(
        query, EngineOptions(strategy=strategy)
    )
    return result.status, result.objective


def _exact_backends():
    """``(name, options)`` of every exact path brute force judges."""
    backends = [
        ("ilp-builtin", EngineOptions(strategy="ilp", solver_backend="builtin")),
        ("sql", EngineOptions(strategy="sql")),
    ]
    if scipy_available():
        backends.append(
            ("ilp-scipy", EngineOptions(strategy="ilp", solver_backend="scipy"))
        )
    return backends


def _answer(evaluator, query, options):
    """The evaluation result, or the exception evaluating raised (the
    engine's gate refusing a package, a solver failure): either way a
    disagreement with brute force, which the table counts."""
    try:
        return evaluator.evaluate(query, options)
    except Exception as exc:  # any failure is a disagreement
        return exc


def _agrees(result, judge):
    return (
        isinstance(result, EvaluationResult)
        and result.status is judge.status
        and result.objective == pytest.approx(judge.objective, abs=1e-9)
    )


def _judged_disagreements(cases):
    """``(case, backend, verdict, judge)`` of every exact backend whose
    answer differs from brute force's on ``(pairs, query)`` cases."""
    disagreements = []
    for pairs, query in cases:
        evaluator = PackageQueryEvaluator(_decimal_relation(pairs))
        judge = evaluator.evaluate(query, EngineOptions(strategy="brute-force"))
        for name, options in _exact_backends():
            result = _answer(evaluator, query, options)
            if not _agrees(result, judge):
                verdict = (
                    (result.status, result.objective)
                    if isinstance(result, EvaluationResult)
                    else repr(result)
                )
                disagreements.append(
                    ((pairs, query), name, verdict, (judge.status, judge.objective))
                )
    return disagreements


#: Strict caps where any fixed margin fails: ``SUM(x) <= C - 1e-6``
#: excludes the empty package near 0 and valid sums within 1e-6 of C
#: near 1, and rounds back to C past about 1e11, where HiGHS's own
#: tolerance also admits C.
STRICT_PROBES = [
    ((5e-8, 4e-8), 1e-7),
    ((0.4, 0.5999995), 1.0),
    ((6e8 + 0.5, 4e8 - 0.5), 1e9),
    ((6e11, 4e11), 1e12),
    ((1000.5, 999.5), 2000),
]


def test_strict_probes_agree_with_brute_force():
    cases = [
        ([(cost, 1.0) for cost in costs], _knapsack_query(capacity, op="<"))
        for costs, capacity in STRICT_PROBES
    ]
    assert _judged_disagreements(cases) == []


def test_ilp_agrees_with_brute_force_on_decimal_knapsacks():
    # One-decimal costs and gains: a package whose decimal sum equals
    # the capacity has a float sum an ulp either side of it, which the
    # validator's boundary tolerance accepts under ``<=`` and refuses
    # under ``<``.  Brute force, judged by the validator, is the
    # reference; ilp on both backends and sql (whose generated SQL
    # widens non-strict comparisons by the same slack) must match it.
    rng = random.Random(2024)
    cases = [
        ([(0.1, 1.0)] * 12, _knapsack_query(1.0, op="<")),
        ([(0.3, 1.0)] * 12, _knapsack_query(0.9, op="<")),
        ([(0.7, 1.0)] * 6, _knapsack_query(2.1, op="<")),
    ]
    for _ in range(200):
        n = rng.randint(1, 8)
        pairs = [
            (rng.randint(1, 30) / 10, rng.randint(0, 30) / 10) for _ in range(n)
        ]
        capacity = rng.randint(0, 10 * n) / 10
        count = rng.choice([None, rng.randint(1, n)])
        op = rng.choice(["<=", "<"])
        cases.append((pairs, _knapsack_query(capacity, count, op)))
    assert _judged_disagreements(cases) == []


#: Decades of the strict-cap differential, 1e-8 to 1e12.
STRICT_DECADES = range(-8, 13)


def strict_cap_differential(draws):
    """``{(decade, backend): [disagreements, judge cuts]}`` over
    ``draws`` seeded relations per decade, each asked ``SUM(cost) < C
    MAXIMIZE`` and ``SUM(cost) > C MINIMIZE``.

    Costs are dyadic, ``randint(1, 40)`` units of the power of two
    nearest ``10^decade / 16``, so every package sum is exact and the
    judge sees no rounding; ``C`` is the sum of the ``k`` cheapest
    costs, so packages sit on the strict boundary.
    """
    rng = random.Random(2025)
    table = {}
    for decade in STRICT_DECADES:
        unit = 2.0 ** (round(math.log2(10.0**decade)) - 4)
        for _ in range(draws):
            n = rng.randint(1, 6)
            pairs = [
                (rng.randint(1, 40) * unit, rng.randint(0, 30) / 10)
                for _ in range(n)
            ]
            capacity = sum(sorted(cost for cost, _ in pairs)[: rng.randint(0, n)])
            evaluator = PackageQueryEvaluator(_decimal_relation(pairs))
            for op, direction in (("<", "MAXIMIZE"), (">", "MINIMIZE")):
                query = _knapsack_query(capacity, op=op, direction=direction)
                judge = evaluator.evaluate(
                    query, EngineOptions(strategy="brute-force")
                )
                for name, options in _exact_backends():
                    result = _answer(evaluator, query, options)
                    cell = table.setdefault((decade, name), [0, 0])
                    cell[0] += not _agrees(result, judge)
                    if isinstance(result, EvaluationResult):
                        cell[1] += result.stats.get("judge_cuts", 0)
    return table


def test_ilp_agrees_with_brute_force_under_strict_caps_at_every_decade():
    """A strict cap leaves the translator as the nearest multiple of
    the row's grid on its strict side (exact on dyadic costs), with no
    margin, at any magnitude; the solve's judge refuses whatever still
    sits on the cap.

    Print the disagreements and judge cuts per decade and backend, to
    diff a solver change against its parent, with::

        PYTHONPATH=src python3 tests/test_differential.py
    """
    table = strict_cap_differential(draws=15)
    assert {key: cell[0] for key, cell in table.items() if cell[0]} == {}


def test_builtin_search_keeps_a_row_of_1e10_coefficients():
    # The simplex's absolute tolerances sat below an ulp of this row's
    # slack, and branch and bound took gain 8 as optimal.
    pairs = [(4294967296, 3), (10737418240, 6), (15569256448, 8)]
    query = (
        "SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.cost) >= 4831838208 "
        "MINIMIZE SUM(T.gain)"
    )
    assert _judged_disagreements([(pairs, query)]) == []
    status, objective = _verdict(_decimal_relation(pairs), query, "ilp")
    assert (status, objective) == (ResultStatus.OPTIMAL, 6.0)


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


if __name__ == "__main__":
    table = strict_cap_differential(draws=15)
    names = sorted({name for _, name in table})
    print("decade " + "".join(f"{name:>24}" for name in names))
    for decade in STRICT_DECADES:
        cells = "".join(
            "{:>10} wrong {:>4} cuts".format(*table[decade, name]) for name in names
        )
        print(f"1e{decade:<+4d} {cells}")
    totals = "".join(
        "{:>10} wrong {:>4} cuts".format(
            *(sum(table[decade, name][i] for decade in STRICT_DECADES) for i in (0, 1))
        )
        for name in names
    )
    print(f"total  {totals}")
