"""Tests for the package query evaluator (engine)."""

import pytest

from repro.core import EngineError, EngineOptions, PackageQueryEvaluator, ResultStatus
from repro.core.engine import evaluate
from repro.relational import ColumnType, Relation, Schema

from tests.conftest import HEADLINE


def value_relation(values, name="T"):
    schema = Schema.of(value=ColumnType.FLOAT)
    return Relation(name, schema, [{"value": float(v)} for v in values])


class TestPipeline:
    def test_headline_query_optimal(self, meals):
        result = evaluate(HEADLINE, meals)
        assert result.status is ResultStatus.OPTIMAL
        assert result.found
        assert result.package.cardinality == 3
        assert result.objective is not None
        # All selected meals are gluten-free.
        assert all(row["gluten"] == "free" for row in result.package.rows())

    def test_text_and_ast_inputs_agree(self, meals):
        from repro.paql.parser import parse

        evaluator = PackageQueryEvaluator(meals)
        by_text = evaluator.evaluate(HEADLINE)
        by_ast = evaluator.evaluate(parse(HEADLINE))
        assert by_text.package == by_ast.package

    def test_wrong_relation_rejected(self, meals):
        with pytest.raises(EngineError, match="this evaluator holds"):
            evaluate("SELECT PACKAGE(X) FROM X", meals)

    def test_candidate_count_reported(self, meals):
        result = evaluate(HEADLINE, meals)
        free = sum(1 for row in meals if row["gluten"] == "free")
        assert result.candidate_count == free

    def test_elapsed_time_positive(self, meals):
        assert evaluate(HEADLINE, meals).elapsed_seconds > 0


class TestBasePushdown:
    def test_no_where_selects_everything(self, meals):
        evaluator = PackageQueryEvaluator(meals)
        query = evaluator.prepare("SELECT PACKAGE(R) FROM Recipes R")
        assert evaluator.candidates(query) == list(range(len(meals)))


class TestStrategies:
    def test_all_exact_strategies_agree(self, meals):
        results = {}
        for strategy in ("ilp", "brute-force"):
            results[strategy] = evaluate(
                HEADLINE, meals, options=EngineOptions(strategy=strategy)
            )
        assert (
            results["ilp"].objective
            == pytest.approx(results["brute-force"].objective)
        )

    def test_local_search_returns_valid_feasible(self, meals):
        result = evaluate(
            HEADLINE, meals, options=EngineOptions(strategy="local-search")
        )
        assert result.status is ResultStatus.FEASIBLE
        assert result.found

    def test_scipy_backend_matches_builtin(self, meals):
        from repro.solver import scipy_available

        if not scipy_available():
            pytest.skip("scipy unavailable")
        builtin = evaluate(
            HEADLINE, meals, options=EngineOptions(solver_backend="builtin")
        )
        scipy_result = evaluate(
            HEADLINE, meals, options=EngineOptions(solver_backend="scipy")
        )
        assert builtin.objective == pytest.approx(scipy_result.objective)

    def test_unknown_strategy_rejected(self, meals):
        with pytest.raises(ValueError, match="unknown strategy"):
            evaluate(HEADLINE, meals, options=EngineOptions(strategy="magic"))

    def test_auto_falls_back_on_untranslatable_query(self):
        # MAXIMIZE MIN(...) has no linear encoding; auto must still
        # return the exact answer via brute force at this size.
        rel = value_relation([10, 20, 30, 40])
        result = evaluate(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2 "
            "MAXIMIZE MIN(T.value)",
            rel,
        )
        assert result.strategy == "brute-force"
        assert result.status is ResultStatus.OPTIMAL
        assert "ilp_fallback_reason" in result.stats
        # Best MIN over pairs: {30, 40} -> 30.
        assert result.objective == pytest.approx(30)

    def test_auto_uses_local_search_on_large_untranslatable(self):
        rel = value_relation(list(range(1, 41)))
        result = evaluate(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 3 AND SUM(T.value) >= 30 "
            "MAXIMIZE MIN(T.value)",
            rel,
            options=EngineOptions(brute_force_limit=100),
        )
        assert result.strategy == "local-search"
        assert result.found


class TestOutcomes:
    def test_infeasible_by_pruning(self):
        rel = value_relation([1, 2])
        result = evaluate(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 10", rel
        )
        assert result.status is ResultStatus.INFEASIBLE
        assert result.strategy == "pruning"
        assert not result.found

    def test_infeasible_by_solver(self):
        rel = value_relation([2, 3])
        # Bounds allow cardinality 1..2 but no subset sums to exactly 99.
        result = evaluate(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) BETWEEN 1 AND 2 AND SUM(T.value) = 4.5",
            rel,
        )
        assert result.status is ResultStatus.INFEASIBLE
        assert result.strategy == "ilp"

    def test_pruning_disabled_still_correct(self, meals):
        result = evaluate(
            HEADLINE,
            meals,
            options=EngineOptions(strategy="brute-force", use_pruning=False),
        )
        baseline = evaluate(
            HEADLINE, meals, options=EngineOptions(strategy="brute-force")
        )
        assert result.objective == pytest.approx(baseline.objective)
        assert result.stats["examined"] > baseline.stats["examined"]

    def test_query_without_objective(self, meals):
        result = evaluate(
            "SELECT PACKAGE(R) FROM Recipes R SUCH THAT COUNT(*) = 2",
            meals,
        )
        assert result.found
        assert result.objective is None

    def test_repeat_query_end_to_end(self):
        rel = value_relation([10, 25])
        result = evaluate(
            "SELECT PACKAGE(T) FROM T REPEAT 3 SUCH THAT SUM(T.value) = 30",
            rel,
        )
        assert result.found
        assert result.package.multiplicity(0) == 3
