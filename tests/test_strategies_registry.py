"""Tests for the strategy registry, the shared cost model, and the
``partition`` (sketch-refine) strategy.

The load-bearing property lives in :class:`TestEnginePlanAgreement`:
for generated queries and several option sets — including ones that
make ``partition`` auto-eligible — ``plan().chosen_strategy`` equals
the strategy ``evaluate(strategy="auto")`` actually reports.  Since
the refactor both sides call :func:`repro.core.cost.choose_strategy`,
so this guards the single code path rather than two copies.
"""

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import (
    EngineOptions,
    EvaluationContext,
    PartitionOptions,
    ResultStatus,
    Strategy,
    all_strategies,
    build_partitioning,
    choose_strategy,
    evaluate,
    get_strategy,
    partition_attributes,
    register_strategy,
    strategy_names,
)
from repro.core.engine import PackageQueryEvaluator
from repro.core.plan import plan
from repro.core.strategies import _REGISTRY
from repro.core.translate_ilp import ILPTranslationError
from repro.datasets import generate_recipes, uniform_relation
from repro.datasets.workload import random_query
from repro.relational import ColumnType, Relation, Schema

from tests.conftest import HEADLINE


def value_relation(values, name="T"):
    schema = Schema.of(value=ColumnType.FLOAT)
    return Relation(name, schema, [{"value": float(v)} for v in values])


class TestRegistry:
    def test_builtin_strategies_registered(self):
        assert strategy_names() == [
            "brute-force",
            "ilp",
            "local-search",
            "partition",
            "sql",
        ]

    def test_get_strategy_returns_named_instance(self):
        for name in strategy_names():
            assert get_strategy(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            get_strategy("magic")

    def test_engine_dispatches_through_registry(self, meals):
        with pytest.raises(ValueError, match="unknown strategy"):
            evaluate(HEADLINE, meals, options=EngineOptions(strategy="magic"))

    def test_custom_strategy_runs_through_engine(self, meals):
        from repro.core.result import EvaluationResult

        @register_strategy
        class EmptyPackageStrategy(Strategy):
            name = "always-empty"
            exact = False
            auto_eligible = False
            summary = "returns the empty package (test double)"

            def applicable(self, query, ctx):
                return True

            def estimate(self, ctx):
                raise AssertionError("never auto-selected")

            def run(self, ctx):
                from repro.core.package import Package

                return EvaluationResult(
                    package=Package(ctx.relation, {}),
                    status=ResultStatus.FEASIBLE,
                    strategy=self.name,
                    query=ctx.query,
                )

        try:
            result = evaluate(
                "SELECT PACKAGE(R) FROM Recipes R",
                meals,
                options=EngineOptions(strategy="always-empty"),
            )
            assert result.strategy == "always-empty"
            assert result.package.cardinality == 0
        finally:
            del _REGISTRY["always-empty"]

    def test_oracle_gate_still_guards_custom_strategies(self, meals):
        """A strategy returning an invalid package is an EngineError."""
        from repro.core import EngineError
        from repro.core.result import EvaluationResult

        @register_strategy
        class LyingStrategy(Strategy):
            name = "lying"
            exact = False
            auto_eligible = False
            summary = "returns a package violating SUCH THAT"

            def applicable(self, query, ctx):
                return True

            def estimate(self, ctx):
                raise AssertionError("never auto-selected")

            def run(self, ctx):
                from repro.core.package import Package

                return EvaluationResult(
                    package=Package(ctx.relation, {}),  # cardinality 0 != 3
                    status=ResultStatus.FEASIBLE,
                    strategy=self.name,
                    query=ctx.query,
                )

        try:
            with pytest.raises(EngineError, match="invalid package"):
                evaluate(
                    HEADLINE, meals, options=EngineOptions(strategy="lying")
                )
        finally:
            del _REGISTRY["lying"]

    def test_sql_strategy_never_auto_eligible(self):
        assert not get_strategy("sql").auto_eligible

    def test_strategies_cli_lists_everything(self):
        out = io.StringIO()
        assert main(["strategies"], out=out) == 0
        text = out.getvalue()
        for name in strategy_names():
            assert name in text
        assert "explicit only" in text  # the sql strategy's dispatch note


class TestCostModel:
    def _context(self, relation, text, options=None):
        evaluator = PackageQueryEvaluator(relation)
        query = evaluator.prepare(text)
        return evaluator.context(query, options or EngineOptions())

    def test_translatable_chooses_ilp(self, meals):
        choice = choose_strategy(self._context(meals, HEADLINE))
        assert choice.name == "ilp"
        assert choice.translatable

    def test_exclusion_reroutes(self, meals):
        choice = choose_strategy(self._context(meals, HEADLINE), exclude=("ilp",))
        assert choice.name == "brute-force"

    def test_untranslatable_small_chooses_brute_force(self):
        rel = value_relation([10, 20, 30, 40])
        choice = choose_strategy(
            self._context(
                rel,
                "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2 "
                "MAXIMIZE MIN(T.value)",
            )
        )
        assert choice.name == "brute-force"
        assert "MIN" in choice.translation_error

    def test_untranslatable_large_chooses_local_search(self):
        rel = value_relation(list(range(1, 41)))
        choice = choose_strategy(
            self._context(
                rel,
                "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 3 "
                "AND SUM(T.value) >= 30 MAXIMIZE MIN(T.value)",
                EngineOptions(brute_force_limit=100),
            )
        )
        assert choice.name == "local-search"

    def test_partition_wins_above_threshold(self):
        rel = uniform_relation(300, columns=("cost", "gain"), seed=1)
        options = EngineOptions(partition=PartitionOptions(auto_threshold=200))
        choice = choose_strategy(
            self._context(
                rel,
                "SELECT PACKAGE(U) FROM Uniform U SUCH THAT COUNT(*) = 3 "
                "AND SUM(U.cost) <= 120 MAXIMIZE SUM(U.gain)",
                options,
            )
        )
        assert choice.name == "partition"
        assert any("partition threshold" in line for line in choice.decisions)

    def test_partition_ineligible_below_threshold(self):
        rel = uniform_relation(100, columns=("cost",), seed=1)
        choice = choose_strategy(
            self._context(
                rel,
                "SELECT PACKAGE(U) FROM Uniform U SUCH THAT COUNT(*) = 3 "
                "MAXIMIZE SUM(U.cost)",
            )
        )
        assert choice.name == "ilp"
        assert not choice.estimates["partition"].eligible

    def test_every_estimate_reported(self, meals):
        choice = choose_strategy(self._context(meals, HEADLINE))
        assert set(choice.estimates) == {
            "brute-force",
            "ilp",
            "local-search",
            "partition",
        }


class TestPartitioning:
    def test_attributes_come_from_objective_and_such_that(self, meals):
        evaluator = PackageQueryEvaluator(meals)
        query = evaluator.prepare(HEADLINE)
        names = {expr.name for expr in partition_attributes(query)}
        assert names == {"calories", "protein"}

    def test_groups_cover_candidates_disjointly(self):
        rel = uniform_relation(500, columns=("cost", "gain"), seed=2)
        evaluator = PackageQueryEvaluator(rel)
        query = evaluator.prepare(
            "SELECT PACKAGE(U) FROM Uniform U SUCH THAT SUM(U.cost) <= 50 "
            "MAXIMIZE SUM(U.gain)"
        )
        rids = evaluator.candidates(query)
        parts = build_partitioning(query, rel, rids, 16)
        seen = [rid for group in parts.groups for rid in group]
        assert sorted(seen) == sorted(rids)
        assert len(seen) == len(set(seen))
        assert len(parts.groups) <= 16
        for group, rep in zip(parts.groups, parts.representatives):
            assert rep in group

    @pytest.mark.parametrize("k", [2, 3, 8, 16, 64])
    def test_group_count_between_two_and_k(self, k):
        """Small k with multiple binning attributes must still split.

        Regression: per-attribute bin rounding used to collapse k=2
        into a single all-candidates group (degenerating sketch-refine
        into the full ILP) and inflate k=8 into 9 groups.
        """
        rel = uniform_relation(300, columns=("cost", "gain"), seed=4)
        evaluator = PackageQueryEvaluator(rel)
        query = evaluator.prepare(
            "SELECT PACKAGE(U) FROM Uniform U SUCH THAT SUM(U.cost) <= 50 "
            "MAXIMIZE SUM(U.gain)"
        )
        parts = build_partitioning(query, rel, list(range(300)), k)
        assert 2 <= len(parts.groups) <= k

    def test_count_star_only_query_chunks_evenly(self):
        rel = value_relation(range(100))
        evaluator = PackageQueryEvaluator(rel)
        query = evaluator.prepare(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 3"
        )
        parts = build_partitioning(query, rel, list(range(100)), 10)
        assert len(parts.groups) == 10
        assert parts.attributes == []


class TestPartitionStrategy:
    QUERY = (
        "SELECT PACKAGE(U) FROM Uniform U SUCH THAT COUNT(*) = 4 "
        "AND SUM(U.cost) <= 150 MAXIMIZE SUM(U.gain)"
    )

    def test_returns_validated_feasible_package(self):
        rel = uniform_relation(800, columns=("cost", "gain"), seed=5)
        result = evaluate(
            self.QUERY, rel, options=EngineOptions(strategy="partition")
        )
        assert result.status in (ResultStatus.FEASIBLE, ResultStatus.OPTIMAL)
        assert result.found
        assert result.package.cardinality == 4
        assert result.stats["partitions"] > 1

    def test_matches_ilp_on_objective_only_query(self):
        """Binning on the objective attribute recovers the exact top-k."""
        rel = uniform_relation(2000, columns=("gain",), seed=6)
        text = (
            "SELECT PACKAGE(U) FROM Uniform U SUCH THAT COUNT(*) = 5 "
            "MAXIMIZE SUM(U.gain)"
        )
        exact = evaluate(text, rel, options=EngineOptions(strategy="ilp"))
        sketch = evaluate(
            text, rel, options=EngineOptions(strategy="partition")
        )
        assert sketch.objective == pytest.approx(exact.objective)

    SHAPES = {
        # Binning on the objective attribute puts the global top tuples
        # in the refined partitions, so the sketch recovers the optimum.
        "selective": (
            "SELECT PACKAGE(U) FROM Uniform U SUCH THAT COUNT(*) = 5 "
            "MAXIMIZE SUM(U.gain)"
        ),
        # Tight multi-constraint query: the hard case for the sketch.
        "constrained": (
            "SELECT PACKAGE(U) FROM Uniform U "
            "SUCH THAT COUNT(*) BETWEEN 4 AND 8 "
            "AND SUM(U.cost) BETWEEN 47.5 AND 48 AND SUM(U.weight) <= 260 "
            "MAXIMIZE SUM(U.gain)"
        ),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_solves_past_brute_force_reach(self, shape):
        from repro.core import search_space_size, validate

        rel = uniform_relation(10000, columns=("cost", "gain", "weight"), seed=3)
        result = evaluate(
            self.SHAPES[shape], rel, options=EngineOptions(strategy="partition")
        )
        space = search_space_size(result.candidate_count, result.bounds)
        assert space > EngineOptions().brute_force_limit
        assert result.found
        assert validate(result.package, result.query).valid

    def test_sketch_is_root_n_sized_and_exact_on_top_k(self):
        # Where partition's speed comes from: one sketch ILP over
        # ~sqrt(n) representatives and a refine step, never the
        # n-variable model, at the ILP's own optimum.
        n = 30000
        rel = uniform_relation(n, columns=("cost", "gain", "weight"), seed=3)
        text = self.SHAPES["selective"]
        exact = evaluate(text, rel, options=EngineOptions(strategy="ilp"))
        sketch = evaluate(text, rel, options=EngineOptions(strategy="partition"))
        assert sketch.strategy == "partition"
        assert "partition_fallback" not in sketch.stats
        assert exact.stats["variables"] == n
        assert sketch.stats["sketch_variables"] <= 2 * math.isqrt(n)
        assert sketch.stats["refine_steps"] == 1
        assert sketch.objective == pytest.approx(exact.objective)

    def test_repeat_queries_supported(self):
        rel = value_relation([10, 25])
        result = evaluate(
            "SELECT PACKAGE(T) FROM T REPEAT 3 SUCH THAT SUM(T.value) = 30",
            rel,
            options=EngineOptions(strategy="partition"),
        )
        assert result.found
        assert result.package.multiplicity(0) == 3

    def test_untranslatable_raises_like_ilp(self):
        rel = value_relation([10, 20, 30, 40])
        with pytest.raises(ILPTranslationError):
            evaluate(
                "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2 "
                "MAXIMIZE MIN(T.value)",
                rel,
                options=EngineOptions(strategy="partition"),
            )

    def test_sketch_dead_end_falls_back(self):
        # No pair sums to 4.5; the sketch is infeasible and the
        # strategy defers to the cost model's next choice (ilp), which
        # proves infeasibility.
        rel = value_relation([2, 3])
        result = evaluate(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) BETWEEN 1 AND 2 "
            "AND SUM(T.value) = 4.5",
            rel,
            options=EngineOptions(strategy="partition"),
        )
        assert result.status is ResultStatus.INFEASIBLE
        assert result.strategy == "ilp"
        assert "partition_fallback" in result.stats

    def test_fallback_disabled_reports_unknown(self):
        rel = value_relation([2, 3])
        result = evaluate(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) BETWEEN 1 AND 2 "
            "AND SUM(T.value) = 4.5",
            rel,
            options=EngineOptions(
                strategy="partition",
                partition=PartitionOptions(fallback=False, num_partitions=1),
            ),
        )
        assert result.status is ResultStatus.UNKNOWN
        assert not result.found


class TestEnginePlanAgreement:
    """plan() and evaluate(strategy='auto') share one selection path."""

    OPTION_SETS = [
        EngineOptions(rewrite=False),
        EngineOptions(rewrite=False, brute_force_limit=50),
        EngineOptions(
            rewrite=False,
            partition=PartitionOptions(auto_threshold=10),
        ),
    ]

    @given(seed=st.integers(0, 10**6), option_index=st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_agreement_on_generated_queries(self, seed, option_index):
        options = self.OPTION_SETS[option_index]
        recipes = generate_recipes(30, seed=11)
        text = random_query(
            "Recipes",
            {"calories": (120.0, 1600.0), "protein": (2.0, 120.0)},
            seed=seed,
        )
        evaluator = PackageQueryEvaluator(recipes)
        query = evaluator.prepare(text)
        predicted = plan(query, recipes, options=options)
        actual = evaluator.evaluate(query, options)
        # A partition dead end legitimately reruns another strategy;
        # the prediction still names what auto *dispatched*.
        dispatched = actual.strategy
        if "partition_fallback" in actual.stats:
            dispatched = "partition"
        assert predicted.chosen_strategy == dispatched

    def test_partition_agreement_on_large_translatable(self):
        rel = uniform_relation(400, columns=("cost", "gain"), seed=9)
        options = EngineOptions(partition=PartitionOptions(auto_threshold=300))
        evaluator = PackageQueryEvaluator(rel)
        query = evaluator.prepare(
            "SELECT PACKAGE(U) FROM Uniform U SUCH THAT COUNT(*) = 3 "
            "AND SUM(U.cost) <= 150 MAXIMIZE SUM(U.gain)"
        )
        predicted = plan(query, rel, options=options)
        actual = evaluator.evaluate(query, options)
        assert predicted.chosen_strategy == "partition"
        assert actual.strategy == "partition"
