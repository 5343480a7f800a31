"""Fuzz properties for the assistive tooling.

The auto-suggester and linter sit in the interactive path: whatever
the user has typed, they must answer without crashing, and advisories
must never change evaluation results.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineOptions
from repro.core.engine import PackageQueryEvaluator
from repro.datasets import MEAL_PLANNER_QUERY, PORTFOLIO_QUERY, VACATION_QUERY
from repro.datasets import generate_recipes
from repro.datasets.workload import random_query
from repro.paql.autocomplete import complete
from repro.paql.lint import lint
from repro.paql.printer import print_query
from repro.relational import Column, ColumnType, Schema

SCENARIO_TEXTS = [
    MEAL_PLANNER_QUERY.strip(),
    VACATION_QUERY.strip(),
    PORTFOLIO_QUERY.strip(),
]

SCHEMA = Schema(
    [
        Column("gluten", ColumnType.TEXT),
        Column("calories", ColumnType.FLOAT),
        Column("protein", ColumnType.FLOAT),
    ]
)


class TestAutocompleteFuzz:
    @given(
        st.sampled_from(SCENARIO_TEXTS),
        st.integers(0, 300),
    )
    @settings(max_examples=300, deadline=None)
    def test_never_crashes_on_query_prefixes(self, text, cut):
        prefix = text[: min(cut, len(text))]
        suggestions = complete(prefix, schema=SCHEMA)
        assert isinstance(suggestions, list)
        for suggestion in suggestions:
            assert suggestion.text
            assert suggestion.kind in ("keyword", "column", "function", "operator")

    @given(st.text(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_never_crashes_on_arbitrary_text(self, text):
        suggestions = complete(text, schema=SCHEMA)
        assert isinstance(suggestions, list)

    @given(st.sampled_from(SCENARIO_TEXTS), st.integers(0, 300))
    @settings(max_examples=150, deadline=None)
    def test_suggestions_deduplicated(self, text, cut):
        prefix = text[: min(cut, len(text))]
        suggestions = complete(prefix, schema=SCHEMA)
        lowered = [s.text.lower() for s in suggestions]
        assert len(lowered) == len(set(lowered))


RECIPES = generate_recipes(30, seed=19)
RANGES = {"calories": (120.0, 1600.0), "protein": (2.0, 120.0)}

#: Both sides of the advisory check solve under the same small node
#: cap: branch and bound is deterministic, so a capped search returns
#: the same incumbent twice, and a draw that would need an 18k-node
#: search stays as cheap as any other.
ADVISORY_OPTIONS = EngineOptions(strategy="ilp", node_limit=200)


class TestLintFuzz:
    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_lint_never_crashes_on_workload(self, seed):
        query = random_query("Recipes", RANGES, seed=seed)
        evaluator = PackageQueryEvaluator(RECIPES)
        analyzed = evaluator.prepare(query)
        warnings = lint(analyzed, RECIPES)
        for warning in warnings:
            assert warning.code
            assert warning.message

    @given(st.integers(0, 10**5))
    @settings(max_examples=25, deadline=None)
    def test_lint_is_purely_advisory(self, seed):
        """Linting a query must not affect its evaluation outcome."""
        query = random_query("Recipes", RANGES, seed=seed)
        evaluator = PackageQueryEvaluator(RECIPES)
        analyzed = evaluator.prepare(query)
        before = evaluator.evaluate(query, ADVISORY_OPTIONS)
        lint(analyzed, RECIPES)
        after = evaluator.evaluate(query, ADVISORY_OPTIONS)
        assert before.found == after.found
        if before.found:
            assert before.objective == pytest.approx(after.objective)
