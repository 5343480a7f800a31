"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.core import PackageQueryEvaluator, ResultStatus
from repro.core.engine import evaluate
from repro.datasets import (
    MEAL_PLANNER_QUERY,
    PORTFOLIO_QUERY,
    VACATION_QUERY,
    generate_recipes,
    generate_stocks,
    generate_travel_products,
    clustered_relation,
    integer_relation,
    uniform_relation,
)
from repro.datasets.synthetic import _round, clustered_row_batches, uniform_row_batches
from repro.relational import relation_fingerprint


class TestRecipes:
    def test_deterministic_given_seed(self):
        first = generate_recipes(50, seed=3)
        second = generate_recipes(50, seed=3)
        assert first.rows() == second.rows()

    def test_different_seeds_differ(self):
        assert generate_recipes(50, seed=1).rows() != generate_recipes(
            50, seed=2
        ).rows()

    def test_schema_and_ranges(self):
        recipes = generate_recipes(200)
        for row in recipes:
            assert row["gluten"] in ("free", "full")
            assert 120 <= row["calories"] <= 1600
            assert row["protein"] > 0
            assert 1.0 <= row["rating"] <= 5.0
            assert 5 <= row["cook_minutes"] <= 120

    def test_gluten_fraction_respected(self):
        recipes = generate_recipes(800, gluten_free_fraction=0.9)
        free = sum(1 for row in recipes if row["gluten"] == "free")
        assert free / len(recipes) > 0.8

    def test_headline_query_feasible_at_scale(self):
        recipes = generate_recipes(150)
        result = evaluate(MEAL_PLANNER_QUERY, recipes)
        assert result.status is ResultStatus.OPTIMAL


class TestTravel:
    def test_kind_counts(self):
        travel = generate_travel_products(n_flights=10, n_hotels=8, n_cars=5)
        kinds = [row["kind"] for row in travel]
        assert kinds.count("flight") == 10
        assert kinds.count("hotel") == 8
        assert kinds.count("car") == 5

    def test_indicator_columns_consistent(self):
        travel = generate_travel_products()
        for row in travel:
            total = row["is_flight"] + row["is_hotel"] + row["is_car"]
            assert total == 1
            assert row[f"is_{row['kind']}"] == 1

    def test_beach_distance_only_for_hotels(self):
        travel = generate_travel_products()
        for row in travel:
            if row["kind"] == "hotel":
                assert row["beach_meters"] is not None
            else:
                assert row["beach_meters"] is None

    def test_vacation_query_feasible(self):
        travel = generate_travel_products()
        result = evaluate(VACATION_QUERY, travel)
        assert result.status is ResultStatus.OPTIMAL
        rows = result.package.rows()
        assert sum(row["is_flight"] for row in rows) == 2
        assert sum(row["is_hotel"] for row in rows) == 1
        assert sum(row["price"] for row in rows) <= 2000


class TestStocks:
    def test_tech_value_equals_price_for_tech(self):
        stocks = generate_stocks(100)
        for row in stocks:
            if row["sector"] == "tech":
                assert row["tech_value"] == row["price"]
            else:
                assert row["tech_value"] == 0.0

    def test_term_indicators(self):
        stocks = generate_stocks(100)
        for row in stocks:
            assert row["is_short"] + row["is_long"] == 1
            assert (row["term"] == "short") == (row["is_short"] == 1)

    def test_portfolio_query_feasible(self):
        stocks = generate_stocks(120)
        result = evaluate(PORTFOLIO_QUERY, stocks)
        assert result.status is ResultStatus.OPTIMAL
        rows = result.package.rows()
        total = sum(row["price"] for row in rows)
        tech = sum(row["tech_value"] for row in rows)
        assert total <= 50000
        assert tech >= 0.3 * total - 1e-6


class TestGeneric:
    def test_uniform_relation_shape(self):
        rel = uniform_relation(30, columns=("a", "b"), low=5, high=6, seed=1)
        assert len(rel) == 30
        for row in rel:
            assert 5 <= row["a"] <= 6
            assert 5 <= row["b"] <= 6

    def test_uniform_null_fraction(self):
        rel = uniform_relation(300, null_fraction=0.5, seed=2)
        nulls = sum(1 for row in rel if row["value"] is None)
        assert 90 <= nulls <= 210

    def test_integer_relation(self):
        rel = integer_relation(50, low=2, high=4, seed=3)
        for row in rel:
            assert 2 <= row["value"] <= 4
            assert isinstance(row["value"], int)


def _typed(rows):
    """Rows as comparable (type, value) tuples; floats by their bits."""
    return [
        tuple(
            (type(value), value.hex() if isinstance(value, float) else value)
            for value in row
        )
        for row in rows
    ]


class TestDrawOrder:
    """The column generators draw every cell in one block; these pin the
    values the per-cell loops produced."""

    @pytest.mark.parametrize(
        "n, seed, expected",
        [
            (1000, 0, "8b639ca3d91a482e1ce5bd6e4773103d"),
            (40000, 3, "e6187f60a51b006bb7bec3a196e8a8f2"),
        ],
    )
    def test_clustered_fingerprint_is_pinned(self, n, seed, expected):
        assert relation_fingerprint(clustered_relation(n, seed=seed)) == expected

    def test_uniform_fingerprint_is_pinned(self):
        relation = uniform_relation(1000, columns=("a", "b"), seed=0)
        assert relation_fingerprint(relation) == "5225be06bd83f16060a32c171d60d18b"

    def test_clustered_batches_equal_the_relation(self):
        n, batch_rows = 2500, 700
        batches = list(clustered_row_batches(n, seed=5, batch_rows=batch_rows))
        assert [len(batch) for batch in batches] == [700, 700, 700, 400]
        streamed = [row for batch in batches for row in batch]
        relation = clustered_relation(n, seed=5)
        assert _typed(streamed) == _typed(relation.row_tuples())
        assert all(type(row[1]) is float for row in streamed)

    def test_uniform_batches_equal_the_relation(self):
        kwargs = dict(columns=("a", "b"), low=-3, high=7.5, seed=8)
        streamed = [
            row
            for batch in uniform_row_batches(1001, batch_rows=250, **kwargs)
            for row in batch
        ]
        relation = uniform_relation(1001, **kwargs)
        assert _typed(streamed) == _typed(relation.row_tuples())

    def test_values_equal_python_round_of_each_draw(self):
        # The per-cell definition, replayed on the same stream.
        rng = np.random.default_rng(12)
        expected = []
        for i in range(300):
            row = [f"r{i}", round((i + float(rng.random())) * 100.0 / 300, 6)]
            row += [round(float(rng.uniform(-50.0, 50.0)), 3) for _ in range(2)]
            expected.append(tuple(row))
        relation = clustered_relation(
            300, columns=("x", "y"), low=-50.0, high=50.0, seed=12
        )
        assert _typed(relation.row_tuples()) == _typed(expected)

    def test_block_rounding_matches_round_near_halves(self):
        # rint(v * 10**d) / 10**d misses 12.3455, 99.9995 and -0.0005 at
        # d = 3 and 2.675 at d = 2: the scaled product rounds across a half.
        values = np.array([12.3455, 99.9995, -0.0005, 2.675, 0.285, 1e300, -0.0])
        for digits in (2, 3, 6):
            expected = [round(float(value), digits) for value in values]
            assert _typed([_round(values, digits).tolist()]) == _typed([expected])
