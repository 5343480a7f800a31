"""Tests for multi-package enumeration and diverse results."""

import pytest

from repro.core import (
    Package,
    PackageQueryEvaluator,
    diverse_subset,
    enumerate_diverse,
    enumerate_top,
    is_valid,
)
from repro.core.validator import objective_value
from repro.paql.semantics import parse_and_analyze
from repro.relational import ColumnType, Relation, Schema


def value_relation(values):
    schema = Schema.of(value=ColumnType.FLOAT)
    return Relation("T", schema, [{"value": float(v)} for v in values])


@pytest.fixture
def rel():
    return value_relation([10, 20, 30, 40, 50, 60])


def analyzed(text, relation):
    return parse_and_analyze(text, relation.schema)


class TestEnumerateTop:
    def test_returns_distinct_valid_packages(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2 "
            "MAXIMIZE SUM(T.value)",
            rel,
        )
        packages = enumerate_top(query, rel, range(len(rel)), 5)
        assert len(packages) == 5
        assert len(set(packages)) == 5
        assert all(is_valid(p, query) for p in packages)

    def test_objective_order_nonincreasing(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2 "
            "MAXIMIZE SUM(T.value)",
            rel,
        )
        packages = enumerate_top(query, rel, range(len(rel)), 6)
        values = [objective_value(p, query) for p in packages]
        assert values == sorted(values, reverse=True)
        assert values[0] == pytest.approx(110)  # 50 + 60

    def test_minimize_order_nondecreasing(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2 "
            "MINIMIZE SUM(T.value)",
            rel,
        )
        values = [
            objective_value(p, query)
            for p in enumerate_top(query, rel, range(len(rel)), 4)
        ]
        assert values == sorted(values)

    def test_exhausts_small_spaces(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 1 AND SUM(T.value) <= 20",
            rel,
        )
        packages = enumerate_top(query, rel, range(len(rel)), 10)
        assert len(packages) == 2  # only {10} and {20}

    def test_zero_limit(self, rel):
        query = analyzed("SELECT PACKAGE(T) FROM T", rel)
        assert enumerate_top(query, rel, range(len(rel)), 0) == []

    def test_untranslatable_falls_back_to_search(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2 "
            "MAXIMIZE MIN(T.value)",
            rel,
        )
        packages = enumerate_top(query, rel, range(len(rel)), 3)
        assert len(packages) == 3
        values = [objective_value(p, query) for p in packages]
        assert values == sorted(values, reverse=True)

    def test_scipy_backend_if_available(self, rel):
        from repro.solver import scipy_available

        if not scipy_available():
            pytest.skip("scipy unavailable")
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2 "
            "MAXIMIZE SUM(T.value)",
            rel,
        )
        builtin = enumerate_top(query, rel, range(len(rel)), 3)
        scipy_pkgs = enumerate_top(
            query, rel, range(len(rel)), 3, backend="scipy"
        )
        assert [objective_value(p, query) for p in builtin] == pytest.approx(
            [objective_value(p, query) for p in scipy_pkgs]
        )


class TestDiverseSubset:
    def test_picks_requested_count(self, rel):
        packages = [Package(rel, [i, j]) for i in range(4) for j in range(i + 1, 5)]
        chosen = diverse_subset(packages, 3)
        assert len(chosen) == 3
        assert len(set(chosen)) == 3

    def test_first_package_is_anchor(self, rel):
        packages = [Package(rel, [0, 1]), Package(rel, [2, 3]), Package(rel, [0, 2])]
        chosen = diverse_subset(packages, 2)
        assert chosen[0] == packages[0]

    def test_prefers_disjoint_over_overlapping(self, rel):
        anchor = Package(rel, [0, 1])
        overlapping = Package(rel, [0, 2])
        disjoint = Package(rel, [3, 4])
        chosen = diverse_subset([anchor, overlapping, disjoint], 2)
        assert disjoint in chosen
        assert overlapping not in chosen

    def test_dispersion_beats_plain_top_m(self):
        # Section 5: the diverse subset of a top-k pool is at least as
        # spread out (mean pairwise Jaccard distance) as its first m.
        import itertools

        from repro.datasets import generate_recipes

        def spread(packages):
            pairs = list(itertools.combinations(packages, 2))
            return sum(a.jaccard_distance(b) for a, b in pairs) / len(pairs)

        recipes = generate_recipes(100, seed=7)
        evaluator = PackageQueryEvaluator(recipes)
        query = evaluator.prepare(
            "SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.gluten = 'free' "
            "SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1800 AND 2500 "
            "MAXIMIZE SUM(P.protein)"
        )
        pool = enumerate_top(query, recipes, evaluator.candidates(query), 10)
        assert len(pool) == 10
        assert spread(diverse_subset(pool, 4)) >= spread(pool[:4]) - 1e-9

    def test_more_than_pool_returns_pool(self, rel):
        packages = [Package(rel, [0]), Package(rel, [1])]
        assert len(diverse_subset(packages, 10)) == 2

    def test_empty_pool(self, rel):
        assert diverse_subset([], 3) == []


class TestEnumerateDiverse:
    def test_end_to_end(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2 "
            "MAXIMIZE SUM(T.value)",
            rel,
        )
        chosen = enumerate_diverse(query, rel, range(len(rel)), 3)
        assert len(chosen) == 3
        assert all(is_valid(p, query) for p in chosen)
        # The anchor is the objective-best package.
        assert objective_value(chosen[0], query) == pytest.approx(110)
        # Diversity: later picks overlap the anchor less than the
        # objective-runner-up would.
        assert chosen[1].jaccard_distance(chosen[0]) > 0
