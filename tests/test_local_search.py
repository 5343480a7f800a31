"""Tests for the heuristic local search and the paper's swap SQL."""

import pytest

from repro.core import (
    LocalSearch,
    LocalSearchOptions,
    Package,
    SwapSQLUnsupported,
    build_swap_sql,
    find_best,
    greedy_seed,
    is_valid,
    local_search,
    random_seed,
    sql_k_swap,
    violation,
)
from repro.core.validator import objective_value
from repro.paql.semantics import parse_and_analyze
from repro.relational import ColumnType, Database, Relation, Schema


def value_relation(values):
    schema = Schema.of(value=ColumnType.FLOAT)
    return Relation("T", schema, [{"value": float(v)} for v in values])


def analyzed(text, relation):
    return parse_and_analyze(text, relation.schema)


QUERY_TEXT = (
    "SELECT PACKAGE(T) FROM T SUCH THAT "
    "COUNT(*) = 3 AND SUM(T.value) BETWEEN 90 AND 110 "
    "MAXIMIZE SUM(T.value)"
)


@pytest.fixture
def rel():
    return value_relation([10, 20, 25, 30, 35, 40, 45, 50, 55, 60])


class TestViolation:
    def test_zero_iff_satisfied(self, rel):
        query = analyzed(QUERY_TEXT, rel)
        good = Package(rel, [1, 4, 6])  # 20 + 35 + 45 = 100
        bad = Package(rel, [0, 1])      # wrong count and sum
        assert violation(good, query) == 0.0
        assert violation(bad, query) > 0.0

    def test_monotone_in_distance(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.value) <= 50", rel
        )
        nearly = Package(rel, [2, 3])   # 55: barely over
        far = Package(rel, [8, 9])      # 115: way over
        assert 0 < violation(nearly, query) < violation(far, query)

    def test_disjunction_takes_best_branch(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "SUM(T.value) <= 30 OR SUM(T.value) >= 1000",
            rel,
        )
        package = Package(rel, [0, 1])  # 30: first branch satisfied
        assert violation(package, query) == 0.0

    def test_null_aggregate_counts_as_unit(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT AVG(T.value) <= 100", rel
        )
        assert violation(Package(rel, []), query) == 1.0

    def test_no_such_that_is_zero(self, rel):
        query = analyzed("SELECT PACKAGE(T) FROM T", rel)
        assert violation(Package(rel, [0]), query) == 0.0


class TestSeeds:
    def test_random_seed_inside_bounds(self, rel):
        query = analyzed(QUERY_TEXT, rel)
        package = random_seed(query, rel, range(len(rel)))
        bounds = __import__(
            "repro.core.pruning", fromlist=["derive_bounds"]
        ).derive_bounds(query, rel, range(len(rel)))
        assert bounds.contains(package.cardinality)

    def test_greedy_seed_prefers_high_objective(self, rel):
        query = analyzed(QUERY_TEXT, rel)
        package = greedy_seed(query, rel, range(len(rel)))
        # Greedy picks the highest-value tuples for MAXIMIZE SUM(value).
        assert 9 in package  # rid 9 has value 60

    def test_seed_none_on_empty_bounds(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 99", rel
        )
        assert random_seed(query, rel, range(len(rel))) is None
        assert greedy_seed(query, rel, range(len(rel))) is None


class TestSearch:
    def test_finds_valid_package(self, rel):
        query = analyzed(QUERY_TEXT, rel)
        result = local_search(query, rel, range(len(rel)))
        assert result.valid
        assert is_valid(result.package, query)

    def test_random_seed_variant_also_converges(self, rel):
        query = analyzed(QUERY_TEXT, rel)
        result = local_search(
            query, rel, range(len(rel)),
            LocalSearchOptions(seed="random", rng_seed=5),
        )
        assert result.valid

    def test_improvement_phase_reaches_good_objective(self, rel):
        query = analyzed(QUERY_TEXT, rel)
        result = local_search(query, rel, range(len(rel)))
        exact = find_best(query, rel, range(len(rel)))
        # Local search is a heuristic, but on this instance hill
        # climbing from a greedy seed should land close to the optimum.
        assert objective_value(result.package, query) >= (
            objective_value(exact, query) - 15
        )

    def test_impossible_instance_fails_gracefully(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND SUM(T.value) >= 10000",
            rel,
        )
        result = local_search(
            query, rel, range(len(rel)), LocalSearchOptions(restarts=1)
        )
        assert not result.valid
        assert result.package is None

    def test_empty_bounds_fail_immediately(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 99", rel
        )
        result = local_search(query, rel, range(len(rel)))
        assert not result.valid
        assert result.rounds == 0

    def test_deterministic_given_seed(self, rel):
        query = analyzed(QUERY_TEXT, rel)
        first = local_search(
            query, rel, range(len(rel)), LocalSearchOptions(rng_seed=3)
        )
        second = local_search(
            query, rel, range(len(rel)), LocalSearchOptions(rng_seed=3)
        )
        assert first.package == second.package

    def test_two_swap_escape(self):
        # Single swaps cannot fix this instance from the greedy seed:
        # values are paired so only a coordinated 2-swap reaches the
        # window.  (Constructed so 1-swap moves all increase violation.)
        rel = value_relation([100, 100, 1, 1, 49, 51])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND SUM(T.value) BETWEEN 100 AND 100",
            rel,
        )
        result = local_search(
            query, rel, range(len(rel)),
            LocalSearchOptions(k_max=2, rng_seed=1),
        )
        assert result.valid


class TestSwapSQL:
    def test_single_swap_matches_in_memory(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 3 AND SUM(T.value) BETWEEN 90 AND 110",
            rel,
        )
        package = Package(rel, [0, 1, 2])  # 55: invalid (too small)
        db = Database()
        db.load_relation(rel)
        replacements = sql_k_swap(db, query, rel, package, 1)

        # In-memory reference: all single swaps that yield validity.
        expected = set()
        for out_rid in package.rids:
            for in_rid in range(len(rel)):
                if in_rid in package:
                    continue
                candidate = package.replace([out_rid], [in_rid])
                if is_valid(candidate, query):
                    expected.add(candidate)
        assert set(replacements) == expected
        assert all(is_valid(p, query) for p in replacements)

    def test_two_swap_returns_valid_packages(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 3 AND SUM(T.value) BETWEEN 90 AND 110",
            rel,
        )
        package = Package(rel, [0, 1, 2])
        db = Database()
        db.load_relation(rel)
        replacements = sql_k_swap(db, query, rel, package, 2)
        assert replacements
        assert all(is_valid(p, query) for p in replacements)
        assert all(p.overlap(package) == 1 for p in replacements)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_k_swap_repairs_are_valid_on_recipes(self, k):
        # Section 4.2's 2k-way replacement join, from an invalid
        # package: the 4 highest-calorie gluten-free meals.
        from repro.core.engine import PackageQueryEvaluator
        from repro.datasets import generate_recipes

        recipes = generate_recipes(40, seed=7)
        evaluator = PackageQueryEvaluator(recipes)
        query = evaluator.prepare(
            "SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.gluten = 'free' "
            "SUCH THAT COUNT(*) = 4 AND SUM(P.calories) BETWEEN 2400 AND 2600"
        )
        candidates = evaluator.candidates(query)
        worst = sorted(candidates, key=lambda rid: -recipes[rid]["calories"])
        package = Package(recipes, worst[:4])
        assert not is_valid(package, query)
        db = Database()
        db.load_relation(recipes)
        replacements = sql_k_swap(db, query, recipes, package, k)
        # One swap cannot shed the overshoot here; two and three can.
        assert bool(replacements) == (k > 1)
        assert all(is_valid(p, query) for p in replacements[:50])
        assert all(p.overlap(package) == 4 - k for p in replacements[:50])

    def test_base_constraint_applies_to_incoming(self):
        schema = Schema.of(value=ColumnType.FLOAT, tag=ColumnType.TEXT)
        rel = Relation(
            "T",
            schema,
            [
                {"value": 10.0, "tag": "ok"},
                {"value": 20.0, "tag": "ok"},
                {"value": 30.0, "tag": "bad"},
                {"value": 30.0, "tag": "ok"},
            ],
        )
        query = parse_and_analyze(
            "SELECT PACKAGE(T) FROM T WHERE T.tag = 'ok' "
            "SUCH THAT COUNT(*) = 2 AND SUM(T.value) >= 50",
            rel.schema,
        )
        package = Package(rel, [0, 1])
        db = Database()
        db.load_relation(rel)
        replacements = sql_k_swap(db, query, rel, package, 1)
        # rid 2 has the right value but the wrong tag.
        assert all(2 not in p for p in replacements)
        assert any(3 in p for p in replacements)

    def test_limit_caps_results(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 3 AND SUM(T.value) >= 60",
            rel,
        )
        package = Package(rel, [0, 1, 2])
        db = Database()
        db.load_relation(rel)
        assert len(sql_k_swap(db, query, rel, package, 1, limit=2)) <= 2

    def test_sql_text_shape(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.value) <= 100", rel
        )
        sql, params = build_swap_sql(query, rel, Package(rel, [0, 1]), 1)
        assert "FROM pkg P1, T OUT1, T IN1" in sql
        assert "NOT IN (SELECT rid FROM pkg)" in sql
        assert sql.count("?") == len(params)

    def test_minmax_unsupported(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT MIN(T.value) >= 5", rel
        )
        with pytest.raises(SwapSQLUnsupported):
            build_swap_sql(query, rel, Package(rel, [0]), 1)

    def test_disjunction_unsupported(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 1 OR COUNT(*) = 2",
            rel,
        )
        with pytest.raises(SwapSQLUnsupported):
            build_swap_sql(query, rel, Package(rel, [0]), 1)

    def test_repeat_unsupported(self, rel):
        query = analyzed(
            "SELECT PACKAGE(T) FROM T REPEAT 2 SUCH THAT COUNT(*) = 2", rel
        )
        with pytest.raises(SwapSQLUnsupported, match="set semantics"):
            build_swap_sql(query, rel, Package(rel, [0]), 1)
