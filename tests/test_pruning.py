"""Tests for cardinality-based pruning (Section 4.1).

Includes the soundness property the paper relies on: pruning never
excludes a valid package — every package satisfying the global formula
has cardinality inside the derived bounds.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CardinalityBounds,
    Package,
    check_global,
    derive_bounds,
    search_space_size,
)
from repro.paql.semantics import parse_and_analyze
from repro.relational import ColumnType, Relation, Schema


def analyzed(text, relation):
    return parse_and_analyze(text, relation.schema)


def value_relation(values):
    schema = Schema.of(value=ColumnType.FLOAT)
    return Relation("T", schema, [{"value": float(v)} for v in values])


class TestBoundsAlgebra:
    def test_intersect(self):
        assert CardinalityBounds(1, 5).intersect(
            CardinalityBounds(3, 9)
        ) == CardinalityBounds(3, 5)

    def test_hull(self):
        assert CardinalityBounds(1, 2).hull(
            CardinalityBounds(5, 9)
        ) == CardinalityBounds(1, 9)

    def test_hull_ignores_empty(self):
        empty = CardinalityBounds(1, 0)
        assert empty.hull(CardinalityBounds(2, 3)) == CardinalityBounds(2, 3)

    def test_empty_detection(self):
        assert CardinalityBounds(3, 2).empty
        assert not CardinalityBounds(3, 3).empty

    def test_search_space_size(self):
        # n=4, k in [1, 2]: C(4,1) + C(4,2) = 10.
        assert search_space_size(4, CardinalityBounds(1, 2)) == 10
        assert search_space_size(4, CardinalityBounds(0, 4)) == 16
        assert search_space_size(4, CardinalityBounds(5, 9)) == 0
        assert search_space_size(4, CardinalityBounds(1, 0)) == 0


class TestPaperExamples:
    @pytest.mark.parametrize("n", [12, 16, 20])
    def test_meal_query_pruning_keeps_the_optimum(self, n):
        # Section 4.1: pruning shrinks 2^n to sum(C(n, k), k in [l, u])
        # and loses no valid solution.
        from repro.core import find_best
        from repro.core.engine import PackageQueryEvaluator
        from repro.core.validator import objective_value
        from repro.datasets import generate_recipes

        recipes = generate_recipes(n, seed=7)
        evaluator = PackageQueryEvaluator(recipes)
        query = evaluator.prepare(
            "SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.gluten = 'free' "
            "SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1500 AND 2500 "
            "MAXIMIZE SUM(P.protein)"
        )
        candidates = evaluator.candidates(query)
        bounds = derive_bounds(query, recipes, candidates)
        assert search_space_size(len(candidates), bounds) < 2 ** len(candidates)
        pruned = find_best(query, recipes, candidates, bounds=bounds)
        unpruned = find_best(
            query,
            recipes,
            candidates,
            bounds=CardinalityBounds(0, len(candidates)),
        )
        assert (pruned is None) == (unpruned is None)
        if pruned is not None:
            assert objective_value(pruned, query) == pytest.approx(
                objective_value(unpruned, query)
            )

    def test_count_bounds_direct(self):
        rel = value_relation([1] * 10)
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) BETWEEN 2 AND 5", rel
        )
        assert derive_bounds(query, rel, range(10)) == CardinalityBounds(2, 5)

    def test_count_equality(self):
        rel = value_relation([1] * 10)
        query = analyzed("SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 3", rel)
        assert derive_bounds(query, rel, range(10)) == CardinalityBounds(3, 3)

    def test_sum_window_paper_formula(self):
        # The paper's example: l = ceil(a / max), u = floor(b / min).
        values = [200, 300, 500, 800, 1000]
        rel = value_relation(values)
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "SUM(T.value) BETWEEN 2000 AND 2500",
            rel,
        )
        bounds = derive_bounds(query, rel, range(5))
        assert bounds.lower == math.ceil(2000 / 1000)
        # floor(2500 / 200) = 12, clipped to the 5 available candidates.
        assert bounds.upper == min(math.floor(2500 / 200), 5)

    def test_sum_window_upper_not_clipped(self):
        # Same window with enough candidates that floor(b / min) binds.
        values = [200, 300, 500, 800, 1000] + [250] * 10
        rel = value_relation(values)
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "SUM(T.value) BETWEEN 2000 AND 2500",
            rel,
        )
        bounds = derive_bounds(query, rel, range(len(values)))
        assert bounds.upper == math.floor(2500 / 200)

    def test_conjunction_intersects(self):
        rel = value_relation([100] * 20)
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) >= 3 AND SUM(T.value) <= 500",
            rel,
        )
        assert derive_bounds(query, rel, range(20)) == CardinalityBounds(3, 5)

    def test_disjunction_hulls(self):
        rel = value_relation([1] * 10)
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2 OR COUNT(*) = 7",
            rel,
        )
        assert derive_bounds(query, rel, range(10)) == CardinalityBounds(2, 7)

    def test_infeasible_window_detected(self):
        rel = value_relation([100, 200])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.value) >= 10000", rel
        )
        assert derive_bounds(query, rel, range(2)).empty

    def test_negative_sum_upper_bound_infeasible(self):
        # All positive values cannot sum to <= -5 (even empty: 0 > -5).
        rel = value_relation([10, 20])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.value) <= -5", rel
        )
        assert derive_bounds(query, rel, range(2)).empty

    def test_count_expr_lower_bound_carries(self):
        rel = value_relation([1] * 10)
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(T.value) >= 4", rel
        )
        bounds = derive_bounds(query, rel, range(10))
        assert bounds.lower == 4

    def test_no_such_that_is_unbounded(self):
        rel = value_relation([1] * 5)
        query = analyzed("SELECT PACKAGE(T) FROM T", rel)
        assert derive_bounds(query, rel, range(5)) == CardinalityBounds(0, 5)

    def test_repeat_scales_max_cardinality(self):
        rel = value_relation([1] * 5)
        query = analyzed("SELECT PACKAGE(T) FROM T REPEAT 3", rel)
        assert derive_bounds(query, rel, range(5)).upper == 15

    def test_negative_data_mirrored_bounds(self):
        # All-negative values, SUM <= -50: need at least ceil(50/20)=3
        # tuples of the least-negative value.
        rel = value_relation([-10, -15, -20])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.value) <= -50", rel
        )
        bounds = derive_bounds(query, rel, range(3))
        assert bounds.lower == 3

    def test_avg_contributes_no_bounds(self):
        rel = value_relation([10, 20])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT AVG(T.value) <= 15", rel
        )
        assert derive_bounds(query, rel, range(2)) == CardinalityBounds(0, 2)


@st.composite
def pruning_scenarios(draw):
    """A small relation plus a random global formula."""
    n = draw(st.integers(3, 8))
    values = draw(
        st.lists(
            st.integers(-50, 200).filter(lambda v: v != 0),
            min_size=n,
            max_size=n,
        )
    )
    conjuncts = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["count", "sum"]))
        op = draw(st.sampled_from(["<=", ">=", "=", "<", ">"]))
        if kind == "count":
            constant = draw(st.integers(0, n))
            conjuncts.append(f"COUNT(*) {op} {constant}")
        else:
            constant = draw(st.integers(-200, 600))
            conjuncts.append(f"SUM(T.value) {op} {constant}")
    connector = draw(st.sampled_from([" AND ", " OR "]))
    formula = connector.join(conjuncts)
    return values, formula


class TestSoundness:
    @given(pruning_scenarios())
    @settings(max_examples=120, deadline=None)
    def test_every_valid_package_is_inside_the_bounds(self, scenario):
        import itertools

        values, formula = scenario
        rel = value_relation(values)
        query = analyzed(
            f"SELECT PACKAGE(T) FROM T SUCH THAT {formula}", rel
        )
        bounds = derive_bounds(query, rel, range(len(values)))

        for k in range(len(values) + 1):
            for combo in itertools.combinations(range(len(values)), k):
                package = Package(rel, combo)
                if check_global(package, query):
                    assert bounds.contains(package.cardinality), (
                        f"valid package of size {package.cardinality} "
                        f"outside bounds [{bounds.lower}, {bounds.upper}] "
                        f"for {formula!r} over {values}"
                    )


    def test_nan_data_never_proves_infeasibility(self):
        # NaN poisons the SUM argument's extent (nan > 0, nan == 0,
        # nan < 0 are all false), which used to fall through the sign
        # analysis's negative-extreme branch and return unsatisfiable
        # bounds — wrongly declaring queries INFEASIBLE even though
        # packages avoiding the NaN row exist.
        rel = value_relation([math.nan, 25.0, 10.0, 5.0])
        query = analyzed(
            "SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.value) BETWEEN 40 AND 60",
            rel,
        )
        bounds = derive_bounds(query, rel, range(4))
        assert not bounds.empty
        # {25, 10, 5} sums to 40 — a valid package the bounds must admit.
        package = Package(rel, (1, 2, 3))
        assert check_global(package, query)
        assert bounds.contains(package.cardinality)


class TestSearchSpaceApproximation:
    """Exact-mode log-space approximation for huge balanced windows."""

    def test_small_inputs_stay_exact(self):
        import math

        for n, low, high in [(10, 2, 4), (200, 50, 150), (1000, 0, 1000)]:
            expected = sum(math.comb(n, k) for k in range(low, high + 1))
            got = search_space_size(n, CardinalityBounds(low, high))
            assert got == expected

    def test_narrow_windows_stay_exact_even_at_huge_n(self):
        import math

        n = 10**6
        assert search_space_size(n, CardinalityBounds(5, 5)) == math.comb(n, 5)
        # Narrow complement: exact via the 2^n complement trick.
        assert search_space_size(n, CardinalityBounds(0, n)) == 2**n

    def test_balanced_windows_approximate_closely(self):
        import math

        from repro.core.pruning import _APPROX_MIN_N

        n = _APPROX_MIN_N + 1000
        for low, high in [(n // 4, 3 * n // 4), (n // 3, n // 2), (400, 900)]:
            exact = sum(math.comb(n, k) for k in range(low, high + 1))
            got = search_space_size(n, CardinalityBounds(low, high))
            assert got != exact or low == high  # the approximate regime
            error = abs(got - exact) * 10**12 // exact
            assert error < 10**4, (
                f"relative error {error}e-12 too large on [{low}, {high}]"
            )

    def test_balanced_window_at_huge_n_is_fast(self):
        import time

        n = 10**6
        started = time.perf_counter()
        value = search_space_size(n, CardinalityBounds(n // 4, 3 * n // 4))
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        # Mass inside [n/4, 3n/4] is within a whisker of all of 2^n.
        assert 0.99 < value / 2**n <= 1.0 + 1e-9
