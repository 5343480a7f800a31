"""Tests for the branch-and-bound MILP solver."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver import (
    BranchAndBoundOptions,
    LPResult,
    Model,
    ObjectiveSense,
    Status,
    scipy_available,
    solve_milp,
    solve_milp_scipy,
)
from repro.solver.branch_and_bound import _fix_by_reduced_costs


def knapsack(values, weights, capacity):
    model = Model("knapsack")
    items = [model.add_binary(f"item{i}") for i in range(len(values))]
    model.add_constraint(
        {item: weight for item, weight in zip(items, weights)}, "<=", capacity
    )
    model.set_objective(
        {item: value for item, value in zip(items, values)},
        ObjectiveSense.MAXIMIZE,
    )
    return model


class TestKnownInstances:
    def test_small_knapsack(self):
        solution = solve_milp(knapsack([10, 13, 7], [3, 4, 2], 5))
        assert solution.status is Status.OPTIMAL
        assert solution.objective == pytest.approx(17)

    def test_knapsack_where_lp_rounding_fails(self):
        # LP relaxation picks a fraction of the heavy item; the integer
        # optimum uses the two light ones.
        solution = solve_milp(knapsack([60, 59, 59], [10, 6, 6], 12))
        assert solution.objective == pytest.approx(118)

    def test_integer_equality(self):
        # x + y = 5 with x, y integer in [0, 3]: min 2x + y -> x=2, y=3.
        model = Model()
        x = model.add_variable(upper=3, integer=True)
        y = model.add_variable(upper=3, integer=True)
        model.add_constraint({x: 1, y: 1}, "=", 5)
        model.set_objective({x: 2, y: 1})
        solution = solve_milp(model)
        assert solution.status is Status.OPTIMAL
        assert solution.objective == pytest.approx(7)
        assert solution.x.tolist() == [2.0, 3.0]

    def test_general_integers_beyond_binary(self):
        # max 7x + 2y st 3x + y <= 10, integer -> x=3, y=1: 23.
        model = Model()
        x = model.add_variable(upper=10, integer=True)
        y = model.add_variable(upper=10, integer=True)
        model.add_constraint({x: 3, y: 1}, "<=", 10)
        model.set_objective({x: 7, y: 2}, ObjectiveSense.MAXIMIZE)
        solution = solve_milp(model)
        assert solution.objective == pytest.approx(23)

    def test_mixed_integer_continuous(self):
        # y continuous rides on integer x: max 2x + y st x + y <= 2.5,
        # x integer <= 2 -> x=2, y=0.5, the unique optimum.
        model = Model()
        x = model.add_variable(upper=2, integer=True)
        y = model.add_variable()
        model.add_constraint({x: 1, y: 1}, "<=", 2.5)
        model.set_objective({x: 2, y: 1}, ObjectiveSense.MAXIMIZE)
        solution = solve_milp(model)
        assert solution.objective == pytest.approx(4.5)
        assert solution.x[0] == pytest.approx(2.0)
        assert solution.x[1] == pytest.approx(0.5)

    def test_infeasible_integrality_gap(self):
        # 2x = 3 has an LP solution but no integer one.
        model = Model()
        x = model.add_variable(upper=5, integer=True)
        model.add_constraint({x: 2}, "=", 3)
        solution = solve_milp(model)
        assert solution.status is Status.INFEASIBLE

    def test_infeasible_lp(self):
        model = Model()
        x = model.add_variable(upper=1, integer=True)
        model.add_constraint({x: 1}, ">=", 2)
        assert solve_milp(model).status is Status.INFEASIBLE

    def test_pure_lp_short_circuits(self):
        model = Model()
        x = model.add_variable(upper=4)
        model.set_objective({x: -1})
        solution = solve_milp(model)
        assert solution.status is Status.OPTIMAL
        assert solution.nodes == 1

    def test_unbounded(self):
        model = Model()
        x = model.add_variable(integer=True)
        model.set_objective({x: 1}, ObjectiveSense.MAXIMIZE)
        assert solve_milp(model).status is Status.UNBOUNDED

    def test_solution_value_of(self):
        model = Model()
        x = model.add_variable(upper=3, integer=True)
        model.add_constraint({x: 1}, ">=", 2)
        model.set_objective({x: 1})
        solution = solve_milp(model)
        assert solution.value_of(x) == pytest.approx(2.0)
        assert solution.value_of(x.index) == pytest.approx(2.0)


class TestLimitsAndGaps:
    def _hard_model(self, n=14, seed=3):
        rng = np.random.default_rng(seed)
        values = rng.integers(10, 60, size=n)
        weights = rng.integers(5, 30, size=n)
        return knapsack(values.tolist(), weights.tolist(), int(weights.sum() // 2))

    def test_node_limit_reports_feasible_or_limit(self):
        solution = solve_milp(
            self._hard_model(), BranchAndBoundOptions(node_limit=3)
        )
        assert solution.status in (Status.FEASIBLE, Status.LIMIT)

    def test_node_limit_below_the_optimum_reports_feasible(self):
        # Two rows keep the knapsack fast path out of the way.  Three
        # nodes find 414 of the 444 the exhaustive search proves, and
        # the truncated search must say FEASIBLE, not OPTIMAL.
        rng = np.random.default_rng(0)
        w = rng.integers(4, 30, 30)
        w2 = rng.integers(4, 30, 30)
        v = rng.integers(5, 50, 30)
        model = Model("two-row")
        items = [model.add_binary(f"x{i}") for i in range(30)]
        model.add_constraint(dict(zip(items, w.tolist())), "<=", int(w.sum() // 3))
        model.add_constraint(dict(zip(items, w2.tolist())), "<=", int(w2.sum() // 3))
        model.set_objective(dict(zip(items, v.tolist())), ObjectiveSense.MAXIMIZE)
        exact = solve_milp(model)
        assert exact.status is Status.OPTIMAL
        assert exact.objective == pytest.approx(444)
        limited = solve_milp(model, BranchAndBoundOptions(node_limit=3))
        assert limited.status is Status.FEASIBLE
        assert limited.objective < exact.objective
        assert model.is_feasible(limited.x)

    def test_one_lp_algorithm_and_no_gap_knob(self):
        # The search proves optimality or says it did not: no relative
        # gap, and no iteration cap beside the simplex's stall budget.
        # The dual simplex is the one LP algorithm.
        import pathlib

        import repro.solver

        solver_dir = pathlib.Path(repro.solver.__file__).parent
        for needle in (
            "_BoundedSimplex",
            "iteration_limit",
            "_gap_slack",
            "objective_offset",
        ):
            assert not [
                path.name
                for path in solver_dir.glob("*.py")
                if needle in path.read_text(encoding="utf-8")
            ], needle
        with pytest.raises(TypeError):
            BranchAndBoundOptions(gap=0.001)
        with pytest.raises(TypeError):
            BranchAndBoundOptions(iteration_limit=100)

    def test_solution_is_always_feasible(self):
        model = self._hard_model(seed=11)
        solution = solve_milp(model)
        assert model.is_feasible(solution.x)


class TestReducedCostFixing:
    def test_bounds_tighten_to_the_steps_the_gap_allows(self):
        # Columns: x0..x3 structural, then one slack.  x0 rests at its
        # lower bound (d = 2), x1 at its upper bound (d = -3), x2 is
        # basic, x3 is continuous; the gap to the incumbent is 5.
        lp = LPResult(
            Status.OPTIMAL,
            basis=np.array([2]),
            at_upper=np.array([False, True, False, False, False]),
            reduced_costs=np.array([2.0, -3.0, 0.0, 4.0]),
        )
        lower, upper = np.zeros(4), np.full(4, 10.0)
        new_lower, new_upper = _fix_by_reduced_costs(lp, lower, upper, [0, 1, 2], 5.0)
        assert new_upper.tolist() == [2.0, 10.0, 10.0, 10.0]
        assert new_lower.tolist() == [0.0, 9.0, 0.0, 0.0]
        assert lower.tolist() == [0.0] * 4 and upper.tolist() == [10.0] * 4

    def test_a_wide_gap_fixes_nothing(self):
        lp = LPResult(
            Status.OPTIMAL,
            basis=np.array([1]),
            at_upper=np.array([False, False, False]),
            reduced_costs=np.array([1.0, 0.0]),
        )
        lower, upper = np.zeros(2), np.ones(2)
        assert _fix_by_reduced_costs(lp, lower, upper, [0, 1], 1.5) == (lower, upper)


class TestAgainstEnumeration:
    """Scipy-free parity: small pure-integer models against every point.

    The walks here branch, warm-start children from their parents'
    bases and fix variables by reduced cost, so this holds the whole
    search to the exhaustive answer.
    """

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_random_integer_models_match_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        uppers = rng.integers(1, 4, size=n)
        model = Model(f"enum{seed}")
        variables = [model.add_variable(upper=float(u), integer=True) for u in uppers]
        for _ in range(int(rng.integers(1, 4))):
            model.add_constraint(
                {v: float(rng.integers(-4, 5)) for v in variables},
                ["<=", ">=", "="][int(rng.integers(0, 3))],
                float(rng.integers(-5, 12)),
            )
        maximize = bool(rng.integers(0, 2))
        model.set_objective(
            {v: float(rng.integers(-5, 6)) for v in variables},
            ObjectiveSense.MAXIMIZE if maximize else ObjectiveSense.MINIMIZE,
        )

        values = [
            model.objective_value(point)
            for point in itertools.product(*(range(int(u) + 1) for u in uppers))
            if model.is_feasible(np.array(point, dtype=float))
        ]
        solution = solve_milp(
            model, BranchAndBoundOptions(presolve=bool(rng.integers(0, 2)))
        )
        if not values:
            assert solution.status is Status.INFEASIBLE
            return
        assert solution.status is Status.OPTIMAL
        assert solution.objective == pytest.approx(
            max(values) if maximize else min(values), abs=1e-9
        )
        assert model.is_feasible(solution.x)


@pytest.mark.skipif(not scipy_available(), reason="scipy unavailable")
class TestAgainstHighs:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_random_milps_match_highs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 5))
        model = Model(f"rand{seed}")
        variables = [
            model.add_variable(
                upper=float(rng.integers(1, 6)),
                integer=bool(rng.integers(0, 2)),
            )
            for _ in range(n)
        ]
        for _ in range(m):
            coeffs = {
                v: float(rng.integers(-4, 5)) for v in variables
            }
            sense = ["<=", ">=", "="][int(rng.integers(0, 3))]
            model.add_constraint(coeffs, sense, float(rng.integers(-10, 20)))
        model.set_objective(
            {v: float(rng.integers(-5, 6)) for v in variables},
            ObjectiveSense.MAXIMIZE if rng.integers(0, 2) else ObjectiveSense.MINIMIZE,
        )

        ours = solve_milp(model)
        theirs = solve_milp_scipy(model)
        if ours.status != theirs.status:
            # Adjudicate disagreements with the model's own oracle.
            # HiGHS (scipy 1.17 milp) occasionally reports "infeasible"
            # for instances with a verifiable feasible point (observed
            # on equality-constrained mixed instances; it accepts the
            # same point when bounds are pinned to it).  Our claim of
            # feasibility must come with a point that checks out; our
            # claim of infeasibility against their solution would be a
            # real bug.
            if ours.status.has_solution and theirs.status is Status.INFEASIBLE:
                assert model.is_feasible(ours.x), (
                    "we claimed feasible with an infeasible point"
                )
            elif theirs.status is Status.LIMIT:
                # HiGHS gave up without a certificate either way
                # (observed on tiny mixed instances, e.g. the seed-1338
                # model where it returns LIMIT/nan while the true
                # optimum is -7): it carries no information, so only
                # our own claim gets oracle-checked.
                if ours.status.has_solution:
                    assert model.is_feasible(ours.x), (
                        "we claimed feasible with an infeasible point"
                    )
            elif theirs.status.has_solution:
                pytest.fail(
                    f"HiGHS found a solution but we reported {ours.status}"
                )
            else:
                pytest.fail(f"status mismatch: {ours.status} vs {theirs.status}")
        elif ours.status is Status.OPTIMAL:
            assert ours.objective == pytest.approx(
                theirs.objective, abs=1e-5, rel=1e-6
            )
            assert model.is_feasible(ours.x)


class TestKnapsackFastPath:
    """The dedicated 0/1-knapsack solver inside ``solve_milp``."""

    def test_detects_knapsack_shape(self):
        from repro.solver.branch_and_bound import _solve_knapsack

        model = knapsack([5.0, 4.0, 3.0], [4.0, 3.0, 2.0], 6.0)
        args = model.lp_arrays()
        solution = _solve_knapsack(model, *args, BranchAndBoundOptions())
        assert solution is not None
        assert solution.status is Status.OPTIMAL
        assert solution.objective == pytest.approx(8.0)

    def test_declines_non_knapsack_shapes(self):
        from repro.solver.branch_and_bound import _solve_knapsack

        options = BranchAndBoundOptions()
        # Equality constraint (a COUNT(*) = k query) is not a knapsack.
        model = Model()
        items = [model.add_binary(f"x{i}") for i in range(3)]
        model.add_constraint({item: 1.0 for item in items}, "=", 2.0)
        model.set_objective(
            {item: 1.0 for item in items}, ObjectiveSense.MAXIMIZE
        )
        assert _solve_knapsack(model, *model.lp_arrays(), options) is None
        # Minimize orientation (gains flip sign) is declined too.
        model = knapsack([5.0, 4.0], [4.0, 3.0], 6.0)
        model.set_objective(
            {model.variables[0]: 1.0}, ObjectiveSense.MINIMIZE
        )
        assert _solve_knapsack(model, *model.lp_arrays(), options) is None
        # REPEAT > 1 multiplicities fall back to the generic search.
        model = Model()
        wide = model.add_variable("x", upper=3.0, integer=True)
        model.add_constraint({wide: 1.0}, "<=", 2.0)
        model.set_objective({wide: 1.0}, ObjectiveSense.MAXIMIZE)
        assert _solve_knapsack(model, *model.lp_arrays(), options) is None
        solution = solve_milp(model)
        assert solution.status is Status.OPTIMAL
        assert solution.objective == pytest.approx(2.0)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_exhaustive_enumeration(self, data):
        import itertools

        # Dyadic values keep every float sum exact, so the exhaustive
        # oracle and the solver see the identical feasible set.
        dyadic = st.integers(min_value=0, max_value=36).map(lambda v: v / 4)
        n = data.draw(st.integers(min_value=1, max_value=9))
        weights = data.draw(st.lists(dyadic, min_size=n, max_size=n))
        gains = data.draw(st.lists(dyadic, min_size=n, max_size=n))
        capacity = data.draw(st.integers(min_value=0, max_value=80).map(lambda v: v / 4))
        model = knapsack(gains, weights, capacity)
        solution = solve_milp(model)
        assert solution.status is Status.OPTIMAL
        assert model.is_feasible(solution.x)
        best = 0.0
        for bits in itertools.product((0, 1), repeat=n):
            if sum(b * w for b, w in zip(bits, weights)) <= capacity:
                best = max(best, sum(b * g for b, g in zip(bits, gains)))
        assert solution.objective == pytest.approx(best, abs=1e-8)

    def test_zero_cost_gains_are_taken_and_zero_gains_left(self):
        model = knapsack([7.0, 0.0, 3.0], [0.0, 1.0, 2.0], 0.0)
        solution = solve_milp(model)
        assert solution.status is Status.OPTIMAL
        assert solution.objective == pytest.approx(7.0)
        assert solution.x[0] == pytest.approx(1.0)
        assert solution.x[1] == pytest.approx(0.0)

    def test_node_limit_returns_feasible_incumbent(self):
        model = knapsack(
            [5.0, 4.0, 3.0, 2.0], [4.0, 3.0, 2.0, 1.0], 6.0
        )
        # node_limit meters branch points (backtrack flips), so a zero
        # budget stops before any branching and downgrades to FEASIBLE.
        solution = solve_milp(model, BranchAndBoundOptions(node_limit=0))
        assert solution.status is Status.FEASIBLE
        assert model.is_feasible(solution.x)
        # A small flip budget still returns a feasible incumbent.
        limited = solve_milp(model, BranchAndBoundOptions(node_limit=1))
        assert limited.status in (Status.FEASIBLE, Status.OPTIMAL)
        assert model.is_feasible(limited.x)

    def test_large_unbounded_cardinality_query_is_fast(self):
        """The ROADMAP thrashing workload: exact at 20k candidates."""
        import time

        from repro.core.engine import EngineOptions, PackageQueryEvaluator
        from repro.core.result import ResultStatus
        from repro.datasets import uniform_relation

        relation = uniform_relation(20000, columns=("cost", "gain"), seed=3)
        text = (
            "SELECT PACKAGE(U) FROM Uniform U "
            "SUCH THAT SUM(U.cost) <= 3.0 MAXIMIZE SUM(U.gain)"
        )
        started = time.perf_counter()
        result = PackageQueryEvaluator(relation).evaluate(
            text, EngineOptions(strategy="ilp")
        )
        elapsed = time.perf_counter() - started
        assert result.status is ResultStatus.OPTIMAL
        assert elapsed < 10.0  # was 50s+ through the generic search
