"""Tests for MILP presolve (bound tightening, fixed-variable
elimination) and B&B ablations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver import (
    BranchAndBoundOptions,
    ConstraintSense,
    Model,
    ObjectiveSense,
    Status,
    solve_milp,
)
from repro.solver.presolve import PresolveResult, eliminate_fixed, tighten_bounds


class TestTightening:
    def test_le_row_tightens_upper_bounds(self):
        model = Model()
        x = model.add_variable(upper=10)
        y = model.add_variable(upper=10)
        model.add_constraint({x: 1, y: 1}, "<=", 4)
        result = tighten_bounds(model)
        assert not result.infeasible
        assert result.upper[x.index] == pytest.approx(4)
        assert result.upper[y.index] == pytest.approx(4)

    def test_ge_row_tightens_lower_bounds(self):
        model = Model()
        x = model.add_variable(upper=10)
        y = model.add_variable(upper=3)
        model.add_constraint({x: 1, y: 1}, ">=", 8)
        result = tighten_bounds(model)
        # y <= 3 forces x >= 5.
        assert result.lower[x.index] == pytest.approx(5)

    def test_zero_sum_row_fixes_variables(self):
        # The MIN/MAX set-encoding shape: sum of binaries <= 0.
        model = Model()
        a = model.add_binary()
        b = model.add_binary()
        c = model.add_binary()
        model.add_constraint({a: 1, b: 1}, "<=", 0)
        result = tighten_bounds(model)
        assert result.upper[a.index] == 0
        assert result.upper[b.index] == 0
        assert result.upper[c.index] == 1  # untouched
        assert result.fixed == 2

    def test_integer_bounds_round_inward(self):
        model = Model()
        x = model.add_variable(upper=10, integer=True)
        model.add_constraint({x: 2}, "<=", 7)
        result = tighten_bounds(model)
        assert result.upper[x.index] == 3  # floor(3.5)

    def test_continuous_bounds_not_rounded(self):
        model = Model()
        x = model.add_variable(upper=10)
        model.add_constraint({x: 2}, "<=", 7)
        result = tighten_bounds(model)
        assert result.upper[x.index] == pytest.approx(3.5)

    def test_infeasibility_detected(self):
        model = Model()
        x = model.add_binary()
        model.add_constraint({x: 1}, ">=", 2)
        assert tighten_bounds(model).infeasible

    def test_equality_tightens_both_sides(self):
        model = Model()
        x = model.add_variable(upper=10)
        y = model.add_variable(upper=2)
        model.add_constraint({x: 1, y: 1}, "=", 8)
        result = tighten_bounds(model)
        assert result.lower[x.index] == pytest.approx(6)
        assert result.upper[x.index] == pytest.approx(8)

    def test_propagation_across_rounds(self):
        # First row caps x, second then caps y through x's new bound.
        model = Model()
        x = model.add_variable(upper=100)
        y = model.add_variable(upper=100)
        model.add_constraint({x: 1}, "<=", 5)
        model.add_constraint({y: 1, x: -1}, "<=", 0)  # y <= x
        result = tighten_bounds(model)
        assert result.upper[y.index] == pytest.approx(5)
        assert result.rounds >= 2

    def test_model_not_mutated(self):
        model = Model()
        x = model.add_variable(upper=10)
        model.add_constraint({x: 1}, "<=", 4)
        tighten_bounds(model)
        assert model.variables[x.index].upper == 10

    def test_infinite_bounds_block_tightening_of_others(self):
        model = Model()
        x = model.add_variable()  # unbounded above
        y = model.add_variable(upper=10)
        model.add_constraint({x: -1, y: 1}, "<=", 0)  # y <= x: no info on y
        result = tighten_bounds(model)
        assert result.upper[y.index] == pytest.approx(10)


def scalar_tighten_bounds(model, max_rounds=10, tol=1e-9):
    """The scalar activity-based tightening ``tighten_bounds`` replaced,
    kept as its reference: one Python step per coefficient, bounds
    moving as the loop goes."""
    lower = np.array([v.lower for v in model.variables], dtype=np.float64)
    upper = np.array([v.upper for v in model.variables], dtype=np.float64)
    integer = [v.is_integer for v in model.variables]

    rows = []
    for constraint in model.constraints:
        if constraint.sense in (ConstraintSense.LE, ConstraintSense.EQ):
            rows.append((constraint.coeffs, constraint.rhs))
        if constraint.sense in (ConstraintSense.GE, ConstraintSense.EQ):
            negated = {j: -c for j, c in constraint.coeffs.items()}
            rows.append((negated, -constraint.rhs))

    rounds = 0
    changed = True
    while changed and rounds < max_rounds:
        changed = False
        rounds += 1
        for coeffs, rhs in rows:
            term_lows = {}
            infinite_terms = 0
            finite_sum = 0.0
            for index, coef in coeffs.items():
                term = coef * lower[index] if coef > 0 else coef * upper[index]
                term_lows[index] = term
                if math.isinf(term):
                    infinite_terms += 1
                else:
                    finite_sum += term
            if infinite_terms == 0 and finite_sum > rhs + 1e-7:
                return PresolveResult(lower, upper, True, 0, rounds)
            for index, coef in coeffs.items():
                term_low = term_lows[index]
                if math.isinf(term_low):
                    if infinite_terms > 1:
                        continue
                    residual = finite_sum
                elif infinite_terms > 0:
                    continue
                else:
                    residual = finite_sum - term_low
                bound = float(rhs - residual) / float(coef)
                if not math.isfinite(bound):
                    continue
                if coef > 0:
                    if integer[index]:
                        bound = math.floor(bound + tol)
                    if bound < upper[index] - tol:
                        upper[index] = bound
                        changed = True
                else:
                    if integer[index]:
                        bound = math.ceil(bound - tol)
                    if bound > lower[index] + tol:
                        lower[index] = bound
                        changed = True
        if np.any(lower > upper + 1e-7):
            return PresolveResult(lower, upper, True, 0, rounds)
    return PresolveResult(lower, upper, False, 0, rounds)


_coefficient = st.one_of(
    st.integers(-6, 6).map(float),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.sampled_from([5e-324, -5e-324]),  # subnormal: the quotient overflows
)


@st.composite
def small_models(draw):
    """Random small models: integer and continuous columns, infinite
    upper bounds, negative and subnormal coefficients, all senses."""
    model = Model()
    count = draw(st.integers(1, 12))
    for _ in range(count):
        lower = float(draw(st.integers(-3, 3)))
        upper = draw(
            st.one_of(st.just(math.inf), st.integers(0, 8).map(lambda w: lower + w))
        )
        model.add_variable(lower=lower, upper=upper, integer=draw(st.booleans()))
    for _ in range(draw(st.integers(1, 5))):
        columns = draw(
            st.lists(st.integers(0, count - 1), min_size=1, max_size=count, unique=True)
        )
        coeffs = {column: draw(_coefficient) for column in columns}
        rhs = draw(st.floats(min_value=-40, max_value=40, allow_nan=False))
        model.add_constraint(coeffs, draw(st.sampled_from(["<=", ">=", "="])), rhs)
    return model


class TestMatchesScalarReference:
    @given(small_models())
    @settings(max_examples=400, deadline=None)
    def test_same_bounds_verdict_and_rounds(self, model):
        # A tiny coefficient can push a continuous bound to ~1e300, and
        # the next row's activity past the float range: inf, quietly,
        # in tighten_bounds — the reference's numpy scalars would warn.
        with np.errstate(over="ignore", invalid="ignore"):
            expected = scalar_tighten_bounds(model)
        result = tighten_bounds(model)
        assert result.infeasible == expected.infeasible
        assert result.rounds == expected.rounds
        np.testing.assert_array_equal(result.lower, expected.lower)
        np.testing.assert_array_equal(result.upper, expected.upper)

    def test_wide_rows_add_left_to_right(self):
        # Pairwise (np.sum) and left-to-right accumulation part ways
        # in the last bits past eight terms; continuous bounds show it.
        rng = np.random.default_rng(3)
        model = Model()
        widths = rng.uniform(1.0, 9.0, size=40)
        for width in widths:
            model.add_variable(lower=0.1, upper=float(width))
        for slack in (2.0, 150.0):
            row = rng.uniform(-3.0, 3.0, size=40)
            # ``slack`` above the least activity: the first row is
            # tight enough that most of its columns get a new bound.
            least = float(np.where(row > 0, row * 0.1, row * widths).sum())
            model.add_constraint(dict(enumerate(row.tolist())), "<=", least + slack)
        expected = scalar_tighten_bounds(model)
        result = tighten_bounds(model)
        assert not expected.infeasible
        assert (expected.upper < model.upper).any()
        assert result.rounds == expected.rounds
        assert result.lower.tolist() == expected.lower.tolist()
        assert result.upper.tolist() == expected.upper.tolist()

    def test_a_row_sees_what_the_previous_row_tightened(self):
        # x <= 4 first, then y <= x: one round must already carry the
        # 4 into y's bound (rows are sequential, columns are not).
        model = Model()
        x = model.add_variable(upper=10)
        y = model.add_variable(upper=10)
        model.add_constraint({x: 1}, "<=", 4)
        model.add_constraint({y: 1, x: -1}, "<=", 0)
        result = tighten_bounds(model, max_rounds=1)
        assert result.upper.tolist() == [4.0, 4.0]
        assert result.upper.tolist() == scalar_tighten_bounds(model, 1).upper.tolist()


class TestFixedElimination:
    def _arrays(self, model):
        c, A, senses, b, lower, upper = model.lp_arrays()
        return c, A, senses, b, lower, upper, model.integer_indices()

    def test_nothing_fixed_returns_none(self):
        model = Model()
        model.add_binary()
        model.add_binary()
        assert eliminate_fixed(*self._arrays(model)) is None

    def test_substitutes_fixed_values_into_rows(self):
        model = Model()
        x = model.add_binary()
        y = model.add_variable(lower=2, upper=2, integer=True)
        z = model.add_binary()
        model.add_constraint({x: 1, y: 3, z: 2}, "<=", 9)
        elimination = eliminate_fixed(*self._arrays(model))
        assert elimination.eliminated == 1
        assert list(elimination.keep) == [x.index, z.index]
        # 9 - 3*2 = 3 remains for x + 2z.
        assert elimination.b[0] == pytest.approx(3.0)
        assert elimination.A.shape == (1, 2)
        assert elimination.integer_indices.tolist() == [0, 1]

    def test_restore_scatters_the_permutation_back(self):
        model = Model()
        model.add_binary()
        model.add_variable(lower=2, upper=2)
        model.add_binary()
        elimination = eliminate_fixed(*self._arrays(model))
        full = elimination.restore(np.array([1.0, 0.0]))
        assert list(full) == [1.0, 2.0, 0.0]
        # project() is the inverse on consistent points and rejects
        # vectors contradicting the fixings (stale warm starts).
        assert list(elimination.project(full)) == [1.0, 0.0]
        assert elimination.project(np.array([1.0, 7.0, 0.0])) is None

    def test_empty_rows_become_residual_tests(self):
        model = Model()
        x = model.add_variable(lower=3, upper=3)
        model.add_binary()
        model.add_constraint({x: 1}, "<=", 5)  # 3 <= 5: drop
        elimination = eliminate_fixed(*self._arrays(model))
        assert not elimination.infeasible
        assert elimination.A.shape[0] == 0

        model.add_constraint({x: 1}, ">=", 4)  # 3 >= 4: proof
        elimination = eliminate_fixed(*self._arrays(model))
        assert elimination.infeasible

    def test_solver_eliminates_minmax_bad_sets(self):
        # The package-ILP shape: a zero-sum row fixes its binaries, and
        # the solve must return them at zero with the optimum intact.
        model = Model()
        items = [model.add_binary(f"i{j}") for j in range(6)]
        model.add_constraint({items[0]: 1, items[1]: 1}, "<=", 0)
        model.add_constraint({item: 1 for item in items}, "<=", 2)
        model.set_objective(
            {item: float(j + 1) for j, item in enumerate(items)},
            ObjectiveSense.MAXIMIZE,
        )
        solution = solve_milp(model, BranchAndBoundOptions(presolve=True))
        assert solution.status is Status.OPTIMAL
        assert solution.objective == pytest.approx(5 + 6)
        assert solution.value_of(items[0]) == 0.0
        assert solution.value_of(items[1]) == 0.0
        assert len(solution.x) == 6

    def test_forced_lower_bounds_eliminate_under_repeat_one(self):
        model = Model()
        forced = model.add_variable(lower=1, upper=1, integer=True)
        free = model.add_binary()
        model.add_constraint({forced: 2, free: 3}, "<=", 5)
        model.set_objective(
            {forced: 1.0, free: 1.0}, ObjectiveSense.MAXIMIZE
        )
        solution = solve_milp(model)
        assert solution.status is Status.OPTIMAL
        assert solution.value_of(forced) == 1.0
        assert solution.value_of(free) == 1.0


class TestWarmStart:
    def _knapsackish(self, values=None):
        # Two constraints so the 0/1-knapsack fast path stays out of
        # the way and the generic search runs.
        model = Model()
        items = [model.add_binary(f"i{j}") for j in range(8)]
        weights = [4, 7, 5, 9, 3, 8, 6, 2]
        values = values or [w + 1 for w in weights]
        model.add_constraint(
            {item: w for item, w in zip(items, weights)}, "<=", 15
        )
        model.add_constraint({item: 1 for item in items}, "<=", 3)
        model.set_objective(
            {item: float(v) for item, v in zip(items, values)},
            ObjectiveSense.MAXIMIZE,
        )
        return model, items

    def test_feasible_warm_start_preserves_the_optimum(self):
        model, items = self._knapsackish()
        baseline = solve_milp(model)
        warm = np.zeros(len(items))
        warm[0] = warm[4] = 1.0  # weight 7, value 13: feasible
        warmed = solve_milp(
            model, BranchAndBoundOptions(initial_solution=warm)
        )
        assert warmed.status is Status.OPTIMAL
        assert warmed.objective == pytest.approx(baseline.objective)

    def test_infeasible_warm_start_is_dropped(self):
        model, items = self._knapsackish()
        warm = np.ones(len(items))  # violates both rows
        warmed = solve_milp(
            model, BranchAndBoundOptions(initial_solution=warm)
        )
        baseline = solve_milp(model)
        assert warmed.status is Status.OPTIMAL
        assert warmed.objective == pytest.approx(baseline.objective)

    def test_warm_start_survives_under_tiny_node_limits(self):
        # These values give a unique, fractional root LP optimum,
        # (1, .75, 1, 0, .25, 0, 0, 0), so one node cannot finish the
        # search.
        model, items = self._knapsackish(values=[17, 13, 11, 6, 7, 2, 3, 2])
        warm = np.zeros(len(items))
        warm[7] = 1.0
        starved = solve_milp(
            model,
            BranchAndBoundOptions(
                node_limit=1,
                rounding=False,
                presolve=False,
                initial_solution=warm,
            ),
        )
        # The warm incumbent is the floor: never LIMIT-with-nothing —
        # and a truncated search must never claim optimality, even
        # when the node-limit break happened to empty the heap.
        assert starved.status is Status.FEASIBLE
        assert model.is_feasible(starved.x)


class TestAblations:
    def _model(self, seed=5, n=16):
        rng = np.random.default_rng(seed)
        model = Model("abl")
        items = [model.add_binary(f"i{j}") for j in range(n)]
        weights = rng.integers(4, 30, size=n)
        values = rng.integers(5, 50, size=n)
        model.add_constraint(
            {i: int(w) for i, w in zip(items, weights)},
            "<=",
            int(weights.sum() // 2),
        )
        # A couple of zero-sum rows presolve can exploit.
        model.add_constraint({items[0]: 1, items[1]: 1}, "<=", 0)
        model.set_objective(
            {i: int(v) for i, v in zip(items, values)},
            ObjectiveSense.MAXIMIZE,
        )
        return model

    @pytest.mark.parametrize("presolve", [True, False])
    @pytest.mark.parametrize("rounding", [True, False])
    def test_options_do_not_change_the_optimum(self, presolve, rounding):
        model = self._model()
        baseline = solve_milp(
            model, BranchAndBoundOptions(presolve=False, rounding=False)
        )
        variant = solve_milp(
            model,
            BranchAndBoundOptions(presolve=presolve, rounding=rounding),
        )
        assert variant.status is Status.OPTIMAL
        assert variant.objective == pytest.approx(baseline.objective)

    def test_presolve_detects_infeasibility_without_lp(self):
        model = Model()
        x = model.add_binary()
        model.add_constraint({x: 1}, ">=", 3)
        solution = solve_milp(model, BranchAndBoundOptions(presolve=True))
        assert solution.status is Status.INFEASIBLE
        assert solution.nodes == 0

    def test_rounding_provides_early_incumbent_under_node_limit(self):
        model = self._model(seed=9, n=20)
        starved = solve_milp(
            model,
            BranchAndBoundOptions(node_limit=1, rounding=True, presolve=False),
        )
        # With one node and rounding, we should still have *a* solution.
        assert starved.status in (Status.FEASIBLE, Status.OPTIMAL)
        assert model.is_feasible(starved.x)
