"""Tests for the bounded dual simplex (from the slack basis, and warm).

Known LPs with hand-checked optima, pathological shapes (degenerate,
infeasible, unbounded, equality-heavy; the unbounded and infinite-upper
ones take the dual phase 1), warm re-solves held to the cold solve, and
a property test comparing against scipy's HiGHS ``linprog`` on random
LPs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver import (
    ConstraintSense,
    Model,
    ObjectiveSense,
    Status,
    solve_lp,
    solve_model_lp,
)
from repro.solver.simplex import LPWorkspace

try:
    from scipy.optimize import linprog

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    HAVE_SCIPY = False

LE, GE, EQ = ConstraintSense.LE, ConstraintSense.GE, ConstraintSense.EQ


def lp(c, A, senses, b, lower=None, upper=None):
    c = np.asarray(c, float)
    n = len(c)
    lower = np.zeros(n) if lower is None else np.asarray(lower, float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, float)
    return solve_lp(c, np.asarray(A, float), senses, np.asarray(b, float), lower, upper)


class TestKnownOptima:
    def test_textbook_max(self):
        # max 3x + 2y st x + y <= 4, x + 3y <= 6 -> (4, 0), 12.
        result = lp([-3, -2], [[1, 1], [1, 3]], [LE, LE], [4, 6])
        assert result.status is Status.OPTIMAL
        assert result.objective == pytest.approx(-12)
        assert result.x == pytest.approx([4, 0])

    def test_equality_constraint(self):
        # min x + 2y st x + y = 7, x <= 5 -> (5, 2), 9.
        result = lp(
            [1, 2], [[1, 1]], [EQ], [7], upper=[5, math.inf]
        )
        assert result.status is Status.OPTIMAL
        assert result.objective == pytest.approx(9)

    def test_ge_constraints(self):
        # min 2x + 3y st x + y >= 4, x >= 1 -> (4, 0), 8.
        result = lp([2, 3], [[1, 1], [1, 0]], [GE, GE], [4, 1])
        assert result.status is Status.OPTIMAL
        assert result.objective == pytest.approx(8)

    def test_upper_bounds_bind(self):
        # max x + y st x + y <= 10, 0 <= x,y <= 3 -> 6.
        result = lp([-1, -1], [[1, 1]], [LE], [10], upper=[3, 3])
        assert result.objective == pytest.approx(-6)

    def test_nonzero_lower_bounds(self):
        # min x + y st x + y >= 1, x,y in [2, 5] -> 4.
        result = lp([1, 1], [[1, 1]], [GE], [1], lower=[2, 2], upper=[5, 5])
        assert result.status is Status.OPTIMAL
        assert result.objective == pytest.approx(4)

    def test_negative_rhs_row_flip(self):
        # min x st -x <= -3  (i.e. x >= 3).
        result = lp([1], [[-1]], [LE], [-3])
        assert result.objective == pytest.approx(3)

    def test_degenerate_lp(self):
        # Multiple constraints active at the optimum.
        result = lp(
            [-1, -1],
            [[1, 0], [0, 1], [1, 1]],
            [LE, LE, LE],
            [2, 2, 2],
        )
        assert result.status is Status.OPTIMAL
        assert result.objective == pytest.approx(-2)

    def test_bound_flip_only_problem(self):
        # max x + y with one joint constraint looser than the bounds:
        # the solver must use bound flips to reach (1, 1).
        result = lp([-1, -1], [[1, 1]], [LE], [100], upper=[1, 1])
        assert result.objective == pytest.approx(-2)


class TestStatuses:
    def test_infeasible_bounds_vs_constraint(self):
        result = lp([0], [[1]], [GE], [2], upper=[1])
        assert result.status is Status.INFEASIBLE

    def test_infeasible_contradictory_rows(self):
        result = lp([0], [[1], [1]], [GE, LE], [5, 3])
        assert result.status is Status.INFEASIBLE

    def test_crossed_variable_bounds_infeasible(self):
        result = lp([0], [[1]], [LE], [10], lower=[4], upper=[2])
        assert result.status is Status.INFEASIBLE

    def test_unbounded(self):
        result = lp([-1], [[-1]], [LE], [0])
        assert result.status is Status.UNBOUNDED

    def test_zero_rows_optimal_at_bounds(self):
        result = solve_lp(
            np.array([1.0, -2.0]),
            np.zeros((0, 2)),
            [],
            np.zeros(0),
            np.zeros(2),
            np.array([5.0, 5.0]),
        )
        assert result.status is Status.OPTIMAL
        assert result.x == pytest.approx([0, 5])

    def test_zero_rows_unbounded(self):
        result = solve_lp(
            np.array([-1.0]),
            np.zeros((0, 1)),
            [],
            np.zeros(0),
            np.zeros(1),
            np.array([np.inf]),
        )
        assert result.status is Status.UNBOUNDED

    def test_zero_rows_unused_infinite_upper_is_not_unbounded(self):
        # Only an infinite bound the cost actually pulls towards is
        # unbounded; the second column rests at its lower bound.
        result = solve_lp(
            np.array([-1.0, 1.0]),
            np.zeros((0, 2)),
            [],
            np.zeros(0),
            np.array([1.0, 2.0]),
            np.array([4.0, np.inf]),
        )
        assert result.status is Status.OPTIMAL
        assert result.x.tolist() == [4.0, 2.0]
        assert result.objective == -2.0

    def test_infinite_lower_bound_rejected(self):
        with pytest.raises(ValueError, match="finite lower"):
            solve_lp(
                np.array([1.0]),
                np.zeros((1, 1)),
                [LE],
                np.ones(1),
                np.array([-np.inf]),
                np.array([np.inf]),
            )


class TestModelInterface:
    def test_solve_model_lp_reports_model_orientation(self):
        model = Model()
        x = model.add_variable(upper=4)
        model.add_constraint({x: 1}, "<=", 3)
        model.set_objective({x: 2}, ObjectiveSense.MAXIMIZE, constant=1)
        result = solve_model_lp(model)
        assert result.objective == pytest.approx(7)  # 2*3 + 1

    def test_lp_relaxation_ignores_integrality(self):
        model = Model()
        x = model.add_variable(upper=1.5, integer=True)
        model.set_objective({x: -1})
        result = solve_model_lp(model)
        assert result.x[0] == pytest.approx(1.5)


class TestWarmResolve:
    """A warm dual re-solve after one bound tightens equals a cold solve."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_tightened_bound_matches_cold_solve(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        c = rng.integers(-5, 6, size=n).astype(float)
        A = rng.integers(-4, 5, size=(m, n)).astype(float)
        b = rng.integers(-10, 21, size=m).astype(float)
        senses = [[LE, GE, EQ][int(k)] for k in rng.integers(0, 3, size=m)]
        lower = np.zeros(n)
        upper = rng.choice([1.0, 2.0, 5.0, 10.0], size=n)

        workspace = LPWorkspace(c, A, senses, b)
        parent = workspace.solve(lower, upper)
        if parent.status is not Status.OPTIMAL:
            return
        # Tighten one bound, as a branch or a reduced-cost fixing does.
        j = int(rng.integers(0, n))
        child_lower, child_upper = lower.copy(), upper.copy()
        if data.draw(st.booleans()):
            child_upper[j] = data.draw(st.integers(0, int(upper[j]) - 1))
        else:
            child_lower[j] = data.draw(st.integers(1, int(upper[j])))

        warm = workspace.resolve(child_lower, child_upper, parent)
        cold = solve_lp(c, A, senses, b, child_lower, child_upper)
        assert warm.warm  # an optimal parent basis never needs the fallback
        assert warm.status is cold.status
        if cold.status is Status.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            assert np.all(warm.x >= child_lower) and np.all(warm.x <= child_upper)

    def test_one_bound_change_takes_a_few_dual_pivots(self):
        # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x <= 3: optimum
        # (3, 1); branching y <= 0 moves it to (3, 0).
        c, A, senses, b = [-3, -2], [[1, 1], [1, 3]], [LE, LE], [4, 6]
        workspace = LPWorkspace(c, A, senses, b)
        parent = workspace.solve([0, 0], [3, np.inf])
        assert parent.objective == pytest.approx(-11)
        child = workspace.resolve([0, 0], [3, 0], parent)
        assert child.warm
        assert child.status is Status.OPTIMAL
        assert child.objective == pytest.approx(-9)
        assert child.iterations <= 3

    def test_empty_dual_ratio_test_proves_infeasibility(self):
        # x + y >= 3 with both at most 1 after the branch.
        c, A, senses, b = [1, 1], [[1, 1]], [GE], [3]
        workspace = LPWorkspace(c, A, senses, b)
        parent = workspace.solve([0, 0], [2, 2])
        assert parent.status is Status.OPTIMAL
        child = workspace.resolve([0, 0], [1, 1], parent)
        assert child.warm
        assert child.status is Status.INFEASIBLE
        assert solve_lp(c, A, senses, b, [0, 0], [1, 1]).status is Status.INFEASIBLE

    def test_dual_infeasible_start_falls_back_to_the_cold_solve(self):
        # The parent basis is optimal for the opposite objective, so
        # its reduced costs have the wrong signs for this one: the
        # warm path must hand the child to the cold solve.
        c, A, senses, b = [-1, -2], [[1, 1]], [LE], [4]
        lower, upper = np.zeros(2), np.array([3.0, 3.0])
        opposite = LPWorkspace([1, 2], A, senses, b).solve(lower, upper)
        workspace = LPWorkspace(c, A, senses, b)
        child_upper = np.array([3.0, 2.0])
        fallback = workspace.resolve(lower, child_upper, opposite)
        cold = workspace.solve(lower, child_upper)
        assert not fallback.warm
        assert fallback.status is cold.status is Status.OPTIMAL
        assert fallback.objective == cold.objective == pytest.approx(-6)
        assert np.array_equal(fallback.x, cold.x)
        assert fallback.iterations > cold.iterations  # the warm try counts


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy unavailable")
class TestAgainstHighs:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_lps_match_highs(self, data):
        rng_seed = data.draw(st.integers(0, 10**6))
        rng = np.random.default_rng(rng_seed)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        c = rng.integers(-5, 6, size=n).astype(float)
        A = rng.integers(-4, 5, size=(m, n)).astype(float)
        b = rng.integers(-10, 21, size=m).astype(float)
        senses = [
            [LE, GE, EQ][int(k)] for k in rng.integers(0, 3, size=m)
        ]
        upper = rng.choice([2.0, 5.0, 10.0, np.inf], size=n)
        lower = np.zeros(n)

        ours = lp(c, A, senses, b, lower=lower, upper=upper)

        bounds = list(zip(lower, [None if np.isinf(u) else u for u in upper]))
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for row, sense, rhs in zip(A, senses, b):
            if sense is LE:
                A_ub.append(row)
                b_ub.append(rhs)
            elif sense is GE:
                A_ub.append(-row)
                b_ub.append(-rhs)
            else:
                A_eq.append(row)
                b_eq.append(rhs)
        theirs = linprog(
            c,
            A_ub=np.array(A_ub) if A_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(A_eq) if A_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=bounds,
            method="highs",
        )

        if theirs.status == 2:
            # HiGHS presolve reports "infeasible" for problems that are
            # infeasible OR unbounded; disambiguate with a feasibility
            # solve (zero objective).
            feasibility = linprog(
                np.zeros(n),
                A_ub=np.array(A_ub) if A_ub else None,
                b_ub=np.array(b_ub) if b_ub else None,
                A_eq=np.array(A_eq) if A_eq else None,
                b_eq=np.array(b_eq) if b_eq else None,
                bounds=bounds,
                method="highs",
            )
            if feasibility.status == 0:
                assert ours.status is Status.UNBOUNDED
            else:
                assert ours.status is Status.INFEASIBLE
        elif theirs.status == 3:
            assert ours.status is Status.UNBOUNDED
        elif theirs.status == 0:
            assert ours.status is Status.OPTIMAL
            assert ours.objective == pytest.approx(theirs.fun, abs=1e-6, rel=1e-6)
