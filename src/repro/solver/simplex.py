"""Bounded-variable dual simplex with a bound-flipping ratio test.

This is the LP engine underneath the branch-and-bound MILP solver.  It
solves::

    minimize    c' x
    subject to  A x {<=, =, >=} b
                lower <= x <= upper        (lower finite, upper may be inf)

The implementation is a dense revised simplex specialized for the LPs
that package queries generate: *few rows* (one per global constraint
plus indicator rows) and *many columns* (one per candidate tuple).  The
basis is therefore tiny and is refactorized exactly (``np.linalg.inv``)
at every pivot, trading a little arithmetic for numerical robustness —
there is no accumulated-update drift to manage.

An :class:`LPWorkspace` holds one LP's equality form ``[A | S | I]``
(slacks, then artificials), built once per MILP, and one algorithm
solves every LP on it: the bounded dual simplex.
:meth:`~LPWorkspace.solve` starts from the *slack basis* (each LE/GE
row's slack or each EQ row's artificial is basic; every nonbasic
structural rests at the bound its cost sign picks), which is dual
feasible when no column is pulled toward an infinite upper bound — true
of every column the translator emits.  Otherwise a dual phase 1 on the
same routine first finds a dual feasible basis or an improving ray.
:meth:`~LPWorkspace.resolve` starts from a parent's optimal basis,
which a bound change leaves dual feasible, so branch and bound's
children take a few pivots; on any doubt it restarts from the slack
basis.

The leaving row is the most violated one.  The ratio test flips
bounds: every boxed column whose breakpoint comes before the row's
violation is used up jumps to its other bound at once, and the column
at that breakpoint enters, near ties going to the largest pivot.  Past
half the stall budget Bland's rule takes over (smallest-index violated
basic column leaves, smallest index among the tied minimum ratios
enters, no flips); at the budget the run gives up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.solver.model import ConstraintSense
from repro.solver.status import Status

#: Feasibility / reduced-cost tolerance.
TOL = 1e-8
#: Pivot element magnitude below which a column is considered zero.
PIVOT_TOL = 1e-9
#: Residual infeasibility above which an LP is declared infeasible.
INFEASIBLE_TOL = 1e-7
#: Ratios this close count as a tie in the ratio test.
RATIO_TIE = 1e-12
#: Breakpoints the ratio test sorts first.
_SORTED_BREAKPOINTS = 64


@dataclass
class LPResult:
    """Outcome of one LP solve.

    An OPTIMAL result also carries its final basis, in the column
    numbering of :class:`LPWorkspace`: ``basis`` lists the basic column
    of each row, ``at_upper`` marks the nonbasic columns resting at
    their upper bound, and ``reduced_costs`` holds the structural
    columns' reduced costs.  ``warm`` is true when the dual simplex
    produced the result from a parent basis.
    """

    status: Status
    x: np.ndarray = field(default_factory=lambda: np.array([]))
    objective: float = math.nan
    iterations: int = 0
    basis: np.ndarray | None = None
    at_upper: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    warm: bool = False


class SimplexError(Exception):
    """Raised when a solve from the slack basis ends in doubt."""

    def __init__(self, pivots):
        super().__init__(f"dual simplex in doubt after {pivots} pivots")
        self.pivots = pivots


def solve_lp(c, A, senses, b, lower, upper):
    """Solve the LP; see the module docstring for the problem form.

    Args:
        c: objective coefficients, shape (n,). Minimization.
        A: constraint matrix, shape (m, n).
        senses: sequence of :class:`ConstraintSense`, length m.
        b: right-hand sides, shape (m,).
        lower: finite lower bounds, shape (n,).
        upper: upper bounds (may be ``inf``), shape (n,).

    Returns:
        :class:`LPResult` with status OPTIMAL, INFEASIBLE or UNBOUNDED.

    Raises:
        SimplexError: if the dual simplex stalls past its pivot budget
            or meets a singular basis (never observed).
        ValueError: on non-finite lower bounds or shape mismatches.
    """
    return LPWorkspace(c, A, senses, b).solve(lower, upper)


def _slope_end(ratios, drops, violation):
    """``(ratio, None)`` of the breakpoint where the cumulative drop
    reaches ``violation``, or ``(None, total drop)`` if none does.

    Sorts only the smallest ratios: all up to the k-th, ties included,
    with k growing x4 until the slope runs out.
    """
    size = _SORTED_BREAKPOINTS
    while True:
        if size < len(ratios):
            kth = np.partition(ratios, size - 1)[size - 1]
            head = np.flatnonzero(ratios <= kth)
        else:
            head = np.arange(len(ratios))
        head = head[np.argsort(ratios[head], kind="stable")]
        cumulative = np.cumsum(drops[head])
        k = int(np.searchsorted(cumulative, violation - TOL))
        if k < len(head):
            return float(ratios[head[k]]), None
        if len(head) == len(ratios):
            return None, float(cumulative[-1]) if len(head) else 0.0
        size *= 4


class LPWorkspace:
    """One LP's equality form ``[A | S | I] z = b``, built once.

    ``S`` has one column per inequality row (``+1`` for LE, ``-1`` for
    GE) and ``I`` one artificial column per row.  Columns are numbered
    structurals, then slacks, then artificials; slacks range over
    ``[0, inf)`` and artificials are held at zero.
    """

    def __init__(self, c, A, senses, b):
        c = np.asarray(c, dtype=np.float64)
        A = np.asarray(A, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        m, n = A.shape if A.size else (len(b), len(c))
        if len(c) != n or len(b) != m:
            raise ValueError("inconsistent LP dimensions")
        self.c, self.b, self.m, self.n = c, b, m, n

        # LE rows get +s (s >= 0), GE rows get -s (s >= 0), EQ rows none.
        slacks = [
            (i, 1.0 if sense is ConstraintSense.LE else -1.0)
            for i, sense in enumerate(senses)
            if sense is not ConstraintSense.EQ
        ]
        self.n_real = n + len(slacks)
        self.matrix = np.zeros((m, self.n_real + m))
        if m:  # a row-free A may come in any empty shape
            self.matrix[:, :n] = A
        # The slack basis: each row's slack, or its artificial on EQ rows.
        self.slack_basis = self.n_real + np.arange(m)
        for k, (row, coef) in enumerate(slacks):
            self.matrix[row, n + k] = coef
            self.slack_basis[row] = n + k
        self.matrix[:, self.n_real :] = np.eye(m)
        self.cost = np.concatenate([c, np.zeros(len(slacks) + m)])
        # Bounds of the slack and artificial columns.
        self._tail_lower = np.zeros(len(slacks) + m)
        self._tail_upper = np.concatenate(
            [np.full(len(slacks), math.inf), np.zeros(m)]
        )
        # Pivots after which a run is presumed stalled or cycling.
        self._budget = 3 * (self.matrix.shape[1] + m) + 200

    def _check_bounds(self, lower, upper):
        """``(lo, hi, crossed)``: the bounds of every column, and
        whether some structural's lower bound exceeds its upper."""
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if len(lower) != self.n or len(upper) != self.n:
            raise ValueError("inconsistent LP dimensions")
        if not np.all(np.isfinite(lower)):
            raise ValueError("simplex requires finite lower bounds")
        lo = np.concatenate([lower, self._tail_lower])
        hi = np.concatenate([upper, self._tail_upper])
        return lo, hi, bool(np.any(lower > upper + TOL))

    def solve(self, lower, upper):
        """Dual simplex from the slack basis under ``lower <= x <= upper``."""
        lo, hi, crossed = self._check_bounds(lower, upper)
        if crossed:
            return LPResult(Status.INFEASIBLE)
        unboxed = np.isinf(hi)
        basis, at_upper, spent = self.slack_basis, (self.cost < 0) & ~unboxed, 0
        if (self.cost[unboxed] < -TOL).any():
            # Dual phase 1: the direction subproblem (rhs 0, the unboxed
            # columns in [0, 1], every other column fixed at 0).  Its
            # objective is the sum of its at-upper columns' reduced
            # costs, so an optimum of 0 leaves a basis dual feasible for
            # this LP with the unboxed columns at their lower bound, and
            # a negative one is an improving ray.
            zeros, nowhere = np.zeros(len(lo)), np.zeros(len(lo), dtype=bool)
            direction = self._dual_simplex(
                self.cost,
                zeros,
                unboxed.astype(np.float64),
                np.zeros(self.m),
                self.slack_basis,
                (self.cost < 0) & unboxed,
            )
            spent = direction.iterations
            if direction.objective < -TOL:
                # Unbounded if any point is feasible at all.
                feasible = self._dual_simplex(
                    zeros, lo, hi, self.b, self.slack_basis, nowhere
                )
                status = (
                    Status.UNBOUNDED
                    if feasible.status is Status.OPTIMAL
                    else Status.INFEASIBLE
                )
                return LPResult(status, iterations=spent + feasible.iterations)
            basis, at_upper = direction.basis, nowhere
            at_upper[: self.n] = (direction.reduced_costs < 0) & ~unboxed[: self.n]
        result = self._dual_simplex(self.cost, lo, hi, self.b, basis, at_upper)
        result.iterations += spent
        return result

    def resolve(self, lower, upper, parent):
        """Re-solve under new bounds, warm from ``parent``'s optimal basis.

        Runs the dual simplex from ``parent.basis``; on any doubt it
        returns :meth:`solve` from the slack basis instead, with the
        pivots the warm attempt spent added to ``iterations``.
        """
        lo, hi, crossed = self._check_bounds(lower, upper)
        if crossed:
            return LPResult(Status.INFEASIBLE)
        spent = 0
        if parent.basis is not None:  # only an OPTIMAL result has one
            try:
                result = self._dual_simplex(
                    self.cost, lo, hi, self.b, parent.basis, parent.at_upper
                )
            except SimplexError as doubt:
                spent = doubt.pivots
            else:
                result.warm = True
                return result
        result = self.solve(lower, upper)
        result.iterations += spent
        return result

    def _dual_simplex(self, cost, lo, hi, b, basis, at_upper):
        """Bounded dual simplex from ``basis``, nonbasic ``at_upper`` columns
        at their upper bound.

        Raises:
            SimplexError: on doubt: the start is dual infeasible beyond
                ``TOL`` or rests a column at an infinite bound, a basis
                is singular, or the stall budget ran out.
        """
        A = self.matrix
        basis = basis.copy()
        in_basis = np.zeros(len(lo), dtype=bool)
        in_basis[basis] = True
        at_upper = at_upper & ~in_basis
        if np.isinf(hi[at_upper]).any():
            raise SimplexError(0)
        movable = hi - lo > TOL

        for iterations in range(1, self._budget + 1):
            try:
                Binv = np.linalg.inv(A[:, basis])
            except np.linalg.LinAlgError:
                raise SimplexError(iterations) from None
            z = np.where(at_upper, hi, lo)
            z[basis] = 0.0
            xB = Binv @ (b - A @ z)
            reduced = cost - (cost[basis] @ Binv) @ A

            # Fixed columns can never move, so their sign is free.
            at_lo = movable & ~in_basis & ~at_upper
            at_hi = movable & ~in_basis & at_upper
            if (reduced[at_lo] < -TOL).any() or (reduced[at_hi] > TOL).any():
                raise SimplexError(iterations)

            below = lo[basis] - xB
            above = xB - hi[basis]
            violation = np.maximum(below, above)
            if violation.max(initial=0.0) <= TOL:
                z[basis] = xB
                x = np.clip(z[: self.n], lo[: self.n], hi[: self.n])
                return LPResult(
                    Status.OPTIMAL,
                    x=x,
                    objective=float(cost[: self.n] @ x),
                    iterations=iterations,
                    basis=basis,
                    at_upper=at_upper,
                    reduced_costs=reduced[: self.n].copy(),
                )

            bland = iterations > self._budget // 2
            if bland:
                violated = np.flatnonzero(violation > TOL)
                r = int(violated[np.argmin(basis[violated])])
            else:
                r = int(np.argmax(violation))

            # Row r of B^-1 N: x_B[r] = beta_r - alpha . x_N.  A column
            # can repair row r if moving off its bound pushes x_B[r]
            # back toward the bound it violates: rising from lower, or
            # falling from upper.
            alpha = Binv[r] @ A
            toward = alpha if above[r] > 0 else -alpha
            candidates = np.flatnonzero(
                (at_lo & (toward > PIVOT_TOL)) | (at_hi & (toward < -PIVOT_TOL))
            )
            pivot = np.abs(alpha[candidates])
            ratios = np.abs(reduced[candidates]) / pivot
            if bland:
                t, total = (ratios.min() if candidates.size else None), 0.0
            else:
                # Passing a breakpoint flips its column to the other
                # bound, which repairs row r by |alpha| * span.
                drops = pivot * (hi[candidates] - lo[candidates])
                t, total = _slope_end(ratios, drops, violation[r])
            if t is None:
                # Every column that can repair row r is at its best
                # bound and the row is still violated: a dual ray.
                if violation[r] - total > INFEASIBLE_TOL:
                    return LPResult(Status.INFEASIBLE, iterations=iterations)
                if not candidates.size:
                    raise SimplexError(iterations)
                t = ratios.max()
            tied = ratios <= t + RATIO_TIE
            if bland:
                entering = int(candidates[np.argmax(tied)])
            else:
                tied &= ratios >= t - RATIO_TIE
                entering = int(candidates[tied][np.argmax(pivot[tied])])
                flips = candidates[ratios < t - RATIO_TIE]
                at_upper[flips] = ~at_upper[flips]

            leaving = basis[r]
            basis[r] = entering
            in_basis[leaving] = False
            in_basis[entering] = True
            at_upper[leaving] = above[r] > 0
            at_upper[entering] = False
        raise SimplexError(self._budget)


def solve_model_lp(model):
    """Solve the LP relaxation of a :class:`repro.solver.model.Model`.

    Integrality markers are ignored; the returned objective is in the
    model's own orientation (including the constant term).
    """
    c, A, senses, b, lower, upper = model.lp_arrays()
    result = solve_lp(c, A, senses, b, lower, upper)
    if result.status is Status.OPTIMAL:
        result.objective = model.objective_value(result.x)
    return result
