"""Bounded-variable simplex: a cold two-phase primal and a warm dual.

This is the LP engine underneath the branch-and-bound MILP solver.  It
solves::

    minimize    c' x
    subject to  A x {<=, =, >=} b
                lower <= x <= upper        (lower finite, upper may be inf)

The implementation is a dense revised simplex specialized for the LPs
that package queries generate: *few rows* (one per global constraint
plus indicator rows) and *many columns* (one per candidate tuple).  The
basis is therefore tiny and is refactorized exactly (``np.linalg.inv``)
at every iteration of either method, trading a little arithmetic for
numerical robustness — there is no accumulated-update drift to manage.

An :class:`LPWorkspace` holds one LP's equality form ``[A | S | I]``
(slacks, then artificials) and is built once per MILP.  Its
:meth:`~LPWorkspace.solve` is the cold two-phase primal from an
all-artificial basis; :meth:`~LPWorkspace.resolve` restarts from a
previous optimal basis after bounds tighten, with the bounded dual
simplex — a bound change keeps that basis dual feasible, so branch and
bound's children take a few pivots instead of a full solve.  Any doubt
in the warm path (a dual infeasible basis, a singular basis, a nonbasic
column at an infinite bound, its pivot cap) falls back to the cold
solve.

Upper bounds are handled natively (nonbasic variables rest at either
bound; the ratio test includes bound flips), so branch-and-bound's
bound tightening never adds rows.

Anti-cycling: the primal uses Dantzig pricing normally, switching to
Bland's rule after a stall threshold; ties in its ratio test break
toward the smallest variable index.  The dual leaves on the most
violated row and enters the smallest ratio, near ties going to the
largest pivot element; past the same stall threshold it gives up and
the cold solve takes over.
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
    """Raised on iteration-limit exhaustion or internal inconsistency."""


def solve_lp(c, A, senses, b, lower, upper, iteration_limit=50000):
    """Solve the LP; see the module docstring for the problem form.

    Args:
        c: objective coefficients, shape (n,). Minimization.
        A: constraint matrix, shape (m, n).
        senses: sequence of :class:`ConstraintSense`, length m.
        b: right-hand sides, shape (m,).
        lower: finite lower bounds, shape (n,).
        upper: upper bounds (may be ``inf``), shape (n,).
        iteration_limit: cap across both phases.

    Returns:
        :class:`LPResult` with status OPTIMAL, INFEASIBLE or UNBOUNDED.

    Raises:
        SimplexError: if the iteration limit is exhausted (pathological
            cycling; never observed with the Bland fallback).
        ValueError: on non-finite lower bounds or shape mismatches.
    """
    return LPWorkspace(c, A, senses, b).solve(lower, upper, iteration_limit)


def _solve_unconstrained(c, lower, upper):
    """Bound-only LP: each variable sits at whichever bound its cost likes."""
    x = np.where(c < -TOL, upper, lower)
    if np.isinf(x).any():
        return LPResult(Status.UNBOUNDED)
    return LPResult(Status.OPTIMAL, x=x, objective=float(c @ x))


def _stall_budget(n_columns, m):
    """Pivots after which a simplex run is presumed stalled or cycling."""
    return 3 * (n_columns + m) + 200


class LPWorkspace:
    """One LP's equality form ``[A | S | I] z = b``, built once.

    ``S`` has one column per inequality row (``+1`` for LE, ``-1`` for
    GE) and ``I`` one artificial column per row.  Columns are numbered
    structurals, then slacks, then artificials; slacks range over
    ``[0, inf)`` and artificials are held at zero outside phase 1.
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
        for k, (row, coef) in enumerate(slacks):
            self.matrix[row, n + k] = coef
        self.matrix[:, self.n_real :] = np.eye(m)
        self.cost = np.concatenate([c, np.zeros(len(slacks) + m)])
        # Bounds of the slack and artificial columns.
        self._tail_lower = np.zeros(len(slacks) + m)
        self._tail_upper = np.concatenate(
            [np.full(len(slacks), math.inf), np.zeros(m)]
        )

    def _check_bounds(self, lower, upper):
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if len(lower) != self.n or len(upper) != self.n:
            raise ValueError("inconsistent LP dimensions")
        if not np.all(np.isfinite(lower)):
            raise ValueError("simplex requires finite lower bounds")
        return lower, upper

    def solve(self, lower, upper, iteration_limit=50000):
        """Cold two-phase primal simplex under ``lower <= x <= upper``."""
        lower, upper = self._check_bounds(lower, upper)
        if np.any(lower > upper + TOL):
            return LPResult(Status.INFEASIBLE)
        if self.m == 0:
            return _solve_unconstrained(self.c, lower, upper)
        return _BoundedSimplex(self, lower, upper, iteration_limit).solve()

    def resolve(self, lower, upper, parent, iteration_limit=50000):
        """Re-solve under new bounds, warm from ``parent``'s optimal basis.

        Runs the bounded dual simplex from ``parent.basis``; on any
        doubt it returns the cold :meth:`solve` instead, with the
        pivots the warm attempt spent added to ``iterations``.
        """
        lower, upper = self._check_bounds(lower, upper)
        if np.any(lower > upper + TOL):
            return LPResult(Status.INFEASIBLE)
        spent = 0
        if parent.basis is not None:  # a row-free LP has no basis
            budget = _stall_budget(self.matrix.shape[1], self.m)
            result, spent = self._dual_simplex(
                lower, upper, parent, min(iteration_limit, budget)
            )
            if result is not None:
                return result
        result = self.solve(lower, upper, iteration_limit)
        result.iterations += spent
        return result

    def _dual_simplex(self, lower, upper, parent, limit):
        """Bounded dual simplex; ``(result or None, pivots spent)``.

        ``None`` means doubt: the basis is dual infeasible beyond
        ``TOL``, singular, rests a nonbasic column at an infinite
        bound, or has not reached optimality within ``limit`` pivots.
        """
        A, n = self.matrix, self.n
        lo = np.concatenate([lower, self._tail_lower])
        hi = np.concatenate([upper, self._tail_upper])
        basis = parent.basis.copy()
        in_basis = np.zeros(len(lo), dtype=bool)
        in_basis[basis] = True
        at_upper = parent.at_upper & ~in_basis
        if np.isinf(hi[at_upper]).any():
            return None, 0
        movable = hi - lo > TOL

        iterations = 0
        while iterations < limit:
            iterations += 1
            try:
                Binv = np.linalg.inv(A[:, basis])
            except np.linalg.LinAlgError:
                return None, iterations
            z = np.where(at_upper, hi, lo)
            z[basis] = 0.0
            xB = Binv @ (self.b - A @ z)
            reduced = self.cost - (self.cost[basis] @ Binv) @ A

            # Fixed columns can never move, so their sign is free.
            at_lo = movable & ~in_basis & ~at_upper
            at_hi = movable & ~in_basis & at_upper
            if (reduced[at_lo] < -TOL).any() or (reduced[at_hi] > TOL).any():
                return None, iterations

            below = lo[basis] - xB
            above = xB - hi[basis]
            violation = np.maximum(below, above)
            r = int(np.argmax(violation))
            if violation[r] <= TOL:
                z[basis] = xB
                x = np.clip(z[:n], lower, upper)
                result = LPResult(
                    Status.OPTIMAL,
                    x=x,
                    objective=float(self.c @ x),
                    iterations=iterations,
                    basis=basis,
                    at_upper=at_upper,
                    reduced_costs=reduced[:n].copy(),
                    warm=True,
                )
                return result, iterations

            # Row r of B^-1 N: x_B[r] = beta_r - alpha . x_N.  The
            # entering column must push x_B[r] back toward the bound it
            # violates: rising from lower, or falling from upper.
            alpha = Binv[r] @ A
            toward = alpha if above[r] > 0 else -alpha
            candidates = np.flatnonzero(
                (at_lo & (toward > PIVOT_TOL)) | (at_hi & (toward < -PIVOT_TOL))
            )
            if candidates.size == 0:
                # An empty ratio test is a dual ray: no column can
                # repair row r, so no point meets the new bounds.
                if violation[r] > INFEASIBLE_TOL:
                    infeasible = LPResult(
                        Status.INFEASIBLE, iterations=iterations, warm=True
                    )
                    return infeasible, iterations
                return None, iterations
            ratios = np.abs(reduced[candidates]) / np.abs(alpha[candidates])
            # Near-exact ties (dual degeneracy) go to the largest pivot.
            tied = candidates[ratios <= ratios.min() + 1e-12]
            entering = int(tied[np.argmax(np.abs(alpha[tied]))])

            leaving = basis[r]
            basis[r] = entering
            in_basis[leaving] = False
            in_basis[entering] = True
            at_upper[leaving] = above[r] > 0
            at_upper[entering] = False
        return None, iterations


class _BoundedSimplex:
    """Cold two-phase primal; one instance per :meth:`LPWorkspace.solve`."""

    def __init__(self, workspace, lower, upper, iteration_limit):
        m, n = workspace.m, workspace.n
        n_slack = workspace.n_real - n
        self._n_struct = n
        self._m = m
        self._iteration_limit = iteration_limit
        self._iterations = 0
        self._c_user = workspace.c
        self._reduced = None

        full = workspace.matrix[:, : workspace.n_real].copy()  # [A | S]
        lz = np.concatenate([lower, np.zeros(n_slack)])
        uz = np.concatenate([upper, np.full(n_slack, math.inf)])

        # Shift all variables to lower bound zero.
        b_shift = workspace.b - full @ lz
        self._ub = uz - lz
        self._lz = lz

        # Flip rows so the shifted RHS is nonnegative (artificial basis
        # feasibility).
        flip = b_shift < 0
        full[flip] *= -1.0
        b_shift[flip] *= -1.0

        # Append artificial columns (identity).
        self._n_real = workspace.n_real
        self._A = np.hstack([full, np.eye(m)])
        self._b = b_shift
        self._ub = np.concatenate([self._ub, np.full(m, math.inf)])
        self._n_total = self._n_real + m

        self._basis = list(range(self._n_real, self._n_total))
        self._in_basis = np.zeros(self._n_total, dtype=bool)
        self._in_basis[self._basis] = True
        self._at_upper = np.zeros(self._n_total, dtype=bool)
        self._banned = np.zeros(self._n_total, dtype=bool)

    # -- main driver ---------------------------------------------------------

    def solve(self):
        phase1_cost = np.zeros(self._n_total)
        phase1_cost[self._n_real :] = 1.0
        status = self._run_phase(phase1_cost)
        if status is Status.UNBOUNDED:  # pragma: no cover - phase 1 is bounded
            raise SimplexError("phase 1 reported unbounded")

        xB = self._basic_values()
        infeasibility = sum(
            xB[i] for i in range(self._m) if self._basis[i] >= self._n_real
        )
        if infeasibility > INFEASIBLE_TOL:
            return LPResult(
                Status.INFEASIBLE, iterations=self._iterations
            )

        # Freeze artificials at zero for phase 2.
        self._ub[self._n_real :] = 0.0
        self._banned[self._n_real :] = True

        phase2_cost = np.zeros(self._n_total)
        phase2_cost[: self._n_struct] = self._c_user
        status = self._run_phase(phase2_cost)
        if status is Status.UNBOUNDED:
            return LPResult(Status.UNBOUNDED, iterations=self._iterations)

        x = self._extract_solution()
        objective = float(self._c_user @ x)
        return LPResult(
            Status.OPTIMAL,
            x=x,
            objective=objective,
            iterations=self._iterations,
            basis=np.array(self._basis),
            at_upper=self._at_upper & ~self._in_basis,
            reduced_costs=self._reduced[: self._n_struct].copy(),
        )

    # -- helpers ---------------------------------------------------------------

    def _basic_values(self):
        """Current values of the basic variables (shifted space)."""
        upper_nb = self._at_upper & ~self._in_basis
        rhs = self._b.copy()
        if upper_nb.any():
            cols = np.nonzero(upper_nb)[0]
            rhs = rhs - self._A[:, cols] @ self._ub[cols]
        Bmat = self._A[:, self._basis]
        return np.linalg.solve(Bmat, rhs)

    def _extract_solution(self):
        z = np.zeros(self._n_total)
        upper_nb = self._at_upper & ~self._in_basis
        z[upper_nb] = self._ub[upper_nb]
        xB = self._basic_values()
        for i, col in enumerate(self._basis):
            z[col] = xB[i]
        # Undo the lower-bound shift for real variables and clip tiny
        # negative drift.
        real = np.clip(z[: self._n_real], 0.0, None) + self._lz
        return real[: self._n_struct]

    # -- one phase of the simplex ------------------------------------------------

    def _run_phase(self, cost):
        bland_threshold = _stall_budget(self._n_total, self._m)
        stall = 0
        last_objective = math.inf

        while True:
            if self._iterations >= self._iteration_limit:
                raise SimplexError(
                    f"iteration limit {self._iteration_limit} exhausted"
                )
            self._iterations += 1

            Bmat = self._A[:, self._basis]
            try:
                Binv = np.linalg.inv(Bmat)
            except np.linalg.LinAlgError:  # pragma: no cover - guarded pivots
                raise SimplexError("singular basis matrix")

            upper_nb = self._at_upper & ~self._in_basis
            rhs = self._b.copy()
            if upper_nb.any():
                cols = np.nonzero(upper_nb)[0]
                rhs = rhs - self._A[:, cols] @ self._ub[cols]
            xB = Binv @ rhs

            y = cost[self._basis] @ Binv
            reduced = cost - y @ self._A

            objective = float(cost[self._basis] @ xB)
            if objective < last_objective - 1e-12:
                stall = 0
                last_objective = objective
            else:
                stall += 1
            use_bland = stall > bland_threshold

            entering, from_upper = self._choose_entering(reduced, use_bland)
            if entering is None:
                self._reduced = reduced
                return Status.OPTIMAL

            sigma = -1.0 if from_upper else 1.0
            w = Binv @ self._A[:, entering]

            t_limit, leave_row, leave_at_upper = self._ratio_test(
                xB, w, sigma, entering
            )
            if math.isinf(t_limit):
                return Status.UNBOUNDED

            if leave_row is None:
                # The entering variable runs to its opposite bound.
                self._at_upper[entering] = not self._at_upper[entering]
                continue

            leaving = self._basis[leave_row]
            self._basis[leave_row] = entering
            self._in_basis[leaving] = False
            self._in_basis[entering] = True
            self._at_upper[leaving] = leave_at_upper
            self._at_upper[entering] = False

    def _choose_entering(self, reduced, use_bland):
        """Pick the entering column, or (None, False) at optimality."""
        nonbasic = ~self._in_basis & ~self._banned
        at_lower = nonbasic & ~self._at_upper
        at_upper = nonbasic & self._at_upper
        # A variable fixed at a single point can never improve.
        movable = self._ub > TOL
        improving_lower = at_lower & (reduced < -TOL) & movable
        improving_upper = at_upper & (reduced > TOL)

        candidates = np.nonzero(improving_lower | improving_upper)[0]
        if candidates.size == 0:
            return None, False
        if use_bland:
            choice = int(candidates[0])
        else:
            violation = np.abs(reduced[candidates])
            choice = int(candidates[int(np.argmax(violation))])
        return choice, bool(self._at_upper[choice])

    def _ratio_test(self, xB, w, sigma, entering):
        """Largest step t for the entering variable; who blocks it.

        Returns ``(t, leave_row, leave_at_upper)``; ``leave_row`` is
        ``None`` when the entering variable's own opposite bound is the
        binding limit (bound flip).
        """
        t_best = self._ub[entering]  # may be inf
        leave_row = None
        leave_at_upper = False

        for i in range(self._m):
            rate = sigma * w[i]
            if rate > PIVOT_TOL:
                # Basic variable i decreases toward 0.
                t = max(xB[i], 0.0) / rate
                if t < t_best - TOL or (
                    t < t_best + TOL
                    and leave_row is not None
                    and self._basis[i] < self._basis[leave_row]
                ):
                    t_best = t
                    leave_row = i
                    leave_at_upper = False
            elif rate < -PIVOT_TOL:
                # Basic variable i increases toward its upper bound.
                ub_i = self._ub[self._basis[i]]
                if math.isinf(ub_i):
                    continue
                t = max(ub_i - xB[i], 0.0) / (-rate)
                if t < t_best - TOL or (
                    t < t_best + TOL
                    and leave_row is not None
                    and self._basis[i] < self._basis[leave_row]
                ):
                    t_best = t
                    leave_row = i
                    leave_at_upper = True

        return t_best, leave_row, leave_at_upper


def solve_model_lp(model, iteration_limit=50000):
    """Solve the LP relaxation of a :class:`repro.solver.model.Model`.

    Integrality markers are ignored; the returned objective is in the
    model's own orientation (including the constant term).
    """
    c, A, senses, b, lower, upper = model.lp_arrays()
    result = solve_lp(c, A, senses, b, lower, upper, iteration_limit)
    if result.status is Status.OPTIMAL:
        result.objective = model.objective_value(result.x)
    return result
