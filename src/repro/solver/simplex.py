"""Two-phase primal simplex with bounded variables.

This is the LP engine underneath the branch-and-bound MILP solver.  It
solves::

    minimize    c' x
    subject to  A x {<=, =, >=} b
                lower <= x <= upper        (lower finite, upper may be inf)

The implementation is a dense revised simplex specialized for the LPs
that package queries generate: *few rows* (one per global constraint
plus indicator rows) and *many columns* (one per candidate tuple).  The
basis is therefore tiny and is refactorized exactly (``np.linalg.inv``)
at every iteration, trading a little arithmetic for numerical
robustness — there is no accumulated-update drift to manage.

Upper bounds are handled natively (nonbasic variables rest at either
bound; the ratio test includes bound flips), so branch-and-bound's
bound tightening never adds rows.

Anti-cycling: Dantzig pricing normally, switching to Bland's rule after
a stall threshold; ties in the ratio test break toward the smallest
variable index.
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


@dataclass
class LPResult:
    """Outcome of one LP solve."""

    status: Status
    x: np.ndarray = field(default_factory=lambda: np.array([]))
    objective: float = math.nan
    iterations: int = 0


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
    c = np.asarray(c, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)

    m, n = A.shape if A.size else (len(b), len(c))
    if len(c) != n or len(lower) != n or len(upper) != n or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    if not np.all(np.isfinite(lower)):
        raise ValueError("simplex requires finite lower bounds")
    if np.any(lower > upper + TOL):
        return LPResult(Status.INFEASIBLE)

    if m == 0:
        return _solve_unconstrained(c, lower, upper)

    solver = _BoundedSimplex(c, A, senses, b, lower, upper, iteration_limit)
    return solver.solve()


def _solve_unconstrained(c, lower, upper):
    """Bound-only LP: each variable sits at whichever bound its cost likes."""
    x = np.where(c < -TOL, upper, lower)
    if np.isinf(x).any():
        return LPResult(Status.UNBOUNDED)
    return LPResult(Status.OPTIMAL, x=x, objective=float(c @ x))


class _BoundedSimplex:
    """Internal engine; one instance per solve."""

    def __init__(self, c, A, senses, b, lower, upper, iteration_limit):
        m, n = A.shape
        self._n_struct = n
        self._m = m
        self._iteration_limit = iteration_limit
        self._iterations = 0
        self._c_user = c

        # Build the equality form [A | S] z = b with slack columns:
        # LE rows get +s (s >= 0), GE rows get -s (s >= 0), EQ rows none.
        slack_cols = []
        slack_rows = []
        for i, sense in enumerate(senses):
            if sense is ConstraintSense.LE:
                slack_cols.append(1.0)
                slack_rows.append(i)
            elif sense is ConstraintSense.GE:
                slack_cols.append(-1.0)
                slack_rows.append(i)
        n_slack = len(slack_cols)
        full = np.zeros((m, n + n_slack))
        full[:, :n] = A
        for k, (coef, row) in enumerate(zip(slack_cols, slack_rows)):
            full[row, n + k] = coef

        lz = np.concatenate([lower, np.zeros(n_slack)])
        uz = np.concatenate([upper, np.full(n_slack, math.inf)])

        # Shift all variables to lower bound zero.
        b_shift = b - full @ lz
        self._ub = uz - lz
        self._lz = lz

        # Flip rows so the shifted RHS is nonnegative (artificial basis
        # feasibility).
        flip = b_shift < 0
        full[flip] *= -1.0
        b_shift[flip] *= -1.0

        # Append artificial columns (identity).
        self._n_real = n + n_slack
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
        if infeasibility > 1e-7:
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
            Status.OPTIMAL, x=x, objective=objective, iterations=self._iterations
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
        bland_threshold = 3 * (self._n_total + self._m) + 200
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
