"""Presolve: bound tightening for MILP models.

Classic activity-based tightening: for each constraint
``sum(a_j x_j) <= b``, the minimum activity of all *other* terms
implies an upper bound on each ``x_j`` with ``a_j > 0`` (and a lower
bound when ``a_j < 0``); ``>=`` rows mirror this, equalities do both.
Integer variables round their tightened bounds inward.  Passes repeat
until a fixpoint (or a pass limit).

Benefits for package ILPs: MIN/MAX set encodings produce many
``sum(x_bad) <= 0`` rows, which presolve converts into outright
variable fixings (``ub = 0``), shrinking the effective problem before
branch and bound starts.  The effect is measured in benchmark E4's
ablation.
"""

from __future__ import annotations

import numpy as np

from repro.solver.model import ConstraintSense, sequential_sum


class PresolveResult:
    """Outcome of presolving: tightened bounds (or an infeasibility proof).

    Attributes:
        lower, upper: tightened bound arrays (same shape as input).
        infeasible: True when some variable's bounds crossed.
        fixed: number of variables with ``lower == upper`` after
            tightening that were not fixed before.
        rounds: tightening passes executed.
    """

    def __init__(self, lower, upper, infeasible, fixed, rounds):
        self.lower = lower
        self.upper = upper
        self.infeasible = infeasible
        self.fixed = fixed
        self.rounds = rounds


class FixedElimination:
    """Substitution of zero-width variables out of the LP arrays.

    Presolve's bound tightening turns many package-ILP variables into
    outright fixings (``lower == upper`` — the MIN/MAX "bad" sets, the
    reducer's forced tuples under ``REPEAT 1``).  Carrying them through
    branch and bound costs every node a column of pricing and every
    activity round a term; substituting them out once shrinks the
    arrays instead.  :meth:`restore` scatters a reduced solution back
    to full length (the permutation the solver reports through).

    Attributes:
        c, A, senses, b, lower, upper: the reduced LP arrays.
        integer_indices: integer positions in *reduced* coordinates
            (an index array).
        keep: original indices of the surviving variables.
        infeasible: an empty row's residual test failed — the fixings
            alone violate a constraint.
        eliminated: how many variables were substituted out.
    """

    def __init__(self, c, A, senses, b, lower, upper, integer_indices, tol=1e-9):
        fixed = (upper - lower) <= tol
        self.keep = np.flatnonzero(~fixed)
        self.eliminated = int(np.count_nonzero(fixed))
        self._values = np.where(fixed, (lower + upper) / 2.0, 0.0)
        self._length = len(lower)
        self.infeasible = False

        #: Objective mass of the eliminated variables: reduced-space
        #: objective values differ from the model's by exactly this,
        #: and anything *relative* (gap tolerances) must add it back.
        self.objective_offset = float(c[fixed] @ self._values[fixed])
        self.c = c[self.keep]
        self.lower = lower[self.keep]
        self.upper = upper[self.keep]
        reduced_a = A[:, self.keep]
        residual = b - A[:, fixed] @ self._values[fixed]

        # Rows left empty by the substitution become pure residual
        # tests: verify and drop them (a zero row would make the
        # simplex carry dead weight through every node).
        live_rows = []
        for row, (sense, rhs) in enumerate(zip(senses, residual)):
            if np.any(reduced_a[row]):
                live_rows.append(row)
                continue
            if sense is ConstraintSense.LE and 0.0 > rhs + 1e-7:
                self.infeasible = True
            elif sense is ConstraintSense.GE and 0.0 < rhs - 1e-7:
                self.infeasible = True
            elif sense is ConstraintSense.EQ and abs(rhs) > 1e-7:
                self.infeasible = True
        self.A = reduced_a[live_rows]
        self.b = residual[live_rows]
        self.senses = [senses[row] for row in live_rows]

        integer = np.zeros(self._length, dtype=bool)
        integer[np.asarray(integer_indices, dtype=np.intp)] = True
        self.integer_indices = np.flatnonzero(integer[self.keep])

    def restore(self, x):
        """Scatter a reduced solution back to full variable order."""
        full = self._values.copy()
        full[self.keep] = x
        return full

    def project(self, x):
        """A full-length point's reduced coordinates, or ``None`` when
        it contradicts the fixings (stale warm starts are dropped,
        never trusted)."""
        full = np.asarray(x, dtype=np.float64)
        fixed_mask = np.ones(self._length, dtype=bool)
        fixed_mask[self.keep] = False
        if np.any(np.abs(full[fixed_mask] - self._values[fixed_mask]) > 1e-6):
            return None
        return full[self.keep]


def eliminate_fixed(c, A, senses, b, lower, upper, integer_indices, tol=1e-9):
    """Build a :class:`FixedElimination`, or ``None`` when nothing is
    fixed (the arrays pass through untouched)."""
    if not np.any((upper - lower) <= tol):
        return None
    return FixedElimination(c, A, senses, b, lower, upper, integer_indices, tol)


def tighten_bounds(model, max_rounds=10, tol=1e-9):
    """Tighten the model's variable bounds from its constraints.

    The model itself is not modified; the returned
    :class:`PresolveResult` carries the new bound arrays for the
    branch-and-bound root.

    Each row is one vector step over its columns: the per-term minimum
    contributions are read once, before any bound moves, and a row
    never holds a column twice, so tightening all of a row's columns
    at once equals tightening them one by one.  Rows stay sequential —
    a row sees the bounds the previous row tightened.
    """
    lower = model.lower.copy()
    upper = model.upper.copy()
    initially_fixed = int(np.sum(upper - lower <= tol))

    # Every row as ``a'x <= b``, with what does not change between
    # rounds precomputed: coefficient signs and column integrality.
    rows = []
    for constraint in model.constraints:
        indices, values = constraint.indices, constraint.values
        signed = []
        if constraint.sense in (ConstraintSense.LE, ConstraintSense.EQ):
            signed.append((values, constraint.rhs))
        if constraint.sense in (ConstraintSense.GE, ConstraintSense.EQ):
            # a'x >= b  <=>  (-a)'x <= -b
            signed.append((-values, -constraint.rhs))
        integer = model.is_integer[indices]
        for values, rhs in signed:
            rows.append((indices, values, rhs, values > 0, integer))

    rounds = 0
    changed = True
    # Scalar float arithmetic overflowed silently; so does this.
    with np.errstate(over="ignore", invalid="ignore"):
        while changed and rounds < max_rounds:
            changed = False
            rounds += 1
            for indices, values, rhs, positive, integer in rows:
                # Per-term minimum contributions; count infinities so
                # the residual (activity minus one term) is well-defined.
                term_lows = values * np.where(
                    positive, lower[indices], upper[indices]
                )
                infinite = np.isinf(term_lows)
                infinite_terms = int(np.count_nonzero(infinite))
                finite_sum = sequential_sum(np.where(infinite, 0.0, term_lows))
                if infinite_terms == 0 and finite_sum > rhs + 1e-7:
                    return PresolveResult(lower, upper, True, 0, rounds)
                if infinite_terms > 1:
                    continue  # every residual is -inf: no bound derivable
                if infinite_terms == 1:
                    # Only the infinite term's own residual is finite.
                    slack = np.where(infinite, rhs - finite_sum, np.nan)
                else:
                    slack = rhs - (finite_sum - term_lows)
                bound = slack / values
                # Tiny (subnormal) coefficients overflow the quotient
                # to inf; an infinite bound tightens nothing, so it is
                # dropped instead of floor()-ed.
                usable = np.isfinite(bound)
                inward = np.where(
                    positive, np.floor(bound + tol), np.ceil(bound - tol)
                )
                bound = np.where(integer, inward, bound)
                cut_upper = usable & positive & (bound < upper[indices] - tol)
                cut_lower = usable & ~positive & (bound > lower[indices] + tol)
                if cut_upper.any():
                    upper[indices[cut_upper]] = bound[cut_upper]
                    changed = True
                if cut_lower.any():
                    lower[indices[cut_lower]] = bound[cut_lower]
                    changed = True
            if np.any(lower > upper + 1e-7):
                return PresolveResult(lower, upper, True, 0, rounds)

    fixed = int(np.sum(upper - lower <= tol)) - initially_fixed
    return PresolveResult(lower, upper, False, max(0, fixed), rounds)
