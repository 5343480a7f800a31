"""Optional MILP backend using scipy's HiGHS bindings.

Serves two purposes:

* a cross-check for the from-scratch simplex + branch-and-bound
  implementation (benchmark E4 and the solver test suite compare the
  two on identical models);
* a faster drop-in for users who have scipy installed.

The import is guarded; :func:`available` reports whether the backend
can be used in this environment.
"""

from __future__ import annotations

import math

import numpy as np

from repro.solver.model import ConstraintSense, ObjectiveSense, Solution
from repro.solver.status import Status

try:  # pragma: no cover - exercised implicitly by the test suite
    from scipy.optimize import Bounds, LinearConstraint, milp

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    _HAVE_SCIPY = False


def available():
    """True when scipy's MILP solver can be used."""
    return _HAVE_SCIPY


def solve_milp_scipy(model):
    """Solve ``model`` with ``scipy.optimize.milp`` (HiGHS).

    Returns:
        :class:`repro.solver.model.Solution` mirroring the from-scratch
        backend's result shape.

    Raises:
        RuntimeError: when scipy is not installed.
    """
    if not _HAVE_SCIPY:
        raise RuntimeError(
            "scipy is not available; install scipy or use the built-in solver"
        )

    c, A, senses, b, lower, upper = model.lp_arrays()
    n = model.num_variables

    if n == 0:
        # HiGHS rejects empty models; a variable-free model (every
        # candidate reduced away) is just a constraint check at zero
        # activity: the empty package either satisfies every row or
        # the model is infeasible.
        feasible = all(
            (sense is ConstraintSense.LE and 0.0 <= rhs + 1e-9)
            or (sense is ConstraintSense.GE and 0.0 >= rhs - 1e-9)
            or (sense is ConstraintSense.EQ and abs(rhs) <= 1e-9)
            for sense, rhs in zip(senses, b)
        )
        if feasible:
            empty = np.zeros(0)
            return Solution(
                Status.OPTIMAL, x=empty, objective=model.objective_value(empty)
            )
        return Solution(Status.INFEASIBLE)

    constraint_list = []
    if model.num_constraints:
        lb_rows = np.full(len(b), -np.inf)
        ub_rows = np.full(len(b), np.inf)
        for i, sense in enumerate(senses):
            if sense is ConstraintSense.LE:
                ub_rows[i] = b[i]
            elif sense is ConstraintSense.GE:
                lb_rows[i] = b[i]
            else:
                lb_rows[i] = ub_rows[i] = b[i]
        constraint_list.append(LinearConstraint(A, lb_rows, ub_rows))

    integer = model.is_integer
    result = milp(
        c=c,
        constraints=constraint_list,
        integrality=integer.astype(np.float64),
        bounds=Bounds(lower, upper),
    )

    # HiGHS status codes: 0 optimal, 2 infeasible, 3 unbounded.
    if result.status == 0 and result.x is not None:
        x = np.asarray(result.x, dtype=np.float64)
        x[integer] = np.rint(x[integer])
        return Solution(
            Status.OPTIMAL,
            x=x,
            objective=model.objective_value(x),
            nodes=int(getattr(result, "mip_node_count", 0) or 0),
        )
    if result.status == 2:
        return Solution(Status.INFEASIBLE)
    if result.status == 3:
        return Solution(Status.UNBOUNDED)
    return Solution(Status.LIMIT)
