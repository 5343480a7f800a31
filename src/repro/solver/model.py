"""Mixed-integer linear program model builder.

The PaQL-to-ILP translator (:mod:`repro.core.translate_ilp`) builds one
:class:`Model` per package query: a binary/integer variable per
candidate tuple (its multiplicity in the package), one linear
constraint per global constraint (plus indicator machinery for
disjunctions), and the objective.  The model is backend-independent;
:mod:`repro.solver.branch_and_bound` and
:mod:`repro.solver.scipy_backend` both consume it.

Storage is array-native, because a package model has thousands of
variables and a handful of rows: variable bounds and integrality live
in three growable numpy arrays (:meth:`Model.add_variables` appends a
block), and each constraint row — like the objective — is one
``(indices, values)`` array pair with strictly increasing indices and
no zero entries (:meth:`Model.add_row`).  Nothing holds a Python
object per variable or per coefficient.  :class:`Variable` handles,
``{variable_or_index: coefficient}`` dicts, :attr:`Constraint.coeffs`
and :attr:`Model.variables` are thin adapters over that one storage,
kept for the few single-variable callers (indicators, pins, cuts) and
for tests.

Sums that decide something (feasibility, objective values, presolve
activities, big-M slacks) go through :func:`sequential_sum`, which
adds left to right exactly like the scalar loops the arrays replaced,
so vectorising changed no bound, no pivot and no package.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.solver.status import Status


class ModelError(Exception):
    """Raised for malformed model construction (bad bounds, unknown vars)."""


class ConstraintSense(enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "="


class ObjectiveSense(enum.Enum):
    MINIMIZE = "min"
    MAXIMIZE = "max"


def sequential_sum(terms, start=0.0):
    """``start + terms[0] + terms[1] + ...``, added strictly left to right.

    ``np.sum`` adds pairwise, which differs from a scalar accumulation
    loop in the last bits; ``np.cumsum`` does not.
    """
    if len(terms) == 0:
        return float(start)
    if start != 0.0:
        terms = np.concatenate(([start], terms))
    return float(np.cumsum(terms)[-1])


@dataclass(frozen=True)
class Variable:
    """A handle on one decision variable, as it was when added.

    ``index`` addresses it in coefficient dicts, index arrays and
    solution vectors.
    """

    index: int
    name: str
    lower: float
    upper: float
    is_integer: bool


@dataclass(frozen=True, eq=False)
class Constraint:
    """``sum(values[k] * x[indices[k]]) <sense> rhs``.

    ``indices`` is strictly increasing and ``values`` has no zeros.
    """

    indices: np.ndarray
    values: np.ndarray
    sense: ConstraintSense
    rhs: float
    name: str

    @property
    def coeffs(self):
        """The row as a ``{index: coefficient}`` dict (built on demand)."""
        return dict(zip(self.indices.tolist(), self.values.tolist()))


@dataclass
class Solution:
    """Result of solving a model.

    Attributes:
        status: a :class:`~repro.solver.status.Status`.
        x: numpy array of variable values (empty when no solution).
        objective: objective value including the model's constant term
            (``nan`` when no solution).
        iterations: total simplex iterations across all LP solves.
        nodes: branch-and-bound nodes processed (0 for pure LPs).
    """

    status: Status
    x: np.ndarray = field(default_factory=lambda: np.array([]))
    objective: float = math.nan
    iterations: int = 0
    nodes: int = 0

    def value_of(self, variable):
        """Value of ``variable`` (a :class:`Variable` or an index)."""
        index = variable.index if isinstance(variable, Variable) else variable
        return float(self.x[index])


def _dict_row(coeffs):
    """A ``{variable_or_index: coef}`` dict as ``(indices, values)`` lists."""
    indices = [
        key.index if isinstance(key, Variable) else int(key) for key in coeffs
    ]
    return indices, [float(value) for value in coeffs.values()]


class Model:
    """An editable MILP: variables, linear constraints, one objective."""

    def __init__(self, name="model"):
        self.name = name
        self._count = 0
        # Capacity arrays; the first ``_count`` entries are live.
        self._lower = np.empty(0, dtype=np.float64)
        self._upper = np.empty(0, dtype=np.float64)
        self._integer = np.empty(0, dtype=bool)
        self._names = {}  # explicit names only; the rest are x<index>
        self._constraints = []
        self._objective = (np.empty(0, dtype=np.intp), np.empty(0))
        self._objective_constant = 0.0
        self._objective_sense = ObjectiveSense.MINIMIZE

    def __getstate__(self):
        # Persist the live prefix, not the spare capacity.
        state = self.__dict__.copy()
        for attribute in ("_lower", "_upper", "_integer"):
            state[attribute] = state[attribute][: self._count]
        return state

    # -- building -----------------------------------------------------------

    def add_variables(self, count, lower=0.0, upper=math.inf, integer=False):
        """Append a block of ``count`` variables; returns their indices.

        ``lower``, ``upper`` and ``integer`` are scalars or arrays of
        length ``count``.

        Raises:
            ModelError: if some ``lower > upper`` or some ``lower`` is
                not finite (the simplex implementation requires finite
                lower bounds; every PaQL-generated variable has
                ``lower`` 0 or 1).
        """
        lower = np.broadcast_to(np.asarray(lower, dtype=np.float64), (count,))
        upper = np.broadcast_to(np.asarray(upper, dtype=np.float64), (count,))
        start = self._count
        crossed = lower > upper
        if crossed.any():
            first = int(np.argmax(crossed))
            raise ModelError(
                f"variable {start + first}: lower bound {lower[first]} "
                f"exceeds upper bound {upper[first]}"
            )
        infinite = ~np.isfinite(lower)
        if infinite.any():
            first = int(np.argmax(infinite))
            raise ModelError(
                "variables need a finite lower bound (got "
                f"{lower[first]} for variable {start + first}); shift the "
                "variable if necessary"
            )
        stop = start + count
        if stop > len(self._lower):
            capacity = max(stop, 2 * len(self._lower))
            for attribute in ("_lower", "_upper", "_integer"):
                old = getattr(self, attribute)
                grown = np.empty(capacity, dtype=old.dtype)
                grown[:start] = old[:start]
                setattr(self, attribute, grown)
        self._lower[start:stop] = lower
        self._upper[start:stop] = upper
        self._integer[start:stop] = integer
        self._count = stop
        return np.arange(start, stop, dtype=np.intp)

    def add_variable(self, name=None, lower=0.0, upper=math.inf, integer=False):
        """Add one variable and return its :class:`Variable` handle.

        Raises:
            ModelError: as :meth:`add_variables`.
        """
        index = int(self.add_variables(1, lower, upper, integer)[0])
        if name:
            self._names[index] = name
        return self._handle(index)

    def add_binary(self, name=None):
        """Add a 0/1 integer variable (indicator)."""
        return self.add_variable(name=name, lower=0.0, upper=1.0, integer=True)

    def _handle(self, index):
        return Variable(
            index=index,
            name=self._names.get(index, f"x{index}"),
            lower=float(self._lower[index]),
            upper=float(self._upper[index]),
            is_integer=bool(self._integer[index]),
        )

    def _row(self, indices, values, what):
        """Canonical ``(indices, values)``: range-checked, finite,
        strictly increasing (duplicates summed), zeros dropped, never
        aliasing the caller's arrays."""
        indices = np.asarray(indices, dtype=np.intp)
        values = np.asarray(values, dtype=np.float64)
        if indices.ndim != 1 or indices.shape != values.shape:
            raise ModelError(f"{what}: indices and values must be equal-length vectors")
        if len(indices) and (indices.min() < 0 or indices.max() >= self._count):
            bad = indices[(indices < 0) | (indices >= self._count)][0]
            raise ModelError(f"{what} references unknown variable {int(bad)}")
        if not np.all(indices[1:] > indices[:-1]):
            order = np.argsort(indices, kind="stable")
            indices, first = np.unique(indices[order], return_index=True)
            values = np.add.reduceat(values[order], first)
        finite = np.isfinite(values)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ModelError(
                f"non-finite coefficient {values[k]} on variable {indices[k]}"
            )
        keep = values != 0.0
        return indices[keep], values[keep]

    def add_row(self, indices, values, sense, rhs, name=None):
        """Add ``sum(values[k] * x[indices[k]]) <sense> rhs``.

        The array form of :meth:`add_constraint`: O(nonzeros), no
        per-coefficient object.  Zero coefficients are dropped and
        repeated indices summed.

        Raises:
            ModelError: on an index outside the model, a non-finite
                coefficient or a non-finite right-hand side.
        """
        indices, values = self._row(indices, values, "constraint")
        if not math.isfinite(rhs):
            raise ModelError(f"non-finite right-hand side {rhs}")
        constraint = Constraint(
            indices=indices,
            values=values,
            sense=ConstraintSense(sense),
            rhs=float(rhs),
            name=name or f"c{len(self._constraints)}",
        )
        self._constraints.append(constraint)
        return constraint

    def add_constraint(self, coeffs, sense, rhs, name=None):
        """Add ``sum(coeffs[j] * x_j) <sense> rhs``.

        ``coeffs`` maps variable handles or indices to coefficients —
        the dict adapter over :meth:`add_row` for rows of a few
        entries.
        """
        return self.add_row(*_dict_row(coeffs), sense, rhs, name)

    def set_objective_row(
        self, indices, values, sense=ObjectiveSense.MINIMIZE, constant=0.0
    ):
        """Set the (single) linear objective from an array pair.

        Raises:
            ModelError: on an index outside the model or a non-finite
                coefficient, as :meth:`add_row` does.
        """
        self._objective = self._row(indices, values, "objective")
        self._objective_constant = float(constant)
        self._objective_sense = ObjectiveSense(sense)

    def set_objective(self, coeffs, sense=ObjectiveSense.MINIMIZE, constant=0.0):
        """Set the objective from a ``{variable_or_index: coef}`` dict."""
        self.set_objective_row(*_dict_row(coeffs), sense, constant)

    # -- inspection --------------------------------------------------------

    @property
    def lower(self):
        """Lower bounds, one per variable (read-only view)."""
        return self._view(self._lower)

    @property
    def upper(self):
        """Upper bounds, one per variable (read-only view)."""
        return self._view(self._upper)

    @property
    def is_integer(self):
        """Integrality mask, one flag per variable (read-only view)."""
        return self._view(self._integer)

    def _view(self, storage):
        view = storage[: self._count]
        view.flags.writeable = False
        return view

    @property
    def variables(self):
        """A :class:`Variable` handle per variable (built on demand)."""
        return tuple(self._handle(index) for index in range(self._count))

    @property
    def constraints(self):
        return tuple(self._constraints)

    @property
    def objective_sense(self):
        return self._objective_sense

    @property
    def objective_constant(self):
        return self._objective_constant

    @property
    def num_variables(self):
        return self._count

    @property
    def num_constraints(self):
        return len(self._constraints)

    def integer_indices(self):
        """Indices of integer-constrained variables, ascending."""
        return np.flatnonzero(self.is_integer)

    # -- matrix export -----------------------------------------------------

    def lp_arrays(self):
        """Export dense arrays for the LP relaxation.

        Returns:
            Tuple ``(c, A, senses, b, lower, upper)`` where the
            objective is always in *minimize* orientation (``c`` is
            negated for MAXIMIZE models; callers flip the optimum back
            via :meth:`objective_value`).  Every array is a fresh copy.
        """
        n = self._count
        c = np.zeros(n)
        indices, values = self._objective
        c[indices] = values
        if self._objective_sense is ObjectiveSense.MAXIMIZE:
            c = -c
        A = np.zeros((len(self._constraints), n))
        for i, constraint in enumerate(self._constraints):
            A[i, constraint.indices] = constraint.values
        b = np.array([constraint.rhs for constraint in self._constraints])
        senses = [constraint.sense for constraint in self._constraints]
        # The simplex's tolerances are absolute, so on a row of 1e10
        # coefficients they fall below an ulp of its slack.  A row whose
        # largest |coefficient| lies outside [2^-20, 2^20] is divided by
        # the power of two nearest it, which keeps the LP exact.  Only
        # those rows: scaling every row cost the vacation planner 4x the
        # nodes and 3x the iterations.
        peak = np.abs(A).max(axis=1, initial=0.0)
        extreme = (peak > 0) & ((peak < 2.0**-20) | (peak > 2.0**20)) & np.isfinite(peak)
        scale = np.exp2(np.round(np.log2(peak[extreme])))
        A[extreme] /= scale[:, None]
        b[extreme] /= scale
        return c, A, senses, b, self.lower.copy(), self.upper.copy()

    def objective_value(self, x):
        """Objective of point ``x`` in the model's own orientation."""
        indices, values = self._objective
        # A non-finite coefficient on a zero entry is nan, as it was in
        # the scalar loop; it needs no warning on top.
        with np.errstate(invalid="ignore"):
            terms = values * np.asarray(x, dtype=np.float64)[indices]
        return sequential_sum(terms, self._objective_constant)

    def is_feasible(self, x, tol=1e-6):
        """Check ``x`` against bounds, constraints and integrality."""
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < self.lower - tol) or np.any(x > self.upper + tol):
            return False
        integral = x[self.is_integer]
        if np.any(np.abs(integral - np.rint(integral)) > tol):
            return False
        for constraint in self._constraints:
            total = sequential_sum(constraint.values * x[constraint.indices])
            if constraint.sense is ConstraintSense.LE and total > constraint.rhs + tol:
                return False
            if constraint.sense is ConstraintSense.GE and total < constraint.rhs - tol:
                return False
            if (
                constraint.sense is ConstraintSense.EQ
                and abs(total - constraint.rhs) > tol
            ):
                return False
        return True

    def __repr__(self):
        return (
            f"Model({self.name!r}, {self.num_variables} vars "
            f"({int(np.count_nonzero(self.is_integer))} integer), "
            f"{self.num_constraints} constraints)"
        )
