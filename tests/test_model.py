"""Tests for the MILP model builder."""

import math

import numpy as np
import pytest

from repro.solver import (
    ConstraintSense,
    Model,
    ModelError,
    ObjectiveSense,
)


class TestVariables:
    def test_add_variable_defaults(self):
        model = Model()
        x = model.add_variable()
        assert x.lower == 0.0
        assert math.isinf(x.upper)
        assert not x.is_integer
        assert x.index == 0

    def test_names_autogenerate(self):
        model = Model()
        assert model.add_variable().name == "x0"
        assert model.add_variable("foo").name == "foo"

    def test_add_binary(self):
        model = Model()
        z = model.add_binary("z")
        assert (z.lower, z.upper, z.is_integer) == (0.0, 1.0, True)

    def test_crossed_bounds_rejected(self):
        model = Model()
        with pytest.raises(ModelError, match="exceeds"):
            model.add_variable(lower=2, upper=1)

    def test_infinite_lower_bound_rejected(self):
        model = Model()
        with pytest.raises(ModelError, match="finite lower"):
            model.add_variable(lower=-math.inf)

    def test_integer_indices(self):
        model = Model()
        model.add_variable()
        z = model.add_binary()
        assert model.integer_indices().tolist() == [z.index]


class TestConstraints:
    def test_coefficients_by_handle_and_index(self):
        model = Model()
        x = model.add_variable()
        y = model.add_variable()
        constraint = model.add_constraint({x: 1.0, y.index: 2.0}, "<=", 5)
        assert constraint.coeffs == {0: 1.0, 1: 2.0}
        assert constraint.sense is ConstraintSense.LE

    def test_duplicate_keys_merge(self):
        model = Model()
        x = model.add_variable()
        constraint = model.add_constraint({x: 1.0, x.index: 2.0}, "=", 0)
        assert constraint.coeffs == {0: 3.0}

    def test_zero_coefficients_dropped(self):
        model = Model()
        x = model.add_variable()
        y = model.add_variable()
        constraint = model.add_constraint({x: 0.0, y: 1.0}, ">=", 1)
        assert constraint.coeffs == {1: 1.0}

    def test_unknown_variable_rejected(self):
        model = Model()
        with pytest.raises(ModelError, match="unknown variable"):
            model.add_constraint({7: 1.0}, "<=", 1)

    def test_non_finite_rejected(self):
        model = Model()
        x = model.add_variable()
        with pytest.raises(ModelError):
            model.add_constraint({x: math.inf}, "<=", 1)
        with pytest.raises(ModelError):
            model.add_constraint({x: 1.0}, "<=", math.nan)

    def test_non_finite_objective_rejected(self):
        # MAXIMIZE inf * x0 s.t. x0 <= 1 once reached the knapsack fast
        # path, whose backtracking then spun on inf - inf forever.
        model = Model()
        x = model.add_binary()
        model.add_constraint({x: 1.0}, "<=", 1)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ModelError, match="non-finite"):
                model.set_objective({x: bad}, ObjectiveSense.MAXIMIZE)


class TestObjectiveAndExport:
    def test_lp_arrays_shapes(self):
        model = Model()
        x = model.add_variable(upper=4)
        y = model.add_variable(upper=6)
        model.add_constraint({x: 1, y: 2}, "<=", 10)
        model.set_objective({x: 3, y: 5}, ObjectiveSense.MAXIMIZE)
        c, A, senses, b, lower, upper = model.lp_arrays()
        assert c.tolist() == [-3.0, -5.0]  # negated for maximize
        assert A.tolist() == [[1.0, 2.0]]
        assert b.tolist() == [10.0]
        assert lower.tolist() == [0.0, 0.0]
        assert upper.tolist() == [4.0, 6.0]

    def test_objective_value_includes_constant(self):
        model = Model()
        x = model.add_variable()
        model.set_objective({x: 2}, ObjectiveSense.MINIMIZE, constant=7)
        assert model.objective_value([3.0]) == 13.0

    def test_is_feasible(self):
        model = Model()
        x = model.add_variable(upper=5, integer=True)
        model.add_constraint({x: 1}, ">=", 2)
        assert model.is_feasible(np.array([3.0]))
        assert not model.is_feasible(np.array([1.0]))   # constraint
        assert not model.is_feasible(np.array([6.0]))   # bound
        assert not model.is_feasible(np.array([2.5]))   # integrality

    def test_is_feasible_eq(self):
        model = Model()
        x = model.add_variable()
        model.add_constraint({x: 2}, "=", 4)
        assert model.is_feasible(np.array([2.0]))
        assert not model.is_feasible(np.array([2.1]))

    def test_repr_mentions_counts(self):
        model = Model("m")
        model.add_binary()
        model.add_constraint({0: 1}, "<=", 1)
        text = repr(model)
        assert "1 vars" in text and "1 constraints" in text
