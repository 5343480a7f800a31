"""The scalar PaQL-to-ILP translation, kept as the tests' reference.

This is the per-row, per-coefficient translator the array-native
:mod:`repro.core.translate_ilp` replaced: every aggregate argument is
evaluated one row at a time with :func:`repro.paql.eval.eval_scalar`,
every linear form is a ``{variable_index: coefficient}`` dict, and the
model is built through the dict adapters (``add_variable`` /
``add_constraint`` / ``set_objective``).  It shares only the
query-shape helpers (``_affine_of``, ``minmax_plan``,
``normalize_formula``) with the code under test — nothing that touches
a column.  The property in ``tests/test_translate_ilp.py`` asserts the
two produce identical ``lp_arrays()``.

Big-M activity sums add in variable-index order, which is the order a
row of the array translator is stored in.
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.core.formula import normalize_formula
from repro.core.translate_ilp import (
    PLAN_PREDICATES,
    ILPTranslationError,
    _affine_of,
    minmax_plan,
)
from repro.paql import ast
from repro.paql.errors import PaQLUnsupportedError
from repro.paql.eval import eval_scalar
from repro.solver.model import Model, ObjectiveSense


class ScalarTranslator:
    """Builds the reference :class:`~repro.solver.model.Model`."""

    def __init__(self, query, relation, candidate_rids, forced_ones=()):
        self._query = query
        self._relation = relation
        self._rids = list(candidate_rids)
        self._model = Model(name="reference")
        self._upper = float(query.repeat)
        self._x = [
            self._model.add_variable(
                lower=1.0 if rid in forced_ones else 0.0,
                upper=self._upper,
                integer=True,
            ).index
            for rid in self._rids
        ]
        self._support_added = set()

    def _values(self, argument):
        return [eval_scalar(argument, self._relation[rid]) for rid in self._rids]

    def _linear_of_aggregate(self, aggregate):
        if aggregate.is_count_star:
            return {x: 1.0 for x in self._x}
        values = self._values(aggregate.argument)
        if aggregate.func is ast.AggFunc.COUNT:
            return {x: 1.0 for x, v in zip(self._x, values) if v is not None}
        if aggregate.func is ast.AggFunc.SUM:
            return {
                x: float(v)
                for x, v in zip(self._x, values)
                if v is not None and v != 0
            }
        raise ILPTranslationError(f"{aggregate.func.value} has no direct linear form")

    def _require_nonnull_support(self, argument, indicator):
        coeffs = {
            x: 1.0 for x, v in zip(self._x, self._values(argument)) if v is not None
        }
        key = (frozenset(coeffs), indicator)
        if key not in self._support_added:
            self._support_added.add(key)
            self._emit(coeffs, ">=", 1.0, indicator)

    def _emit(self, coeffs, sense, rhs, indicator):
        if indicator is None:
            self._model.add_constraint(coeffs, sense, rhs)
            return
        if sense in ("<=", "="):
            big_m = max(0.0, self._activity(coeffs, lambda c: c > 0) - rhs)
            self._model.add_constraint(
                {**coeffs, indicator: big_m}, "<=", rhs + big_m
            )
        if sense in (">=", "="):
            big_m = max(0.0, rhs - self._activity(coeffs, lambda c: c < 0))
            self._model.add_constraint(
                {**coeffs, indicator: -big_m}, ">=", rhs - big_m
            )

    def _activity(self, coeffs, pulls):
        total = 0.0
        for _, coef in sorted(coeffs.items()):
            if pulls(coef):
                total += coef * self._upper
        return total

    def _encode_comparison(self, node, indicator):
        affine = _affine_of(node.left) - _affine_of(node.right)
        single = affine.single_aggregate()
        minmax = (ast.AggFunc.MIN, ast.AggFunc.MAX)
        if single is None and any(term.func in minmax for term in affine.terms):
            raise ILPTranslationError("MIN/MAX may only be compared against constants")
        if single is not None and single[0].func in minmax:
            if single[1] == 0:
                raise ILPTranslationError("degenerate MIN/MAX comparison")
            self._encode_minmax(*single, affine.constant, node.op, indicator)
            return
        if any(term.func is ast.AggFunc.AVG for term in affine.terms):
            if single is None:
                raise ILPTranslationError("AVG may only be combined with constants")
            aggregate, coef = single
            coeffs = {}
            for func, factor in (
                (ast.AggFunc.SUM, coef),
                (ast.AggFunc.COUNT, affine.constant),
            ):
                linear = self._linear_of_aggregate(
                    ast.Aggregate(func, aggregate.argument)
                )
                for x, weight in linear.items():
                    coeffs[x] = coeffs.get(x, 0.0) + factor * weight
            self._require_nonnull_support(aggregate.argument, indicator)
            self._emit_with_op(coeffs, node.op, 0.0, indicator)
            return
        self._emit_with_op(self._linearize(affine), node.op, -affine.constant, indicator)

    def _linearize(self, affine):
        coeffs = {}
        for aggregate, coef in affine.terms.items():
            for x, weight in self._linear_of_aggregate(aggregate).items():
                coeffs[x] = coeffs.get(x, 0.0) + coef * weight
        return coeffs

    def _emit_with_op(self, coeffs, op, rhs, indicator):
        senses = {ast.CmpOp.EQ: "=", ast.CmpOp.LE: "<=", ast.CmpOp.GE: ">="}
        if op in senses:
            self._emit(coeffs, senses[op], rhs, indicator)
            return
        strict = {ast.CmpOp.LT: "<=", ast.CmpOp.GT: ">="}
        if op in strict:
            bound = _strict_bound(coeffs.values(), op, rhs)
            self._emit(coeffs, strict[op], bound, indicator)
        else:
            raise ILPTranslationError(f"unexpected comparison operator {op}")

    def _encode_minmax(self, aggregate, coef, constant, op, indicator):
        threshold = -constant / coef
        if coef < 0:
            op = op.flip()
        plan = minmax_plan(aggregate.func, op)
        values = self._values(aggregate.argument)
        if plan.negate:
            values = [None if v is None else -float(v) for v in values]
            threshold = -threshold

        def select(op):
            return {
                x: 1.0
                for x, v in zip(self._x, values)
                if v is not None and PLAN_PREDICATES[op](float(v), threshold)
            }

        if plan.bad is not None:
            bad = select(plan.bad)
            if bad:
                self._emit(bad, "<=", 0.0, indicator)
        if plan.witness is not None:
            self._emit(select(plan.witness), ">=", 1.0, indicator)
        if plan.support:
            self._require_nonnull_support(aggregate.argument, indicator)

    def _encode_formula(self, node, indicator=None):
        if isinstance(node, ast.Literal):
            if node.value:
                return
            if indicator is None:
                self._model.add_constraint({}, ">=", 1.0)
            else:
                self._model.add_constraint({indicator: 1.0}, "<=", 0.0)
        elif isinstance(node, ast.And):
            for arg in node.args:
                self._encode_formula(arg, indicator)
        elif isinstance(node, ast.Or):
            branches = []
            for arg in node.args:
                z = self._model.add_binary().index
                branches.append(z)
                self._encode_formula(arg, indicator=z)
            coeffs = {z: 1.0 for z in branches}
            if indicator is None:
                self._model.add_constraint(coeffs, ">=", 1.0)
            else:
                coeffs[indicator] = -1.0
                self._model.add_constraint(coeffs, ">=", 0.0)
        else:
            self._encode_comparison(node, indicator)

    def translate(self):
        if self._query.such_that is not None:
            try:
                normalized = normalize_formula(self._query.such_that)
            except PaQLUnsupportedError as exc:
                raise ILPTranslationError(str(exc)) from exc
            self._encode_formula(normalized)
        objective = self._query.objective
        if objective is None:
            self._model.set_objective({}, ObjectiveSense.MINIMIZE)
            return self._model
        affine = _affine_of(objective.expr)
        for aggregate in affine.terms:
            if aggregate.func in (ast.AggFunc.AVG, ast.AggFunc.MIN, ast.AggFunc.MAX):
                raise ILPTranslationError(f"{aggregate.func.value} objective")
        sense = (
            ObjectiveSense.MAXIMIZE
            if objective.direction is ast.Direction.MAXIMIZE
            else ObjectiveSense.MINIMIZE
        )
        self._model.set_objective(
            self._linearize(affine), sense, constant=affine.constant
        )
        return self._model


def _strict_bound(coefs, op, rhs):
    """The nearest multiple of the coefficients' exact gcd strictly on
    ``op``'s side of ``rhs`` when it is an exact float, else ``rhs``:
    the translator's grid rule, one ``Fraction`` at a time."""
    coefs = [coef for coef in coefs if coef != 0]
    if not all(math.isfinite(coef) for coef in coefs + [rhs]):
        return rhs
    grid = Fraction(0)
    for coef in coefs:
        coef = abs(Fraction(coef))
        grid = Fraction(
            math.gcd(
                grid.numerator * coef.denominator,
                coef.numerator * grid.denominator,
            ),
            grid.denominator * coef.denominator,
        )
    grid = grid or Fraction(1)
    steps = Fraction(rhs) / grid
    step = math.ceil(steps) - 1 if op is ast.CmpOp.LT else math.floor(steps) + 1
    bound = step * grid
    try:
        return float(bound) if float(bound) == bound else rhs
    except OverflowError:
        return rhs
