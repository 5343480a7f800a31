"""PaQL query rewriting — Section 5's "Optimizing PaQL queries".

The paper lists principled package-query optimization as an open
challenge; this module implements the logical-rewrite layer of it:

* **constant folding** — arithmetic over literals, and comparisons
  between non-NULL literals, collapse to literals;
* **Boolean simplification** — flattening, TRUE/FALSE absorption,
  duplicate-conjunct elimination, double-negation removal;
* **interval merging** — conjoined bound constraints on the same
  expression (``calories >= 100 AND calories >= 200`` or
  ``SUM(P.fat) <= 50 AND SUM(P.fat) <= 30``) merge into the tightest
  single constraint, rendering as BETWEEN when both ends close;
* **contradiction detection** — an empty merged interval folds the
  conjunction to FALSE.

Soundness under SQL's three-valued logic is the subtle part and is
property-tested:

* tightening is sound everywhere (both forms are unknown exactly when
  the tested expression is NULL);
* folding a never-true conjunction to FALSE conflates *unknown* with
  *false*, which only preserves query semantics on NOT-free paths —
  so contradiction folding applies at **positive polarity** only.
  ``NOT (x >= 4 AND x <= 2)`` is *not* rewritten to ``NOT FALSE``:
  on a NULL ``x`` the original is unknown (row filtered) while the
  rewrite would select the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.paql import ast
from repro.paql.eval import EvaluationError, eval_expr


@dataclass
class RewriteResult:
    """A rewritten query plus the names of the rewrites that fired."""

    query: ast.PackageQuery
    applied: list


@dataclass(frozen=True)
class _Interval:
    """Bounds accumulated for one tested expression."""

    low: float = -math.inf
    low_strict: bool = False
    high: float = math.inf
    high_strict: bool = False

    def add(self, op, value):
        low, low_strict = self.low, self.low_strict
        high, high_strict = self.high, self.high_strict
        if op is ast.CmpOp.GE:
            if value > low or (value == low and not low_strict):
                low, low_strict = value, False
        elif op is ast.CmpOp.GT:
            if value > low or (value == low and not low_strict):
                low, low_strict = value, True
        elif op is ast.CmpOp.LE:
            if value < high or (value == high and not high_strict):
                high, high_strict = value, False
        elif op is ast.CmpOp.LT:
            if value < high or (value == high and not high_strict):
                high, high_strict = value, True
        elif op is ast.CmpOp.EQ:
            return self.add(ast.CmpOp.GE, value).add(ast.CmpOp.LE, value)
        return _Interval(low, low_strict, high, high_strict)

    @property
    def empty(self):
        if self.low > self.high:
            return True
        if self.low == self.high and (self.low_strict or self.high_strict):
            return True
        return False

    def to_constraints(self, expr):
        """Render the interval back into minimal AST conjuncts."""
        out = []
        low_finite = math.isfinite(self.low)
        high_finite = math.isfinite(self.high)
        if (
            low_finite
            and high_finite
            and not self.low_strict
            and not self.high_strict
        ):
            if self.low == self.high:
                out.append(
                    ast.Comparison(ast.CmpOp.EQ, expr, _number(self.low))
                )
            else:
                out.append(
                    ast.Between(expr, _number(self.low), _number(self.high))
                )
            return out
        if low_finite:
            op = ast.CmpOp.GT if self.low_strict else ast.CmpOp.GE
            out.append(ast.Comparison(op, expr, _number(self.low)))
        if high_finite:
            op = ast.CmpOp.LT if self.high_strict else ast.CmpOp.LE
            out.append(ast.Comparison(op, expr, _number(self.high)))
        return out


def _number(value):
    # An int stays exact: float() of one past ~1.8e308 overflows.
    if isinstance(value, float) and value.is_integer():
        return ast.Literal(int(value))
    return ast.Literal(value)


def _numeric_literal(node):
    if isinstance(node, ast.Literal) and isinstance(node.value, (int, float)):
        if not isinstance(node.value, bool):
            return float(node.value)
    return None


def _is_null_free_literal(node):
    return isinstance(node, ast.Literal) and node.value is not None


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------


def _fold(node, applied):
    """Bottom-up constant folding and Boolean simplification."""
    if isinstance(node, (ast.Literal, ast.ColumnRef)):
        return node

    if isinstance(node, ast.Aggregate):
        if node.argument is None:
            return node
        return ast.Aggregate(node.func, _fold(node.argument, applied))

    if isinstance(node, ast.UnaryMinus):
        operand = _fold(node.operand, applied)
        value = _numeric_literal(operand)
        if value is not None:
            applied.append("fold-constant")
            return _number(-value)
        return ast.UnaryMinus(operand)

    if isinstance(node, ast.BinaryOp):
        left = _fold(node.left, applied)
        right = _fold(node.right, applied)
        left_value = _numeric_literal(left)
        right_value = _numeric_literal(right)
        if left_value is not None and right_value is not None:
            try:
                result = eval_expr(ast.BinaryOp(node.op, left, right), None)
            except EvaluationError:
                return ast.BinaryOp(node.op, left, right)
            applied.append("fold-constant")
            return _number(result)
        return ast.BinaryOp(node.op, left, right)

    if isinstance(node, ast.Comparison):
        left = _fold(node.left, applied)
        right = _fold(node.right, applied)
        if _is_null_free_literal(left) and _is_null_free_literal(right):
            try:
                result = eval_expr(ast.Comparison(node.op, left, right), None)
            except EvaluationError:
                return ast.Comparison(node.op, left, right)
            if result is not None:
                applied.append("fold-comparison")
                return ast.Literal(bool(result))
        return ast.Comparison(node.op, left, right)

    if isinstance(node, ast.Between):
        expr = _fold(node.expr, applied)
        low = _fold(node.low, applied)
        high = _fold(node.high, applied)
        return ast.Between(expr, low, high, node.negated)

    if isinstance(node, ast.InList):
        return ast.InList(_fold(node.expr, applied), node.items, node.negated)

    if isinstance(node, ast.IsNull):
        expr = _fold(node.expr, applied)
        if isinstance(expr, ast.Literal):
            applied.append("fold-is-null")
            result = expr.value is None
            return ast.Literal((not result) if node.negated else result)
        return ast.IsNull(expr, node.negated)

    if isinstance(node, ast.Not):
        arg = _fold(node.arg, applied)
        if isinstance(arg, ast.Not):
            applied.append("double-negation")
            return arg.arg
        if isinstance(arg, ast.Literal) and isinstance(arg.value, bool):
            applied.append("fold-not")
            return ast.Literal(not arg.value)
        return ast.Not(arg)

    if isinstance(node, (ast.And, ast.Or)):
        conjunction = isinstance(node, ast.And)
        absorber = ast.Literal(not conjunction)  # FALSE for And, TRUE for Or
        identity = ast.Literal(conjunction)
        args = []
        for arg in node.args:
            folded = _fold(arg, applied)
            if folded == absorber:
                applied.append("absorb")
                return absorber
            if folded == identity:
                applied.append("drop-identity")
                continue
            if isinstance(folded, type(node)):
                applied.append("flatten")
                args.extend(folded.args)
            else:
                args.append(folded)
        deduped = []
        for arg in args:
            if arg in deduped:
                applied.append("dedup")
                continue
            deduped.append(arg)
        if not deduped:
            return identity
        if len(deduped) == 1:
            return deduped[0]
        return type(node)(tuple(deduped))

    return node


# ---------------------------------------------------------------------------
# Interval merging over conjunctions
# ---------------------------------------------------------------------------


def _bound_pattern(node):
    """Match ``expr <op> numeric-literal`` (either orientation) or BETWEEN.

    Returns ``(tested_expr, [(op, value), ...])`` or ``None``.
    """
    if isinstance(node, ast.Comparison):
        value = _numeric_literal(node.right)
        if value is not None and node.op is not ast.CmpOp.NE:
            return node.left, [(node.op, value)]
        value = _numeric_literal(node.left)
        if value is not None and node.op is not ast.CmpOp.NE:
            return node.right, [(node.op.flip(), value)]
        return None
    if isinstance(node, ast.Between) and not node.negated:
        low = _numeric_literal(node.low)
        high = _numeric_literal(node.high)
        if low is not None and high is not None:
            return node.expr, [(ast.CmpOp.GE, low), (ast.CmpOp.LE, high)]
    return None


def _merge_intervals(node, positive, applied):
    """Merge same-expression bound conjuncts; recurse with polarity."""
    if isinstance(node, ast.Not):
        return ast.Not(_merge_intervals(node.arg, not positive, applied))

    if isinstance(node, ast.Or):
        return ast.Or(
            tuple(_merge_intervals(arg, positive, applied) for arg in node.args)
        )

    if not isinstance(node, ast.And):
        return node

    args = [_merge_intervals(arg, positive, applied) for arg in node.args]

    intervals = {}
    order = []
    passthrough = []
    counts = {}
    for arg in args:
        match = _bound_pattern(arg)
        if match is None:
            passthrough.append(arg)
            continue
        expr, bounds = match
        if expr not in intervals:
            intervals[expr] = _Interval()
            order.append(expr)
            counts[expr] = 0
        counts[expr] += 1
        for op, value in bounds:
            intervals[expr] = intervals[expr].add(op, value)

    rebuilt = list(passthrough)
    merged_any = False
    for expr in order:
        interval = intervals[expr]
        if interval.empty:
            if positive:
                applied.append("contradiction")
                return ast.Literal(False)
            # Negative polarity: folding unknown-vs-false is unsound;
            # keep the constraints as written.
            rebuilt.extend(interval.to_constraints(expr) or [ast.Literal(False)])
            continue
        constraints = interval.to_constraints(expr)
        if counts[expr] > 1 or (
            counts[expr] == 1 and len(constraints) < counts[expr]
        ):
            merged_any = merged_any or counts[expr] > 1
        rebuilt.extend(constraints)
    if merged_any:
        applied.append("merge-intervals")

    if not rebuilt:
        return ast.Literal(True)
    if len(rebuilt) == 1:
        return rebuilt[0]
    return ast.And(tuple(rebuilt))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def rewrite_expr(node, positive=True):
    """Rewrite one Boolean formula; returns ``(formula, applied)``."""
    applied = []
    folded = _fold(node, applied)
    merged = _merge_intervals(folded, positive, applied)
    # Interval merging can expose new folding opportunities.
    final = _fold(merged, applied)
    return final, applied


def rewrite_query(query):
    """Apply all rewrites to a query's WHERE, SUCH THAT and objective.

    Works on raw-parsed or analyzed queries; returns a
    :class:`RewriteResult` whose ``query`` is semantically equivalent
    to the input (property-tested under three-valued logic).
    """
    applied = []
    where = query.where
    if where is not None:
        where, names = rewrite_expr(where)
        applied.extend(names)

    such_that = query.such_that
    if such_that is not None:
        such_that, names = rewrite_expr(such_that)
        applied.extend(names)

    objective = query.objective
    if objective is not None:
        folded = _fold(objective.expr, applied)
        objective = ast.Objective(objective.direction, folded)

    rewritten = replace(
        query, where=where, such_that=such_that, objective=objective
    )
    return RewriteResult(rewritten, applied)
