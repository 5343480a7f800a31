"""PaQL query linting: likely-mistake detection against the data.

The PackageBuilder interface guides novice users through query
construction (Section 3).  Beyond syntax suggestions, a guided builder
warns about queries that are *well-formed but probably wrong*; this
module is that check.  Each warning carries a code, a message and the
offending fragment:

``empty-between``        BETWEEN bounds are inverted (never true).
``count-exceeds-data``   COUNT(*) demands more tuples than exist.
``trivial-constraint``   a global bound every package already meets
                         given the data's value range.
``all-null-column``      the query tests a column that is entirely
                         NULL in the data (WHERE can never select,
                         aggregates are always NULL).
``redundant-constraint`` duplicated/mergeable conjuncts (detected via
                         the rewriter).
``repeat-unused``        REPEAT k > 1 with a COUNT(*) ceiling of 1.

Lint never blocks evaluation — these are advisories, exactly like the
interface's suggestion panel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.paql import ast
from repro.paql.eval import eval_scalar
from repro.paql.printer import print_expr
from repro.paql.rewrite import rewrite_query


@dataclass(frozen=True)
class LintWarning:
    """One advisory finding."""

    code: str
    message: str
    fragment: str = ""

    def __str__(self):
        suffix = f": {self.fragment}" if self.fragment else ""
        return f"[{self.code}] {self.message}{suffix}"


def _numeric(node):
    if isinstance(node, ast.Literal) and isinstance(node.value, (int, float)):
        if not isinstance(node.value, bool):
            return float(node.value)
    return None


def _walk_formulas(query):
    if query.where is not None:
        yield "WHERE", query.where
    if query.such_that is not None:
        yield "SUCH THAT", query.such_that


def _check_between(query, warnings):
    for clause, formula in _walk_formulas(query):
        for node in ast.walk(formula):
            if isinstance(node, ast.Between) and not node.negated:
                low = _numeric(node.low)
                high = _numeric(node.high)
                if low is not None and high is not None and low > high:
                    warnings.append(
                        LintWarning(
                            "empty-between",
                            f"{clause} BETWEEN bounds are inverted "
                            f"({low:g} > {high:g}); the condition can "
                            "never hold",
                            print_expr(node),
                        )
                    )


def _count_requirements(formula):
    """Yield (op, value) demands on COUNT(*) from top-level conjuncts."""
    from repro.core.formula import conjunctive_leaves, normalize_formula

    try:
        normalized = normalize_formula(formula)
    except Exception:
        return
    for leaf in conjunctive_leaves(normalized):
        if not isinstance(leaf, ast.Comparison):
            continue
        left, right = leaf.left, leaf.right
        if isinstance(left, ast.Aggregate) and left.is_count_star:
            value = _numeric(right)
            if value is not None:
                yield leaf.op, value
        elif isinstance(right, ast.Aggregate) and right.is_count_star:
            value = _numeric(left)
            if value is not None:
                yield leaf.op.flip(), value


def _check_count_vs_data(query, relation, warnings):
    if query.such_that is None:
        return
    available = len(relation) * query.repeat
    for op, value in _count_requirements(query.such_that):
        if op in (ast.CmpOp.GE, ast.CmpOp.EQ) and value > available:
            warnings.append(
                LintWarning(
                    "count-exceeds-data",
                    f"the query requires at least {value:g} tuples but the "
                    f"relation supplies at most {available} "
                    f"(rows x REPEAT {query.repeat})",
                    f"COUNT(*) {op.value} {value:g}",
                )
            )
        if op is ast.CmpOp.GT and value >= available:
            warnings.append(
                LintWarning(
                    "count-exceeds-data",
                    f"the query requires more than {value:g} tuples but the "
                    f"relation supplies at most {available}",
                    f"COUNT(*) {op.value} {value:g}",
                )
            )


def _check_trivial_bounds(query, relation, warnings):
    """SUM bounds no package can violate, given the data's sign."""
    if query.such_that is None or len(relation) == 0:
        return
    from repro.core.formula import conjunctive_leaves, normalize_formula
    from repro.core.pruning import match_aggregate_comparison

    try:
        normalized = normalize_formula(query.such_that)
    except Exception:
        return
    for leaf in conjunctive_leaves(normalized):
        if not isinstance(leaf, ast.Comparison):
            continue
        aggregate, op, constant = match_aggregate_comparison(leaf)
        if aggregate is None or aggregate.func is not ast.AggFunc.SUM:
            continue
        values = []
        for rid in range(len(relation)):
            value = eval_scalar(aggregate.argument, relation[rid])
            if value is not None:
                values.append(float(value))
        if not values:
            continue
        minimum, maximum = min(values), max(values)
        total = sum(v for v in values if v > 0) * query.repeat
        negative_total = sum(v for v in values if v < 0) * query.repeat
        trivial = False
        if op in (ast.CmpOp.GE, ast.CmpOp.GT) and minimum >= 0 and constant < 0:
            trivial = True  # nonnegative data: every SUM >= 0 > constant... >= holds
        if op in (ast.CmpOp.GE, ast.CmpOp.GT) and negative_total > constant:
            trivial = True  # even the most negative selection exceeds it
        if op in (ast.CmpOp.LE, ast.CmpOp.LT) and total < constant:
            trivial = True  # even taking everything positive stays below
        if trivial:
            warnings.append(
                LintWarning(
                    "trivial-constraint",
                    "every possible package satisfies this bound given the "
                    "data's value range; it does not constrain anything",
                    print_expr(leaf),
                )
            )


def _check_all_null_columns(query, relation, warnings):
    if len(relation) == 0:
        return
    referenced = set()
    for _, formula in _walk_formulas(query):
        for node in ast.walk(formula):
            if isinstance(node, ast.ColumnRef):
                referenced.add(node.name)
    if query.objective is not None:
        for node in ast.walk(query.objective.expr):
            if isinstance(node, ast.ColumnRef):
                referenced.add(node.name)
    for column in sorted(referenced):
        if column not in relation.schema:
            continue
        if all(relation[rid][column] is None for rid in range(len(relation))):
            warnings.append(
                LintWarning(
                    "all-null-column",
                    f"column {column!r} is NULL in every row; conditions on "
                    "it are never satisfied and aggregates over it are NULL",
                    column,
                )
            )


def _check_redundancy(query, warnings):
    result = rewrite_query(query)
    interesting = {"dedup", "merge-intervals", "contradiction"}
    hits = sorted(set(result.applied) & interesting)
    if hits:
        warnings.append(
            LintWarning(
                "redundant-constraint",
                "the query contains redundant or contradictory conjuncts "
                f"(rewriter fired: {', '.join(hits)})",
            )
        )


def _check_repeat(query, warnings):
    if query.repeat <= 1 or query.such_that is None:
        return
    for op, value in _count_requirements(query.such_that):
        ceiling = None
        if op in (ast.CmpOp.LE, ast.CmpOp.EQ):
            ceiling = value
        elif op is ast.CmpOp.LT:
            ceiling = value - 1
        if ceiling is not None and ceiling <= 1:
            warnings.append(
                LintWarning(
                    "repeat-unused",
                    f"REPEAT {query.repeat} permits duplicates but the "
                    "COUNT(*) ceiling is 1, so no tuple can ever repeat",
                )
            )
            return


def lint(query, relation):
    """Lint an analyzed ``query`` against ``relation``.

    Returns:
        List of :class:`LintWarning`, empty for a clean query.
    """
    warnings = []
    _check_between(query, warnings)
    _check_count_vs_data(query, relation, warnings)
    _check_trivial_bounds(query, relation, warnings)
    _check_all_null_columns(query, relation, warnings)
    _check_redundancy(query, warnings)
    _check_repeat(query, warnings)
    return warnings
