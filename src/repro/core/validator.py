"""Package validation: the ground-truth oracle.

Every evaluation strategy in this library — brute force, local search,
ILP, partition — returns packages that are re-checked here before
being handed to the user.  Tests, paqlbench and
:func:`repro.core.report.explain` use the same oracle, so a bug in a
strategy cannot silently leak an invalid package.

Global-constraint checks allow a tiny *accepting* relative tolerance
(:data:`DEFAULT_TOLERANCE`) on non-strict comparisons.  Solvers work
within feasibility tolerances, so an ILP optimum can sit on a
constraint boundary up to float noise — e.g. a package summing to
``5.8 + 13.6 + 8.2 = 27.599999999999998`` against a bound of
``27.6``.  Rejecting that as "invalid" would turn rounding into an
:class:`~repro.core.result.EngineError`; the oracle exists to catch
strategy bugs, not 1e-15 arithmetic noise.  The tolerance only ever
accepts more packages (strict comparisons and negations stay exact),
so no truly-satisfying package is ever rejected because of it.

:func:`check_global` also judges every ILP package as it is solved
(:func:`repro.core.strategies.base.solve_model`), so the translator
writes a strict comparison with no margin of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.paql import ast
from repro.paql.eval import eval_expr
from repro.core.vectorize import where_positions

#: Relative slack allowed on non-strict global-constraint comparisons.
DEFAULT_TOLERANCE = 1e-9


@dataclass
class ValidationReport:
    """Outcome of validating one package against one query.

    Attributes:
        base_ok: every tuple satisfies the WHERE clause.
        global_ok: the package satisfies the SUCH THAT formula.
        repeat_ok: no tuple exceeds the REPEAT multiplicity cap.
        base_violations: rids of tuples violating the base constraint.
        repeat_violations: rids exceeding the REPEAT cap.
        objective: objective value of the package (None when the query
            has no objective or the objective is NULL-valued).
    """

    base_ok: bool
    global_ok: bool
    repeat_ok: bool
    base_violations: list = field(default_factory=list)
    repeat_violations: list = field(default_factory=list)
    objective: float | None = None

    @property
    def valid(self):
        return self.base_ok and self.global_ok and self.repeat_ok


def objective_value(package, query):
    """Evaluate the query's objective over ``package`` (None if absent)."""
    if query.objective is None:
        return None
    value = eval_expr(query.objective.expr, None, package.aggregate)
    return None if value is None else float(value)


def check_global(package, query):
    """True when the package satisfies the SUCH THAT formula.

    Satisfaction within :data:`DEFAULT_TOLERANCE` (relative) of a
    non-strict comparison boundary counts — see the module docstring.
    """
    if query.such_that is None:
        return True
    return holds(query.such_that, package)


def holds(node, package):
    """True when ``package`` satisfies the formula ``node`` under the
    validator's comparison semantics (see the module docstring)."""
    exact = eval_expr(node, None, package.aggregate)
    if exact is True:
        return True
    # Exactly-false (or NULL) verdicts get one tolerant re-check on
    # the boundary-sensitive node shapes; everything else stands.
    if isinstance(node, ast.And):
        return all(holds(arg, package) for arg in node.args)
    if isinstance(node, ast.Or):
        return any(holds(arg, package) for arg in node.args)
    if isinstance(node, ast.Comparison):
        return _comparison_holds(node.op, node.left, node.right, package)
    if isinstance(node, ast.Between) and not node.negated:
        return _comparison_holds(
            ast.CmpOp.GE, node.expr, node.low, package
        ) and _comparison_holds(ast.CmpOp.LE, node.expr, node.high, package)
    return exact is True


def _comparison_holds(op, left_node, right_node, package):
    left = eval_expr(left_node, None, package.aggregate)
    right = eval_expr(right_node, None, package.aggregate)
    if not isinstance(left, (int, float)) or isinstance(left, bool):
        return False
    if not isinstance(right, (int, float)) or isinstance(right, bool):
        return False
    left, right = float(left), float(right)
    slack = DEFAULT_TOLERANCE * max(1.0, abs(left), abs(right))
    if op is ast.CmpOp.LE:
        return left <= right + slack
    if op is ast.CmpOp.GE:
        return left >= right - slack
    if op is ast.CmpOp.EQ:
        return abs(left - right) <= slack
    # Strict comparisons (and <>) keep their exact verdicts: they are
    # what cuts off the boundary packages of the translator's closure,
    # and a tolerance here would accept equality.
    if op is ast.CmpOp.LT:
        return left < right
    if op is ast.CmpOp.GT:
        return left > right
    return left != right


def validate(package, query):
    """Validate ``package`` against an analyzed ``query``.

    Returns:
        :class:`ValidationReport`.
    """
    base_violations = []
    if query.where is not None and package.counts:
        rids = [rid for rid, _ in package.counts]
        satisfied, _ = where_positions(query.where, package.relation, rids)
        kept = set(satisfied.tolist())
        base_violations = [rid for i, rid in enumerate(rids) if i not in kept]

    repeat_violations = [
        rid for rid, mult in package.counts if mult > query.repeat
    ]

    return ValidationReport(
        base_ok=not base_violations,
        global_ok=check_global(package, query),
        repeat_ok=not repeat_violations,
        base_violations=base_violations,
        repeat_violations=repeat_violations,
        objective=objective_value(package, query),
    )


def is_valid(package, query):
    """Shorthand: full validity check as a single bool."""
    return validate(package, query).valid


def compare_objectives(query, left, right):
    """Compare two objective values in the query's preference order.

    Returns a negative number when ``left`` is preferred over
    ``right``, positive when worse, 0 on ties or when the query has no
    objective.  ``None`` objectives always lose to numbers.
    """
    if query.objective is None:
        return 0
    if left is None and right is None:
        return 0
    if left is None:
        return 1
    if right is None:
        return -1
    if left == right:
        return 0
    if query.objective.direction is ast.Direction.MAXIMIZE:
        return -1 if left > right else 1
    return -1 if left < right else 1
