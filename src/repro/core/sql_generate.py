"""SQL-based candidate generation (the paper's evaluation option (i)).

Section 4: the system "either: (i) uses SQL statements to generate and
validate candidate packages; or (ii) translates package queries to
constraint optimization problems".  Option (ii) lives in
:mod:`repro.core.translate_ilp`; this module is option (i).

For each cardinality ``k`` inside the pruned bounds, one SQL query
joins ``k`` copies of the base relation (``R1.rid < R2.rid < ...`` for
set semantics), restricts every copy to the candidate rids the engine
kept (bound as one JSON array and read back with ``json_each``; WHERE
is never re-rendered, since sqlite reads a stored NaN as NULL), rewrites
the *entire* global formula over the k-tuple's aggregate expressions
(``SUM(e)`` becomes ``e(R1) + ... + e(Rk)``, ``MIN`` uses sqlite's
n-ary scalar ``MIN``, ``AVG`` divides the two, ``COUNT(*)`` folds to
the constant ``k``), and — when the query has an objective — orders by
the objective expression so ``LIMIT 1`` returns the best package of
that cardinality.  The per-k winners are compared in Python.  A
non-strict comparison holds within the validator's relative slack,
exactly as :func:`~repro.core.validator.check_global` judges it, so a
decimal sum one ulp past its bound is accepted here too.

This strategy is exact on its supported fragment but inherits the
k-way join's combinatorial cost, which is precisely why the paper
pairs it with pruning and ultimately leans on the solver; benchmark
E2 quantifies the trade.

Supported fragment: set semantics (``REPEAT 1``), no NaN among the
candidates' aggregate arguments (sqlite would read it as NULL), and —
only when the formula or objective uses MIN/MAX — no NULLs in their
arguments (sqlite's scalar ``MIN``/``MAX`` return NULL if *any*
argument is NULL, which diverges from aggregate semantics that skip
NULLs).  Everything else raises :class:`SQLGenerateUnsupported`.
"""

from __future__ import annotations

import json

import numpy as np

from repro.paql import ast
from repro.paql.errors import PaQLUnsupportedError
from repro.paql.to_sql import sql_constant, to_sql
from repro.core.formula import normalize_formula
from repro.core.package import Package
from repro.core.pruning import derive_bounds
from repro.core.validator import (
    DEFAULT_TOLERANCE,
    compare_objectives,
    objective_value,
)
from repro.core.vectorize import CandidateColumns


#: Comparisons that hold within the validator's tolerance.
_WIDENED = (ast.CmpOp.LE, ast.CmpOp.GE, ast.CmpOp.EQ)


class SQLGenerateUnsupported(Exception):
    """The query is outside the SQL-generation fragment."""


def _member_sql(argument, aliases, params):
    """Render ``argument`` once per alias, binding its constants."""
    exprs = []
    for alias in aliases:
        text, values = to_sql(argument, alias + ".")
        exprs.append(text)
        params.extend(values)
    return exprs


def _refuse_unrepresentable(aggregate, columns):
    """Raise when sqlite would read a candidate's argument differently.

    sqlite stores float NaN as NULL, so a NaN argument would silently
    count as NULL inside SQL while the validator sees NaN.  Scalar
    ``MIN``/``MAX`` return NULL if *any* argument is NULL, unlike the
    aggregates, which skip NULLs.  The first offending candidate, in
    candidate order, picks the message.
    """
    values, nulls = columns.get(aggregate.argument)
    nan = ~nulls & (np.isnan(values) if values.dtype.kind in "fiu" else False)
    minmax = aggregate.func in (ast.AggFunc.MIN, ast.AggFunc.MAX)
    refused = nan | nulls if minmax else nan
    if refused.any() and nan[refused.argmax()]:
        raise SQLGenerateUnsupported(
            f"{aggregate.func.value} argument has NaN among the "
            "candidates; sqlite would store it as NULL"
        )
    if refused.any():
        raise SQLGenerateUnsupported(
            f"{aggregate.func.value} argument has NULLs among the "
            "candidates; sqlite's scalar MIN/MAX would mis-handle them"
        )


def _aggregate_sql(aggregate, aliases, columns, params):
    """Render one aggregate over a k-tuple of relation aliases.

    Constants append to ``params`` in the order their ``?`` appears.
    """
    if aggregate.is_count_star:
        return str(len(aliases))

    argument = aggregate.argument
    func = aggregate.func
    _refuse_unrepresentable(aggregate, columns)

    if func is ast.AggFunc.SUM:
        pieces = [
            f"COALESCE({expr}, 0)"
            for expr in _member_sql(argument, aliases, params)
        ]
        return "(" + " + ".join(pieces) + ")"

    if func is ast.AggFunc.COUNT:
        pieces = [
            f"(CASE WHEN {expr} IS NULL THEN 0 ELSE 1 END)"
            for expr in _member_sql(argument, aliases, params)
        ]
        return "(" + " + ".join(pieces) + ")"

    if func is ast.AggFunc.AVG:
        total = " + ".join(
            f"COALESCE({expr}, 0)"
            for expr in _member_sql(argument, aliases, params)
        )
        count = " + ".join(
            f"(CASE WHEN {expr} IS NULL THEN 0 ELSE 1 END)"
            for expr in _member_sql(argument, aliases, params)
        )
        # NULLIF keeps the all-NULL case NULL (comparisons then fail),
        # matching aggregate AVG semantics.
        return f"(CAST(({total}) AS REAL) / NULLIF(({count}), 0))"

    # MIN / MAX: sqlite's n-ary scalar form (NULL-free arguments only,
    # see _refuse_unrepresentable).
    member_exprs = _member_sql(argument, aliases, params)
    if len(member_exprs) == 1:
        return member_exprs[0]
    return f"{func.value}({', '.join(member_exprs)})"


def _formula_sql(node, aliases, columns, params):
    """Render a normalized global formula over a k-tuple join."""
    if isinstance(node, ast.Literal):
        return "1" if node.value else "0"
    if isinstance(node, ast.And):
        parts = [
            _formula_sql(arg, aliases, columns, params)
            for arg in node.args
        ]
        return "(" + " AND ".join(parts) + ")"
    if isinstance(node, ast.Or):
        parts = [
            _formula_sql(arg, aliases, columns, params)
            for arg in node.args
        ]
        return "(" + " OR ".join(parts) + ")"
    if isinstance(node, ast.Comparison):
        left = _scalar_sql(node.left, aliases, columns, params)
        right = _scalar_sql(node.right, aliases, columns, params)
        exact = f"({left} {node.op.value} {right})"
        if node.op not in _WIDENED:
            return exact
        # A non-strict comparison that fails exactly gets the
        # validator's relative slack (check_global), so a decimal sum
        # an ulp past its bound still holds; strict ones stay exact.
        # Each operand renders again to bind its constants in order.
        left = _scalar_sql(node.left, aliases, columns, params)
        right = _scalar_sql(node.right, aliases, columns, params)
        slack = (
            f"{sql_constant(DEFAULT_TOLERANCE, params)} * MAX(1.0, "
            f"ABS({_scalar_sql(node.left, aliases, columns, params)}), "
            f"ABS({_scalar_sql(node.right, aliases, columns, params)}))"
        )
        if node.op is ast.CmpOp.LE:
            tolerant = f"{left} <= {right} + {slack}"
        elif node.op is ast.CmpOp.GE:
            tolerant = f"{left} >= {right} - {slack}"
        else:
            tolerant = f"ABS({left} - {right}) <= {slack}"
        return f"({exact} OR ({tolerant}))"
    raise SQLGenerateUnsupported(
        f"cannot render node {type(node).__name__} for SQL generation"
    )


def _scalar_sql(node, aliases, columns, params):
    """Render an aggregate-bearing arithmetic expression."""
    if isinstance(node, ast.Literal):
        if node.value is None or isinstance(node.value, (bool, str)):
            raise SQLGenerateUnsupported(
                f"non-numeric literal {node.value!r} in a global comparison"
            )
        return sql_constant(float(node.value), params)
    if isinstance(node, ast.Aggregate):
        return _aggregate_sql(node, aliases, columns, params)
    if isinstance(node, ast.UnaryMinus):
        inner = _scalar_sql(node.operand, aliases, columns, params)
        return f"(-{inner})"
    if isinstance(node, ast.BinaryOp):
        left = _scalar_sql(node.left, aliases, columns, params)
        right = _scalar_sql(node.right, aliases, columns, params)
        if node.op is ast.BinOp.DIV:
            return f"(CAST({left} AS REAL) / {right})"
        return f"({left} {node.op.value} {right})"
    raise SQLGenerateUnsupported(
        f"cannot render node {type(node).__name__} in a global expression"
    )


def build_generate_sql(
    query, relation, candidate_rids, cardinality, best_only, columns=None
):
    """Build the k-way self-join that generates and validates packages.

    Args:
        query: analyzed query (set semantics only).
        candidate_rids: the rids that passed WHERE (and reduction);
            every join alias is restricted to them.
        cardinality: the package size ``k`` this statement targets.
        best_only: append ORDER BY objective + LIMIT 1.
        columns: the candidates' ``CandidateColumns`` (optional).

    Returns:
        ``(sql, params)``: SQL text selecting columns ``rid_1 ..
        rid_k`` and the values of its ``?`` placeholders.

    Raises:
        SQLGenerateUnsupported: outside the supported fragment.
    """
    if query.repeat != 1:
        raise SQLGenerateUnsupported(
            "SQL generation assumes set semantics (REPEAT 1)"
        )
    if cardinality == 0:
        raise SQLGenerateUnsupported("use Python for the empty package")

    if columns is None:
        columns = CandidateColumns(relation, candidate_rids)
    aliases = [f"R{i}" for i in range(1, cardinality + 1)]
    from_clause = ", ".join(f"{relation.name} {alias}" for alias in aliases)

    where_parts = []
    params = []
    kept = json.dumps([int(rid) for rid in candidate_rids])
    for i, alias in enumerate(aliases):
        if i > 0:
            where_parts.append(f"{aliases[i - 1]}.rid < {alias}.rid")
        where_parts.append(f"{alias}.rid IN (SELECT value FROM json_each(?))")
        params.append(kept)

    if query.such_that is not None:
        try:
            normalized = normalize_formula(query.such_that)
        except PaQLUnsupportedError as exc:
            raise SQLGenerateUnsupported(str(exc)) from exc
        where_parts.append(
            _formula_sql(normalized, aliases, columns, params)
        )

    select_cols = ", ".join(
        f"{alias}.rid AS rid_{i + 1}" for i, alias in enumerate(aliases)
    )
    sql = f"SELECT {select_cols}\nFROM {from_clause}"
    if where_parts:
        sql += "\nWHERE " + " AND ".join(where_parts)

    if best_only and query.objective is not None:
        objective_sql = _scalar_sql(
            query.objective.expr, aliases, columns, params
        )
        direction = (
            "DESC"
            if query.objective.direction is ast.Direction.MAXIMIZE
            else "ASC"
        )
        sql += f"\nORDER BY ({objective_sql}) {direction}\nLIMIT 1"
    elif best_only:
        sql += "\nLIMIT 1"
    return sql, tuple(params)


def sql_find_best(db, query, relation, candidate_rids, bounds=None, columns=None):
    """Find the best valid package via per-cardinality SQL statements.

    Iterates ``k`` over the pruned cardinality window, runs one
    generate-and-validate statement per ``k`` (with ORDER BY + LIMIT 1
    when an objective exists), and keeps the best winner.  Every
    statement reads the candidates' arguments from one ``columns``.

    Returns:
        The optimal :class:`~repro.core.package.Package`, or ``None``.

    Raises:
        SQLGenerateUnsupported: outside the supported fragment.
    """
    candidates = list(candidate_rids)
    if columns is None:
        columns = CandidateColumns(relation, candidates)
    if bounds is None:
        bounds = derive_bounds(query, relation, candidates, columns=columns)
    if bounds.empty:
        return None

    from repro.core.validator import check_global

    best = None
    best_value = None
    low = max(0, bounds.lower)
    high = min(len(candidates), bounds.upper)
    for k in range(low, high + 1):
        if k == 0:
            package = Package(relation, [])
            if not check_global(package, query):
                continue
        else:
            sql, params = build_generate_sql(
                query, relation, candidates, k, True, columns
            )
            rows = db.execute(sql, params)
            if not rows:
                continue
            rids = [rows[0][f"rid_{i + 1}"] for i in range(k)]
            package = Package(relation, rids)
        value = objective_value(package, query)
        if best is None or compare_objectives(query, value, best_value) < 0:
            best = package
            best_value = value
        if query.objective is None and best is not None:
            break
    return best


def sql_enumerate(db, query, relation, candidate_rids, cardinality, limit=None):
    """Enumerate all valid packages of one cardinality via SQL.

    Used by tests (cross-checking against the in-memory enumerator)
    and by the E2 bench.
    """
    sql, params = build_generate_sql(
        query, relation, list(candidate_rids), cardinality, False
    )
    if limit is not None:
        sql += f"\nLIMIT {int(limit)}"
    rows = db.execute(sql, params)
    packages = []
    for row in rows:
        rids = [row[f"rid_{i + 1}"] for i in range(cardinality)]
        packages.append(Package(relation, rids))
    return packages
