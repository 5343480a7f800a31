"""Render PaQL scalar expressions to sqlite SQL text.

This powers base-constraint pushdown (Section 4 of the paper: the
engine "uses SQL statements to generate and validate candidate
packages") and the local-search replacement query (Section 4.2).

Only *scalar* expressions render — a normalized WHERE clause or an
aggregate's argument.  Aggregate nodes are rejected; the package-level
formula is handled by the evaluation strategies, not by SQL.

Finite numeric constants never appear in the SQL text: each renders as
a ``?`` placeholder and its value travels in the returned parameter
tuple.  sqlite binds a double bit for bit, while its text-to-REAL
parser is not correctly rounded at extreme exponents (3.40.1 reads
``1.95457294881716e-302`` one ulp low), so a literal could otherwise
tighten a pushed predicate and drop a row the engine keeps.
"""

from __future__ import annotations

import math

from repro.paql import ast
from repro.paql.errors import PaQLSemanticError

_PRECEDENCE_PARENS_FREE = (ast.Literal, ast.ColumnRef)

#: sqlite's INTEGER range; larger Python ints bind as the nearest double.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _sql_literal(value):
    """SQL text for a constant that has no exact bound-parameter form:
    NULL, booleans, TEXT and the non-finite REALs."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        # ``9e999`` overflows sqlite's REAL parser to exactly +Infinity
        # (its documented spelling for an infinite literal), so ±inf
        # comparisons keep IEEE semantics.  NaN has no REAL spelling at
        # all; render it as NULL, whose comparisons are UNKNOWN — never
        # true — matching the engine, where every NaN comparison is
        # false.
        if math.isnan(value):
            return "NULL"
        return "9e999" if value > 0 else "-9e999"
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


def sql_constant(value, params):
    """Render ``value``; finite numbers append to ``params`` as ``?``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return _sql_literal(value)
    if isinstance(value, int):
        if not _INT64_MIN <= value <= _INT64_MAX:
            try:
                value = float(value)
            except OverflowError:
                value = math.copysign(math.inf, value)
    elif not math.isfinite(value):
        return _sql_literal(value)
    params.append(value)
    return "?"


def to_sql(node, column_prefix="", quote_idents=False):
    """Render a normalized scalar expression as a SQL fragment.

    Args:
        node: expression AST (column refs must be unqualified, i.e.
            the output of semantic analysis).
        column_prefix: optional table alias to prefix column names with
            (e.g. ``"R."``), used when the fragment is embedded in a
            join query.
        quote_idents: render column names double-quoted (keyword-safe;
            the out-of-core pushdown path always sets this).  Off by
            default to keep the demo-path SQL human-readable.

    Returns:
        ``(text, params)``: the fragment with a ``?`` per finite
        numeric constant, and those constants in placeholder order.

    Raises:
        PaQLSemanticError: if the expression contains an aggregate.
    """
    params = []
    text = _render(node, column_prefix, quote_idents, params)
    return text, tuple(params)


def _render(node, column_prefix, quote_idents, params):
    def sub(child):
        return _render(child, column_prefix, quote_idents, params)

    if isinstance(node, ast.Literal):
        return sql_constant(node.value, params)

    if isinstance(node, ast.ColumnRef):
        if node.qualifier is not None:
            raise PaQLSemanticError(
                f"column {node.qualified()!r} is still qualified; run "
                "semantic analysis before SQL rendering"
            )
        if quote_idents:
            from repro.relational.schema import quote_ident

            return f"{column_prefix}{quote_ident(node.name)}"
        return f"{column_prefix}{node.name}"

    if isinstance(node, ast.Aggregate):
        raise PaQLSemanticError(
            "aggregates cannot be rendered to tuple-level SQL; global "
            "constraints are evaluated by the package engine"
        )

    if isinstance(node, ast.UnaryMinus):
        return f"(-{sub(node.operand)})"

    if isinstance(node, ast.BinaryOp):
        left = sub(node.left)
        right = sub(node.right)
        if node.op is ast.BinOp.DIV:
            # sqlite integer division truncates; PaQL arithmetic is real.
            return f"(CAST({left} AS REAL) / {right})"
        return f"({left} {node.op.value} {right})"

    if isinstance(node, ast.Comparison):
        left = sub(node.left)
        right = sub(node.right)
        return f"({left} {node.op.value} {right})"

    if isinstance(node, ast.Between):
        expr = sub(node.expr)
        low = sub(node.low)
        high = sub(node.high)
        keyword = "NOT BETWEEN" if node.negated else "BETWEEN"
        return f"({expr} {keyword} {low} AND {high})"

    if isinstance(node, ast.InList):
        expr = sub(node.expr)
        items = ", ".join(sql_constant(item.value, params) for item in node.items)
        keyword = "NOT IN" if node.negated else "IN"
        return f"({expr} {keyword} ({items}))"

    if isinstance(node, ast.IsNull):
        expr = sub(node.expr)
        keyword = "IS NOT NULL" if node.negated else "IS NULL"
        return f"({expr} {keyword})"

    if isinstance(node, ast.And):
        return "(" + " AND ".join(sub(a) for a in node.args) + ")"

    if isinstance(node, ast.Or):
        return "(" + " OR ".join(sub(a) for a in node.args) + ")"

    if isinstance(node, ast.Not):
        return f"(NOT {sub(node.arg)})"

    raise PaQLSemanticError(f"cannot render node {node!r} to SQL")
