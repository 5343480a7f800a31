"""SQL rendering tests, including a sqlite-equivalence property test.

The critical invariant: for any base constraint, filtering in Python
(:func:`repro.paql.eval.eval_predicate`) and filtering in the DBMS
(:func:`repro.paql.to_sql.to_sql` + sqlite) select exactly the same
rows — otherwise base-constraint pushdown would silently change query
results.
"""

import pytest
from hypothesis import given, settings

from repro.paql import ast
from repro.paql.errors import PaQLSemanticError
from repro.paql.eval import EvaluationError, eval_predicate
from repro.paql.parser import parse_expression
from repro.paql.to_sql import to_sql
from repro.relational import Column, ColumnType, Database, Relation, Schema

from tests.paql_strategies import predicates


class TestFragments:
    def test_literals(self):
        assert to_sql(ast.Literal(3)) == ("?", (3,))
        assert to_sql(ast.Literal("a'b")) == ("'a''b'", ())
        assert to_sql(ast.Literal(True)) == ("1", ())
        assert to_sql(ast.Literal(None)) == ("NULL", ())

    def test_float_constant_binds_its_exact_double(self):
        # sqlite 3.40.1 parses this spelling one ulp low; bound, the
        # double reaches the predicate bit for bit.
        value = 1.95457294881716e-302
        text, params = to_sql(parse_expression(f"a <= {value!r}"))
        assert text == "(a <= ?)"
        assert len(params) == 1
        assert params[0].hex() == value.hex()
        assert DB.execute("SELECT ? AS v", params)[0]["v"].hex() == value.hex()

    def test_non_finite_and_huge_constants(self):
        assert to_sql(ast.Literal(float("inf"))) == ("9e999", ())
        assert to_sql(ast.Literal(float("-inf"))) == ("-9e999", ())
        assert to_sql(ast.Literal(float("nan"))) == ("NULL", ())
        assert to_sql(ast.Literal(2**70)) == ("?", (float(2**70),))

    def test_comparison(self):
        assert to_sql(parse_expression("a <= 3")) == ("(a <= ?)", (3,))

    def test_ne_renders_sql_spelling(self):
        assert to_sql(parse_expression("a != 3"))[0] == "(a <> ?)"

    def test_between(self):
        assert to_sql(parse_expression("a BETWEEN 1 AND 2")) == (
            "(a BETWEEN ? AND ?)",
            (1, 2),
        )

    def test_not_between(self):
        assert "NOT BETWEEN" in to_sql(parse_expression("a NOT BETWEEN 1 AND 2"))[0]

    def test_in_list(self):
        assert to_sql(parse_expression("a IN (1, 2)")) == ("(a IN (?, ?))", (1, 2))

    def test_is_null(self):
        assert to_sql(parse_expression("a IS NULL")) == ("(a IS NULL)", ())
        assert to_sql(parse_expression("a IS NOT NULL")) == ("(a IS NOT NULL)", ())

    def test_division_casts_to_real(self):
        # sqlite integer division truncates; PaQL division is real.
        assert "CAST" in to_sql(parse_expression("a / 2"))[0]

    def test_column_prefix(self):
        assert to_sql(parse_expression("a + b"), "R.") == ("(R.a + R.b)", ())

    def test_qualified_ref_rejected(self):
        with pytest.raises(PaQLSemanticError, match="qualified"):
            to_sql(ast.ColumnRef("R", "a"))

    def test_aggregate_rejected(self):
        with pytest.raises(PaQLSemanticError, match="aggregate"):
            to_sql(ast.Aggregate(ast.AggFunc.SUM, ast.ColumnRef(None, "a")))


def _equivalence_relation():
    """Rows covering NULLs, negatives, text categories and booleans."""
    schema = Schema(
        [
            Column("calories", ColumnType.FLOAT),
            Column("protein", ColumnType.FLOAT),
            Column("fat", ColumnType.FLOAT),
            Column("price", ColumnType.FLOAT),
            Column("rating", ColumnType.FLOAT),
            Column("gluten", ColumnType.TEXT),
            Column("category", ColumnType.TEXT),
        ]
    )
    rows = []
    values = [0.0, 1.0, -3.5, 700.25, 12.0, None, 99999.0, -0.0, 2.5]
    texts = ["free", "full", "", "it's", None, "Breakfast"]
    for i in range(24):
        rows.append(
            {
                "calories": values[i % len(values)],
                "protein": values[(i + 1) % len(values)],
                "fat": values[(i + 2) % len(values)],
                "price": values[(i + 3) % len(values)],
                "rating": values[(i + 4) % len(values)],
                "gluten": texts[i % len(texts)],
                "category": texts[(i + 1) % len(texts)],
            }
        )
    return Relation("T", schema, rows)


RELATION = _equivalence_relation()
DB = Database()
DB.load_relation(RELATION)


def sqlite_rids(sql, params):
    rows = DB.execute(f"SELECT rid FROM T WHERE {sql} ORDER BY rid", params)
    return [row["rid"] for row in rows]


class TestSqliteEquivalence:
    @given(predicates())
    @settings(max_examples=200, deadline=None)
    def test_python_and_sqlite_select_same_rows(self, predicate):
        try:
            python_rids = [
                rid
                for rid in range(len(RELATION))
                if eval_predicate(predicate, RELATION[rid])
            ]
        except EvaluationError:
            # Division by zero etc.; sqlite would return NULL instead of
            # erroring, so the comparison is not meaningful there.
            return
        sql, params = to_sql(predicate)
        assert sqlite_rids(sql, params) == python_rids, (sql, params)

    def test_headline_base_constraint(self):
        predicate = parse_expression("gluten = 'free'")
        python_rids = [
            rid
            for rid in range(len(RELATION))
            if eval_predicate(predicate, RELATION[rid])
        ]
        assert sqlite_rids(*to_sql(predicate)) == python_rids
