"""Tests for PaQL query rewriting (the §5 optimization layer).

The key property: rewriting never changes which rows a predicate
selects (three-valued semantics included) nor which packages satisfy a
global formula.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paql import ast
from repro.paql.eval import EvaluationError, eval_expr, eval_predicate
from repro.paql.parser import parse, parse_expression
from repro.paql.printer import print_expr
from repro.paql.rewrite import rewrite_expr, rewrite_query

from tests.paql_strategies import global_formulas, predicates


def rewritten(text, positive=True):
    node, applied = rewrite_expr(parse_expression(text), positive)
    return node, applied


class TestConstantFolding:
    def test_arithmetic(self):
        node, applied = rewritten("calories <= 2 * 1000 + 500")
        assert node == parse_expression("calories <= 2500")
        assert "fold-constant" in applied

    def test_literal_comparison(self):
        node, _ = rewritten("1 < 2")
        assert node == ast.Literal(True)

    def test_null_comparison_not_folded(self):
        # NULL = NULL is unknown; folding it to FALSE would break NOT.
        node, _ = rewritten("NOT NULL = NULL")
        assert node == ast.Not(
            ast.Comparison(ast.CmpOp.EQ, ast.Literal(None), ast.Literal(None))
        )

    def test_division_by_zero_left_alone(self):
        node, _ = rewritten("calories <= 1 / 0")
        assert isinstance(node, ast.Comparison)

    def test_is_null_on_literal(self):
        node, _ = rewritten("NULL IS NULL")
        assert node == ast.Literal(True)
        node, _ = rewritten("3 IS NOT NULL")
        assert node == ast.Literal(True)

    def test_unary_minus_folds(self):
        node, _ = rewritten("calories <= -(3 + 4)")
        assert node == parse_expression("calories <= -7")

    def test_int_past_float_range_folds(self):
        # 0.00390625 / 2.225073858507e-311 folds to an integral double
        # near 1.8e308; doubling it exactly once raised OverflowError.
        node, _ = rewritten("0 = 2 * (0.00390625 / 2.225073858507e-311)")
        assert node == ast.Literal(False)


class TestBooleanSimplification:
    def test_true_absorbed_in_and(self):
        node, _ = rewritten("TRUE AND calories <= 5")
        assert node == parse_expression("calories <= 5")

    def test_false_shortcuts_and(self):
        node, _ = rewritten("FALSE AND calories <= 5")
        assert node == ast.Literal(False)

    def test_true_shortcuts_or(self):
        node, _ = rewritten("TRUE OR calories <= 5")
        assert node == ast.Literal(True)

    def test_duplicate_conjuncts_dropped(self):
        node, applied = rewritten("calories > 5 AND calories > 5")
        assert node == parse_expression("calories > 5")
        assert "dedup" in applied

    def test_double_negation_removed(self):
        node, applied = rewritten("NOT NOT calories > 5")
        assert node == parse_expression("calories > 5")
        assert "double-negation" in applied

    def test_nested_same_type_flattened(self):
        node, _ = rewritten("(a > 1 AND b > 2) AND c > 3")
        assert isinstance(node, ast.And)
        assert len(node.args) == 3


class TestIntervalMerging:
    def test_two_lower_bounds_merge(self):
        node, applied = rewritten("calories >= 100 AND calories >= 200")
        assert node == parse_expression("calories >= 200")
        assert "merge-intervals" in applied

    def test_bounds_merge_to_between(self):
        node, _ = rewritten(
            "calories >= 100 AND calories <= 300 AND calories <= 250"
        )
        assert node == ast.Between(
            ast.ColumnRef(None, "calories"), ast.Literal(100), ast.Literal(250)
        )

    def test_equality_from_closed_interval(self):
        node, _ = rewritten("calories >= 5 AND calories <= 5")
        assert node == parse_expression("calories = 5")

    def test_between_participates(self):
        node, _ = rewritten(
            "calories BETWEEN 0 AND 100 AND calories BETWEEN 50 AND 200"
        )
        assert node == ast.Between(
            ast.ColumnRef(None, "calories"), ast.Literal(50), ast.Literal(100)
        )

    def test_aggregate_bounds_merge(self):
        node, _ = rewritten("SUM(fat) <= 50 AND SUM(fat) <= 30")
        assert node == parse_expression("SUM(fat) <= 30")

    def test_flipped_orientation_normalized(self):
        node, _ = rewritten("100 <= calories AND calories <= 100")
        assert node == parse_expression("calories = 100")

    def test_strict_bounds_kept_strict(self):
        node, _ = rewritten("calories > 5 AND calories > 7")
        assert node == parse_expression("calories > 7")

    def test_unrelated_conjuncts_preserved(self):
        node, _ = rewritten(
            "calories >= 100 AND calories >= 150 AND gluten = 'free'"
        )
        assert isinstance(node, ast.And)
        assert parse_expression("gluten = 'free'") in node.args
        assert parse_expression("calories >= 150") in node.args


class TestContradictions:
    def test_positive_contradiction_folds_to_false(self):
        node, applied = rewritten("calories >= 4 AND calories <= 2")
        assert node == ast.Literal(False)
        assert "contradiction" in applied

    def test_strict_point_contradiction(self):
        node, _ = rewritten("calories > 5 AND calories <= 5")
        assert node == ast.Literal(False)

    def test_negative_polarity_not_folded(self):
        # NOT (x >= 4 AND x <= 2): on NULL x the original is unknown
        # (row NOT selected); NOT FALSE would wrongly select it.
        node, applied = rewritten("NOT (calories >= 4 AND calories <= 2)")
        assert node != ast.Literal(True)
        assert "contradiction" not in applied

    def test_contradiction_under_double_negation_is_positive(self):
        node, _ = rewritten("NOT NOT (calories >= 4 AND calories <= 2)")
        assert node == ast.Literal(False)

    def test_or_branch_contradiction_folds_locally(self):
        node, _ = rewritten(
            "(calories >= 4 AND calories <= 2) OR gluten = 'free'"
        )
        assert node == parse_expression("gluten = 'free'")


class TestQueryRewriting:
    def test_full_query(self):
        query = parse(
            "SELECT PACKAGE(R) FROM Recipes R "
            "WHERE R.calories <= 1000 + 500 AND R.calories <= 2000 "
            "SUCH THAT COUNT(*) = 3 AND COUNT(*) = 3 "
            "MAXIMIZE SUM(R.protein)"
        )
        result = rewrite_query(query)
        assert result.applied
        assert result.query.where == parse_expression("R.calories <= 1500")
        assert result.query.such_that == parse_expression("COUNT(*) = 3")

    def test_no_op_on_clean_query(self):
        query = parse(
            "SELECT PACKAGE(R) FROM Recipes R WHERE R.gluten = 'free'"
        )
        result = rewrite_query(query)
        assert result.query == query

    def test_clauseless_query(self):
        query = parse("SELECT PACKAGE(R) FROM R")
        assert rewrite_query(query).query == query

    def test_objective_constant_folded(self):
        query = parse(
            "SELECT PACKAGE(R) FROM R MAXIMIZE SUM(R.protein) * (2 + 3)"
        )
        result = rewrite_query(query)
        assert ast.Literal(5) in result.query.objective.expr.children()


ROWS = [
    {"calories": 100.0, "protein": 10.0, "fat": 3.0, "price": 5.0,
     "rating": 4.0, "gluten": "free", "category": "a"},
    {"calories": None, "protein": None, "fat": None, "price": None,
     "rating": None, "gluten": None, "category": None},
    {"calories": -50.0, "protein": 0.0, "fat": 100.0, "price": 0.0,
     "rating": 2.0, "gluten": "full", "category": "b"},
    {"calories": 2500.0, "protein": 55.5, "fat": 0.0, "price": -1.0,
     "rating": 5.0, "gluten": "free", "category": ""},
]


class TestSemanticPreservation:
    @given(predicates())
    @settings(max_examples=200, deadline=None)
    def test_predicate_selection_unchanged(self, predicate):
        node, _ = rewrite_expr(predicate)
        for row in ROWS:
            try:
                before = eval_predicate(predicate, row)
            except EvaluationError:
                return
            after = eval_predicate(node, row)
            assert before == after, (
                f"row {row}: {print_expr(predicate)} -> {print_expr(node)}"
            )

    @given(global_formulas(), st.integers(0, 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_global_formula_truth_unchanged(self, formula, seed):
        import random

        rng = random.Random(seed)
        values = {}

        def resolver(node):
            if node not in values:
                roll = rng.random()
                if roll < 0.1:
                    values[node] = None
                else:
                    values[node] = round(rng.uniform(-20, 20), 2)
            return values[node]

        node, _ = rewrite_expr(formula)
        try:
            before = eval_expr(formula, None, resolver) is True
        except EvaluationError:
            return
        after = eval_expr(node, None, resolver) is True
        assert before == after
