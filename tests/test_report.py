"""Tests for package reports (validation explanations)."""

import pytest

from repro.core import Package
from repro.core.report import explain
from repro.paql.semantics import parse_and_analyze

from tests.conftest import HEADLINE


def analyzed(text, relation):
    return parse_and_analyze(text, relation.schema)


class TestValidPackage:
    def test_verdict_and_objective(self, meals):
        query = analyzed(HEADLINE, meals)
        report = explain(Package(meals, [0, 2, 3]), query)
        assert report.valid
        assert report.cardinality == 3
        assert report.objective == pytest.approx(92.0)

    def test_every_constraint_marked_ok(self, meals):
        query = analyzed(HEADLINE, meals)
        report = explain(Package(meals, [0, 2, 3]), query)
        assert len(report.constraints) >= 2
        assert all(c.satisfied for c in report.constraints)

    def test_text_contains_verdict(self, meals):
        query = analyzed(HEADLINE, meals)
        text = explain(Package(meals, [0, 2, 3]), query).text()
        assert "VALID" in text
        assert "[ok ]" in text


class TestInvalidPackage:
    def test_base_violation_names_the_tuple(self, meals):
        query = analyzed(HEADLINE, meals)
        report = explain(Package(meals, [1, 2, 3]), query)  # pancakes: gluten full
        assert not report.valid
        assert report.base_violations
        rid, row = report.base_violations[0]
        assert rid == 1
        assert "pancakes" in report.text()

    def test_global_violation_shows_actual_value(self, meals):
        query = analyzed(HEADLINE, meals)
        # salad + soup + granola = 1000 calories; the window is 1200-1600.
        report = explain(Package(meals, [2, 6, 10]), query)
        failing = [c for c in report.constraints if not c.satisfied]
        assert len(failing) == 1
        assert failing[0].actual == pytest.approx(1000.0)
        assert "FAIL" in report.text()

    def test_count_violation(self, meals):
        query = analyzed(HEADLINE, meals)
        report = explain(Package(meals, [0, 3]), query)
        failing = [c for c in report.constraints if not c.satisfied]
        assert any("COUNT" in c.paql for c in failing)

    def test_repeat_violation_reported(self, meals):
        query = analyzed(
            "SELECT PACKAGE(R) FROM Recipes R SUCH THAT COUNT(*) = 2",
            meals,
        )
        report = explain(Package(meals, [0, 0]), query)
        assert report.repeat_violations == [0]
        assert "REPEAT" in report.text()

    def test_disjunction_reported_as_single_entry(self, meals):
        query = analyzed(
            "SELECT PACKAGE(R) FROM Recipes R SUCH THAT "
            "COUNT(*) = 1 OR COUNT(*) = 5",
            meals,
        )
        report = explain(Package(meals, [0]), query)
        assert len(report.constraints) == 1
        assert report.constraints[0].satisfied

    def test_sentences_available(self, meals):
        query = analyzed(HEADLINE, meals)
        report = explain(Package(meals, [0, 2, 3]), query)
        assert all(c.sentence for c in report.constraints)

    def test_queries_without_clauses(self, meals):
        query = analyzed("SELECT PACKAGE(R) FROM Recipes R", meals)
        report = explain(Package(meals, [0]), query)
        assert report.valid
        assert report.constraints == []

    def test_agrees_with_validator(self, meals):
        from repro.core import is_valid

        query = analyzed(HEADLINE, meals)
        for rids in ([0, 2, 3], [1, 2, 3], [0, 3], [0, 0, 2], []):
            try:
                package = Package(meals, rids)
            except Exception:
                continue
            assert explain(package, query).valid == is_valid(package, query)

    def test_agrees_with_validator_within_its_tolerance(self):
        # 5.8 + 13.6 + 8.2000000001 rounds to 27.600000000099996, a
        # hair above the bound: outside it exactly, inside the
        # validator's 1e-9 relative tolerance.
        from repro.core import validate
        from repro.relational import Column, ColumnType, Relation, Schema

        relation = Relation(
            "T",
            Schema([Column("x", ColumnType.FLOAT)]),
            [{"x": 5.8}, {"x": 13.6}, {"x": 8.2000000001}],
        )
        query = analyzed(
            "SELECT PACKAGE(T) FROM T "
            "SUCH THAT SUM(T.x) <= 27.6000000001 - 1e-13",
            relation,
        )
        package = Package(relation, [0, 1, 2])
        assert validate(package, query).valid
        report = explain(package, query)
        assert report.valid
        assert [c.satisfied for c in report.constraints] == [True]
