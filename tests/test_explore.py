"""Tests for adaptive exploration sessions (Section 3.3)."""

import pytest

from repro.core import ExplorationError, ExplorationSession, is_valid
from repro.paql.semantics import parse_and_analyze
from repro.relational import ColumnType, Relation, Schema


def value_relation(values):
    schema = Schema.of(value=ColumnType.FLOAT)
    return Relation("T", schema, [{"value": float(v)} for v in values])


@pytest.fixture
def rel():
    return value_relation([10, 20, 30, 40, 50, 60])


def session_for(rel, text):
    query = parse_and_analyze(text, rel.schema)
    return ExplorationSession(query, rel, range(len(rel))), query


QUERY = (
    "SELECT PACKAGE(T) FROM T SUCH THAT "
    "COUNT(*) = 3 AND SUM(T.value) BETWEEN 60 AND 120"
)


class TestLifecycle:
    def test_start_produces_valid_sample(self, rel):
        session, query = session_for(rel, QUERY)
        package = session.start()
        assert package is not None
        assert is_valid(package, query)
        assert session.current == package
        assert session.history == [package]

    def test_start_on_infeasible_query_returns_none(self, rel):
        session, _ = session_for(
            rel, "SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.value) >= 10000"
        )
        assert session.start() is None
        assert session.current is None

    def test_actions_before_start_rejected(self, rel):
        session, _ = session_for(rel, QUERY)
        with pytest.raises(ExplorationError, match="start"):
            session.pin([0])
        with pytest.raises(ExplorationError, match="start"):
            session.resample()


class TestPinning:
    def test_resample_keeps_pinned_tuples(self, rel):
        session, query = session_for(rel, QUERY)
        first = session.start()
        keeper = first.rids[0]
        session.pin([keeper])
        second = session.resample()
        assert second is not None
        assert keeper in second
        assert second != first
        assert is_valid(second, query)

    @pytest.mark.parametrize("pins", [0, 1, 2])
    def test_resample_replaces_only_unpinned_tuples(self, rel, pins):
        session, _ = session_for(rel, QUERY)
        first = session.start()
        kept = list(first.rids[:pins])
        if kept:
            session.pin(kept)
        second = session.resample()
        assert second is not None
        assert second != first
        assert all(rid in second for rid in kept)

    def test_pin_foreign_tuple_rejected(self, rel):
        session, _ = session_for(rel, QUERY)
        package = session.start()
        missing = next(
            rid for rid in range(len(rel)) if rid not in package
        )
        with pytest.raises(ExplorationError, match="not in the current"):
            session.pin([missing])

    def test_unpin(self, rel):
        session, _ = session_for(rel, QUERY)
        package = session.start()
        session.pin(list(package.rids))
        session.unpin([package.rids[0]])
        assert package.rids[0] not in session.pinned
        session.unpin()
        assert session.pinned == {}

    def test_pinned_multiplicity_tracked(self, rel):
        query = parse_and_analyze(
            "SELECT PACKAGE(T) FROM T REPEAT 2 SUCH THAT "
            "COUNT(*) = 3 AND SUM(T.value) BETWEEN 30 AND 70",
            rel.schema,
        )
        session = ExplorationSession(query, rel, range(len(rel)))
        package = session.start()
        rid = package.rids[0]
        session.pin([rid])
        assert session.pinned[rid] == package.multiplicity(rid)


class TestHistory:
    def test_resample_never_repeats_history(self, rel):
        session, _ = session_for(rel, QUERY)
        session.start()
        seen = set(session.history)
        for _ in range(4):
            package = session.resample()
            if package is None:
                break
            assert package not in seen
            seen.add(package)

    def test_five_rounds_with_evolving_pins(self, rel):
        session, query = session_for(rel, QUERY)
        package = session.start()
        shown = 1
        for round_index in range(5):
            session.unpin()
            session.pin([package.rids[round_index % len(package.rids)]])
            replacement = session.resample()
            if replacement is None:
                break
            assert is_valid(replacement, query)
            package = replacement
            shown += 1
        assert shown >= 3

    def test_resample_exhausts_small_space(self):
        rel = value_relation([10, 20, 30])
        session, _ = session_for(
            rel,
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND SUM(T.value) >= 30",
        )
        session.start()
        produced = 1
        while session.resample() is not None:
            produced += 1
            assert produced < 10  # C(3,2) = 3 packages max
        assert produced == 3

    def test_exhaustion_preserves_current(self):
        rel = value_relation([10, 20])
        session, _ = session_for(
            rel,
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2",
        )
        only = session.start()
        assert session.resample() is None
        assert session.current == only


class TestFallbackSearch:
    def test_untranslatable_query_uses_search(self, rel):
        # MAXIMIZE MIN(...) cannot go through the ILP path.
        session, query = session_for(
            rel,
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND SUM(T.value) >= 50 "
            "MAXIMIZE MIN(T.value)",
        )
        package = session.start()
        assert package is not None
        assert is_valid(package, query)
