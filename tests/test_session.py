"""Evaluation sessions: cross-query artifact reuse and validated replays.

Two properties carry the subsystem:

* **Parity** — every session-warm result (artifact reuse, fact-cache
  replays, validated result replays) is identical in status and
  objective to a cold, cache-free evaluation of the same query.
* **Honesty** — a result-cache replay goes back through the engine's
  oracle gate: corrupting a cached package raises ``EngineError``
  instead of returning a wrong answer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineError, EngineOptions, evaluate
from repro.core.result import ResultStatus
from repro.core.session import EvaluationSession
from repro.datasets import clustered_relation, generate_recipes
from repro.datasets.workload import random_query
from repro.relational import Column, ColumnType, Relation, Schema

_SCHEMA = Schema(
    [Column("cost", ColumnType.FLOAT), Column("gain", ColumnType.FLOAT)]
)


def _relation(rows, name="Red"):
    return Relation(
        name, _SCHEMA, [{"cost": c, "gain": g} for c, g in rows]
    )


QUERY = (
    "SELECT PACKAGE(R) FROM Red R SUCH THAT COUNT(*) <= 3 "
    "AND MAX(R.cost) <= 40 MAXIMIZE SUM(R.gain)"
)


@pytest.fixture
def small_relation():
    rows = [(float(5 * i % 57), float(i % 11)) for i in range(60)]
    return _relation(rows)


class TestResultReplay:
    def test_repeat_query_hits_the_result_cache(self, small_relation):
        session = EvaluationSession(small_relation)
        first = session.evaluate(QUERY)
        second = session.evaluate(QUERY)
        assert "session" not in first.stats
        assert second.stats["session"]["result_cache"] == "hit"
        assert second.status is first.status
        assert second.objective == first.objective
        assert second.package.counts == first.package.counts

    def test_replay_matches_cold_evaluation_exactly(self, small_relation):
        session = EvaluationSession(small_relation)
        session.evaluate(QUERY)
        warm = session.evaluate(QUERY)
        cold = evaluate(QUERY, small_relation)
        assert warm.objective == cold.objective
        assert warm.status is cold.status
        assert warm.package.counts == cold.package.counts

    def test_differing_options_never_share_an_entry(self, small_relation):
        session = EvaluationSession(small_relation)
        ilp = session.evaluate(QUERY, EngineOptions(strategy="ilp"))
        brute = session.evaluate(QUERY, EngineOptions(strategy="brute-force"))
        assert "session" not in brute.stats  # not a replay of the ILP entry
        assert ilp.objective == brute.objective

    def test_infeasible_results_replay_too(self, small_relation):
        text = "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) <= -1"
        session = EvaluationSession(small_relation)
        first = session.evaluate(text)
        second = session.evaluate(text)
        assert first.status is ResultStatus.INFEASIBLE
        assert second.status is ResultStatus.INFEASIBLE
        assert second.stats["session"]["result_cache"] == "hit"

    def test_replay_goes_through_the_oracle_gate(self, small_relation):
        session = EvaluationSession(small_relation)
        session.evaluate(QUERY)
        # Corrupt the cached package: the replay must fail loudly.
        key = session.artifacts.result_key(
            session.evaluator.prepare(QUERY), EngineOptions()
        )
        entry = session.artifacts.results.get(key)
        bad_rid = max(
            rid for rid in range(len(small_relation))
            if small_relation[rid]["cost"] > 40
        )
        entry.counts = ((bad_rid, 1),)
        with pytest.raises(EngineError, match="invalid package"):
            session.evaluate(QUERY)

    def test_reuse_disabled_still_reuses_artifacts(self, small_relation):
        session = EvaluationSession(small_relation, reuse_results=False)
        first = session.evaluate(QUERY)
        second = session.evaluate(QUERY)
        assert "session" not in second.stats
        assert second.objective == first.objective
        stats = session.cache_stats()
        assert stats["results"]["entries"] == 0
        assert stats["where"]["hits"] + stats["bounds"]["hits"] > 0


class TestArtifactReuse:
    def test_where_scan_shared_across_objectives(self):
        relation = _relation(
            [(float(i % 83), float(i % 13)) for i in range(400)]
        )
        session = EvaluationSession(relation)
        base = (
            "SELECT PACKAGE(R) FROM Red R WHERE R.cost <= 50 "
            "SUCH THAT COUNT(*) <= 3 {objective}"
        )
        session.evaluate(base.format(objective="MAXIMIZE SUM(R.gain)"))
        session.evaluate(base.format(objective="MINIMIZE SUM(R.cost)"))
        stats = session.cache_stats()
        assert stats["where"]["hits"] >= 1
        assert stats["bounds"]["hits"] >= 1

    def test_reduction_facts_shared_across_objectives(self):
        relation = clustered_relation(800, seed=9)
        session = EvaluationSession(relation)
        base = (
            "SELECT PACKAGE(R) FROM Readings R "
            "SUCH THAT COUNT(*) <= 5 AND MAX(R.ts) <= 30 {objective}"
        )
        first = session.evaluate(base.format(objective="MAXIMIZE SUM(R.gain)"))
        second = session.evaluate(base.format(objective="MINIMIZE SUM(R.cost)"))
        stats = session.cache_stats()
        assert stats["reduction_facts"]["hits"] >= 1
        # The shared facts fix the same candidates either way.
        assert (
            first.stats["reduction"]["kept"]
            == second.stats["reduction"]["kept"]
        )
        cold = evaluate(
            base.format(objective="MINIMIZE SUM(R.cost)"), relation
        )
        assert second.objective == cold.objective
        assert second.status is cold.status

    def test_cached_conjunct_facts_are_uncontaminated(self):
        # Regression: query A's SUM conjunct fixes candidates before
        # its MAX conjunct runs, so the MAX leaf's cached mask used to
        # be stored as a diff missing the already-fixed bits — and a
        # later query with only the MAX conjunct silently under-fixed.
        relation = _relation(
            [(float(i), 1.0) for i in range(100)]
        )
        session = EvaluationSession(relation)
        qa = (
            "SELECT PACKAGE(R) FROM Red R "
            "SUCH THAT SUM(R.cost) <= 10 AND MAX(R.cost) <= 50"
        )
        qb = "SELECT PACKAGE(R) FROM Red R SUCH THAT MAX(R.cost) <= 50"
        session.evaluate(qa)
        warm = session.evaluate(qb)
        cold = evaluate(qb, relation)
        assert (
            warm.stats["reduction"]["kept"]
            == cold.stats["reduction"]["kept"]
        )
        assert (
            warm.stats["reduction"]["fixed"]
            == cold.stats["reduction"]["fixed"]
        )
        assert warm.status is cold.status

    def test_sharded_relation_built_once(self):
        relation = clustered_relation(600, seed=4)
        session = EvaluationSession(
            relation, options=EngineOptions(shards=4)
        )
        session.evaluate(
            "SELECT PACKAGE(R) FROM Readings R WHERE R.ts <= 40 "
            "SUCH THAT COUNT(*) <= 3 MAXIMIZE SUM(R.gain)"
        )
        sharded = session.evaluator.sharded_relation(4)
        session.evaluate(
            "SELECT PACKAGE(R) FROM Readings R WHERE R.ts <= 40 "
            "SUCH THAT COUNT(*) <= 2 MAXIMIZE SUM(R.gain)"
        )
        assert session.evaluator.sharded_relation(4) is sharded

    def test_translation_reused_across_backup_options(self, small_relation):
        session = EvaluationSession(small_relation, reuse_results=False)
        options = EngineOptions(strategy="ilp")
        session.evaluate(QUERY, options)
        session.evaluate(QUERY, options)
        assert session.cache_stats()["translations"]["hits"] >= 1

    def test_fact_cache_evicts_by_bytes(self):
        from repro.core.session import ArtifactCache, ConjunctFacts
        import numpy as np

        facts = ArtifactCache().facts
        mask_bytes = 16 * 1024 * 1024
        for i in range(8):
            key = (f"conjunct-{i}", (mask_bytes, "fp"), 1, 1e-9, 0)
            facts.put(
                key,
                ConjunctFacts(
                    fixed_mask=np.zeros(mask_bytes, dtype=bool),
                    witness_checks=(),
                    dominance_keys=(),
                    dominance_block=None,
                    zone=(0, 0, 0),
                ),
            )
        stats = facts.stats()
        assert stats["entries"] <= 4  # 16 MiB masks against the 64 MiB bound
        assert stats["approx_bytes"] <= 64 * 1024 * 1024

    def test_invalidate_clears_every_layer(self, small_relation):
        session = EvaluationSession(small_relation)
        session.evaluate(QUERY)
        session.invalidate()
        stats = session.cache_stats()
        assert stats["results"]["entries"] == 0
        assert stats["where"]["entries"] == 0
        assert stats["bounds"]["entries"] == 0
        assert stats["reduction_facts"]["entries"] == 0


class TestSessionSurfaces:
    def test_plan_uses_the_session_evaluator(self, small_relation):
        session = EvaluationSession(small_relation)
        report = session.plan(QUERY)
        result = session.evaluate(QUERY)
        assert report.chosen_strategy == result.strategy
        assert report.candidate_count == result.candidate_count

    def test_explain_returns_result_and_table(self, small_relation):
        session = EvaluationSession(small_relation)
        result, table = session.explain(QUERY)
        assert result.found
        assert table[0].startswith("stage")
        assert any("strategy-dispatch" in line for line in table)

    def test_explain_simulated_returns_plan(self, small_relation):
        session = EvaluationSession(small_relation)
        report, table = session.explain(QUERY, execute=False)
        assert hasattr(report, "chosen_strategy")
        assert any("strategy-dispatch" in line for line in table)

    def test_plan_honors_an_explicit_strategy(self, small_relation):
        session = EvaluationSession(small_relation)
        report = session.plan(QUERY, EngineOptions(strategy="brute-force"))
        assert report.chosen_strategy == "brute-force"
        assert any("explicit dispatch" in line for line in report.decisions)
        result = session.evaluate(QUERY, EngineOptions(strategy="brute-force"))
        assert result.strategy == "brute-force"

    def test_replayed_stats_are_isolated_and_marked_cached(self, small_relation):
        session = EvaluationSession(small_relation)
        session.evaluate(QUERY)
        warm = session.evaluate(QUERY)
        assert all(
            entry["mode"] == "cached" for entry in warm.stats["stages"]
        )
        # Mutating a replayed result must not corrupt later replays.
        warm.stats["stages"].clear()
        warm.stats["reduction"]["kept"] = -1
        again = session.evaluate(QUERY)
        assert again.stats["stages"]
        assert again.stats["reduction"]["kept"] != -1

    def test_queries_run_counter(self, small_relation):
        session = EvaluationSession(small_relation)
        session.evaluate(QUERY)
        session.evaluate(QUERY)
        assert session.queries_run == 2
        assert session.cache_stats()["queries_run"] == 2


class TestSessionParityProperty:
    """Warm session results == cold engine results, for random queries."""

    @given(
        seeds=st.lists(
            st.integers(0, 10**6), min_size=2, max_size=5, unique=True
        ),
        repeat_first=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_warm_results_match_cold(self, seeds, repeat_first):
        recipes = generate_recipes(30, seed=11)
        texts = [
            random_query(
                "Recipes",
                {"calories": (120.0, 1600.0), "protein": (2.0, 120.0)},
                seed=seed,
            )
            for seed in seeds
        ]
        if repeat_first:
            texts.append(texts[0])
        session = EvaluationSession(recipes)
        for text in texts:
            warm = session.evaluate(text)
            cold = evaluate(text, recipes)
            assert warm.status is cold.status, text
            assert warm.objective == cold.objective, text
            if cold.package is not None:
                assert warm.package.counts == cold.package.counts, text
