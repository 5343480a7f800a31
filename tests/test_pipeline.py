"""The staged pipeline IR: stage records, fixpoint rounds, and the
engine/plan agreement property.

The load-bearing property lives in :class:`TestStageAgreement`:
``plan()``'s *simulated* stage list matches the stages
``evaluate()`` actually executed — same names, same order, same
fixpoint rounds, same skip reasons — across random queries and option
sets.  Since the refactor both sides run the identical
:func:`repro.core.pipeline.run_analysis` code path and share the
solve-side record emission, so this guards one code path rather than
two hand-synchronized copies.
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineOptions, PackageQueryEvaluator, evaluate
from repro.core.ir import (
    STAGE_BOUNDS,
    STAGE_NAMES,
    STAGE_REDUCE,
    STAGE_STRATEGY,
    STAGE_STREAM,
    STAGE_VALIDATE,
    STAGE_WHERE,
    StageRecord,
    records_payload,
    stage_table,
)
from repro.core.reduction import MAX_PRUNE_ROUNDS
from repro.core.pipeline import run_analysis
from repro.core.plan import plan
from repro.core.result import ResultStatus
from repro.datasets import clustered_relation, generate_recipes
from repro.datasets.workload import random_query
from repro.relational import Column, ColumnType, Relation, Schema

from tests.conftest import HEADLINE

_SCHEMA = Schema(
    [
        Column("cost", ColumnType.FLOAT),
        Column("gain", ColumnType.FLOAT),
    ]
)


def _relation(rows, name="Red"):
    return Relation(
        name,
        _SCHEMA,
        [{"cost": cost, "gain": gain} for cost, gain in rows],
    )


def _stage_names(payload):
    return [entry["name"] for entry in payload]


class TestStageRecords:
    def test_every_stage_recorded_in_order(self, meals):
        result = evaluate(HEADLINE, meals)
        names = _stage_names(result.stats["stages"])
        # Every canonical stage appears, in pipeline order (fixpoint
        # rounds repeat the bounds/reduce pair in place).
        seen = [name for name in names if name in STAGE_NAMES]
        assert seen == names
        deduped = list(dict.fromkeys(names))
        # stream-residents only exists for sql-backed relations; an
        # in-memory evaluation emits every other canonical stage.
        expected = [name for name in STAGE_NAMES if name != STAGE_STREAM]
        assert deduped == expected

    def test_rows_flow_through_where_and_strategy(self, meals):
        result = evaluate(HEADLINE, meals)
        by_name = {entry["name"]: entry for entry in result.stats["stages"]}
        where = by_name[STAGE_WHERE]
        assert where["rows_in"] == len(meals)
        assert where["rows_out"] == result.candidate_count
        strategy = by_name[STAGE_STRATEGY]
        assert strategy["detail"]["dispatched"] == result.strategy
        assert strategy["rows_out"] == result.package.cardinality
        validate_record = by_name[STAGE_VALIDATE]
        assert validate_record["skipped"] is None
        assert validate_record["detail"]["validated"] is True

    def test_stage_timings_populated(self, meals):
        result = evaluate(HEADLINE, meals)
        ran = [e for e in result.stats["stages"] if e["skipped"] is None]
        assert ran and all(e["seconds"] >= 0.0 for e in ran)
        assert sum(e["seconds"] for e in ran) <= result.elapsed_seconds

    @pytest.mark.parametrize("reduce", ["off", "safe", "aggressive"])
    def test_short_circuit_skips_carry_the_reason(self, reduce):
        # Empty cardinality bounds halt the analysis before the reduce
        # gate, so every mode records the halt, not "reduction disabled".
        relation = _relation([(1.0, 1.0), (2.0, 2.0)])
        result = evaluate(
            "SELECT PACKAGE(R) FROM Red R SUCH THAT COUNT(*) >= 5 "
            "AND COUNT(*) <= 2",
            relation,
            reduce=reduce,
        )
        assert result.status is ResultStatus.INFEASIBLE
        by_name = {entry["name"]: entry for entry in result.stats["stages"]}
        reason = "cardinality bounds are empty"
        assert by_name[STAGE_STRATEGY]["skipped"] == reason
        assert by_name[STAGE_VALIDATE]["skipped"] == reason
        assert by_name[STAGE_REDUCE]["skipped"] == reason

    def test_reduce_off_skip_reason(self, meals):
        result = evaluate(HEADLINE, meals, reduce="off")
        by_name = {entry["name"]: entry for entry in result.stats["stages"]}
        assert by_name[STAGE_REDUCE]["skipped"] == "reduction disabled (reduce=off)"

    def test_stage_table_renders_records_and_payloads(self, meals):
        result = evaluate(HEADLINE, meals)
        payload = result.stats["stages"]
        lines = stage_table(payload)
        assert lines[0].startswith("stage")
        assert any(STAGE_WHERE in line for line in lines)
        # Records and dict payloads render identically.
        records = [
            StageRecord(
                name=e["name"],
                round=e["round"],
                rows_in=e["rows_in"],
                rows_out=e["rows_out"],
                seconds=e["seconds"],
                skipped=e["skipped"],
                mode=e["mode"],
                detail=e.get("detail", {}),
            )
            for e in payload
        ]
        assert stage_table(records) == lines

    def test_records_payload_roundtrip(self):
        record = StageRecord(
            STAGE_BOUNDS, round=2, rows_in=5, rows_out=5, seconds=0.25,
            detail={"lower": 1, "upper": 3},
        )
        (payload,) = records_payload([record])
        assert payload["name"] == STAGE_BOUNDS
        assert payload["round"] == 2
        assert payload["detail"] == {"lower": 1, "upper": 3}
        assert record.identity() == (STAGE_BOUNDS, 2, None)


#: Reduction fixes MAX(R.ts) > 30 out in round 1; round 2 re-derives
#: the bounds over the kept set and removes nothing more.
TWO_ROUNDS = (
    "SELECT PACKAGE(R) FROM Readings R "
    "SUCH THAT COUNT(*) <= 5 AND MAX(R.ts) <= 30 "
    "MAXIMIZE SUM(R.gain)"
)


def _count_calls(monkeypatch, function):
    """Record every call to ``function`` made through a loaded
    ``repro`` module that imported it by name."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                monkeypatch.setattr(module, attr, counting)
    return calls


class TestPruneFixpoint:
    def test_second_round_runs_after_a_drop(self):
        relation = clustered_relation(2000, seed=7)
        result = evaluate(TWO_ROUNDS, relation)
        rounds = [
            entry["round"]
            for entry in result.stats["stages"]
            if entry["name"] == STAGE_BOUNDS
        ]
        assert rounds == [1, 2]
        assert result.stats["reduction"]["rounds"] == 2

    def test_reduction_record_covers_every_round(self):
        # Round 1 fixes and dominates; round 2 removes nothing and
        # skips dominance.  The one record sums the removals, keeps
        # the first round's input and the last round's kept set, and
        # still says dominance was applied.
        result = evaluate(
            TWO_ROUNDS, clustered_relation(2000, seed=7), reduce="aggressive"
        )
        rounds = [
            entry
            for entry in result.stats["stages"]
            if entry["name"] == STAGE_REDUCE and entry["skipped"] is None
        ]
        assert [entry["round"] for entry in rounds] == [1, 2]
        assert rounds[-1]["detail"]["dominance"] != "applied"
        summary = result.stats["reduction"]
        assert summary["rounds"] == 2
        assert summary["input"] == rounds[0]["rows_in"]
        assert summary["kept"] == rounds[-1]["rows_out"]
        assert summary["fixed"] == sum(e["detail"]["fixed"] for e in rounds) > 0
        assert summary["dominated"] == sum(
            e["detail"]["dominated"] for e in rounds
        ) > 0
        assert summary["dominance"] == "applied"

    def test_one_pass_normalizes_once(self, monkeypatch):
        # Both rounds of the two-round query read one normalized
        # formula and one set of matched conjuncts.
        from repro.core.formula import normalize_formula

        calls = _count_calls(monkeypatch, normalize_formula)
        evaluator = PackageQueryEvaluator(clustered_relation(2000, seed=7))
        state = run_analysis(
            evaluator, evaluator.prepare(TWO_ROUNDS), EngineOptions()
        )
        assert state.prune_rounds == 2
        assert len(calls) == 1

    def test_session_miss_fingerprints_no_rids(self, monkeypatch):
        # Bounds and reduction facts are recomputed, never keyed by
        # candidate set, so analysis hashes no rid sequence.
        from repro.core.session import EvaluationSession
        from repro.relational.content_hash import rids_fingerprint

        session = EvaluationSession(clustered_relation(2000, seed=7))
        calls = _count_calls(monkeypatch, rids_fingerprint)
        state = run_analysis(
            session.evaluator,
            session.evaluator.prepare(TWO_ROUNDS),
            EngineOptions(),
            artifacts=session.artifacts,
        )
        assert state.prune_rounds == 2
        assert calls == []

    def test_rounds_capped(self, meals):
        result = evaluate(HEADLINE, meals)
        rounds = [e["round"] for e in result.stats["stages"]]
        assert max(rounds) <= MAX_PRUNE_ROUNDS

    def test_refined_bounds_tighten_with_reduction(self):
        # Ten candidates, but MAX <= 4 fixes five of them; with no
        # COUNT constraint the cardinality upper bound is n * repeat,
        # so the second round must tighten it to the kept count.
        rows = [(float(v), 1.0) for v in range(10)]
        relation = _relation(rows)
        text = "SELECT PACKAGE(R) FROM Red R SUCH THAT MAX(R.cost) <= 4"
        reduced = evaluate(text, relation)
        baseline = evaluate(text, relation, reduce="off")
        assert reduced.status is baseline.status
        assert reduced.stats["reduction"]["kept"] == 5
        assert baseline.bounds.upper == 10
        assert reduced.bounds.upper == 5
        # Refinement only ever tightens: the refined interval nests
        # inside the unreduced one.
        assert reduced.bounds.lower >= baseline.bounds.lower
        assert reduced.bounds.upper <= baseline.bounds.upper

    def test_second_round_bounds_can_prove_infeasibility(self):
        # SUM >= 20 needs at least ceil(20 / max_kept) members; after
        # MAX(cost) <= 4 fixes the large values out, the refined
        # bounds require more members than survive — a second-round
        # pruning proof the single-pass pipeline could not see.
        rows = [(2.0, 1.0), (3.0, 1.0), (50.0, 1.0), (60.0, 1.0)]
        relation = _relation(rows)
        text = (
            "SELECT PACKAGE(R) FROM Red R "
            "SUCH THAT MAX(R.cost) <= 4 AND SUM(R.cost) >= 20"
        )
        reduced = evaluate(text, relation)
        baseline = evaluate(text, relation, reduce="off")
        assert baseline.status is ResultStatus.INFEASIBLE
        assert reduced.status is ResultStatus.INFEASIBLE
        assert reduced.strategy == "pruning"
        bounds_rounds = [
            entry
            for entry in reduced.stats["stages"]
            if entry["name"] == STAGE_BOUNDS
        ]
        assert len(bounds_rounds) == 2
        assert bounds_rounds[-1]["detail"]["lower"] > bounds_rounds[-1]["detail"]["upper"]

    def test_fixpoint_preserves_status_and_objective(self):
        relation = clustered_relation(1500, seed=3)
        text = (
            "SELECT PACKAGE(R) FROM Readings R "
            "SUCH THAT COUNT(*) <= 6 AND MAX(R.ts) <= 40 "
            "AND SUM(R.cost) <= 200 MAXIMIZE SUM(R.gain)"
        )
        baseline = evaluate(text, relation, reduce="off")
        reduced = evaluate(text, relation)
        assert reduced.status is baseline.status
        assert reduced.objective == baseline.objective


OPTION_SETS = [
    EngineOptions(),
    EngineOptions(rewrite=False),
    EngineOptions(reduce="off"),
    EngineOptions(reduce="aggressive"),
    EngineOptions(shards=3),
    EngineOptions(shards=4, reduce="aggressive", workers=1),
    EngineOptions(use_pruning=False),
]


class TestStageAgreement:
    """plan()'s simulated stage list matches evaluate()'s executed one."""

    @given(seed=st.integers(0, 10**6), option_index=st.integers(0, len(OPTION_SETS) - 1))
    @settings(max_examples=60, deadline=None)
    def test_agreement_on_generated_queries(self, seed, option_index):
        options = OPTION_SETS[option_index]
        recipes = generate_recipes(30, seed=11)
        text = random_query(
            "Recipes",
            {"calories": (120.0, 1600.0), "protein": (2.0, 120.0)},
            seed=seed,
        )
        evaluator = PackageQueryEvaluator(recipes)
        query = evaluator.prepare(text)
        predicted = plan(query, recipes, options=options)
        actual = evaluator.evaluate(query, options)
        simulated = [record.identity() for record in predicted.stages]
        executed = [
            (entry["name"], entry["round"], entry["skipped"])
            for entry in actual.stats["stages"]
        ]
        assert simulated == executed, (text, options)

    def test_agreement_reaches_the_fixpoint_rounds(self):
        relation = clustered_relation(1200, seed=5)
        text = (
            "SELECT PACKAGE(R) FROM Readings R "
            "SUCH THAT COUNT(*) <= 5 AND MAX(R.ts) <= 30 "
            "MAXIMIZE SUM(R.gain)"
        )
        evaluator = PackageQueryEvaluator(relation)
        query = evaluator.prepare(text)
        predicted = plan(query, relation)
        actual = evaluator.evaluate(query)
        simulated = [record.identity() for record in predicted.stages]
        executed = [
            (entry["name"], entry["round"], entry["skipped"])
            for entry in actual.stats["stages"]
        ]
        assert simulated == executed
        assert any(round_ == 2 for _, round_, _ in simulated)

    def test_agreement_on_short_circuits(self):
        relation = _relation([(2.0, 0.0), (5.0, 0.0)])
        text = "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) <= 1"
        evaluator = PackageQueryEvaluator(relation)
        query = evaluator.prepare(text)
        predicted = plan(query, relation)
        actual = evaluator.evaluate(query)
        assert actual.strategy == "reduction"
        assert predicted.chosen_strategy == "reduction"
        simulated = [record.identity() for record in predicted.stages]
        executed = [
            (entry["name"], entry["round"], entry["skipped"])
            for entry in actual.stats["stages"]
        ]
        assert simulated == executed

    def test_supplied_unsorted_rids_stay_off_the_sharded_path(self):
        # plan(candidate_rids=...) is a public entry point: unsorted
        # rids must not reach split_rids-based bounds statistics (the
        # sharded analysis assumes strictly ascending sequences).
        relation = clustered_relation(400, seed=7)
        evaluator = PackageQueryEvaluator(relation)
        query = evaluator.prepare(
            "SELECT PACKAGE(R) FROM Readings R "
            "SUCH THAT COUNT(*) <= 3 AND SUM(R.gain) >= 1 "
            "MAXIMIZE SUM(R.gain)"
        )
        rids = list(reversed(range(len(relation))))
        sharded_plan = plan(
            query, relation, candidate_rids=rids,
            options=EngineOptions(shards=8),
        )
        plain_plan = plan(query, relation, candidate_rids=rids)
        assert sharded_plan.bounds == plain_plan.bounds
        by_name = {r.name: r for r in sharded_plan.stages}
        assert by_name["zone-skip"].skipped == "candidates supplied by caller"

    def test_simulated_records_are_marked(self, meals):
        predicted = plan(
            PackageQueryEvaluator(meals).prepare(HEADLINE), meals
        )
        assert predicted.stages
        assert all(record.mode == "simulated" for record in predicted.stages)
