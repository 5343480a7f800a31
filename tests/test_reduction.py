"""Candidate-space reduction: soundness, parity, facts, dominance.

Two properties carry the subsystem:

* **Parity** — ``evaluate(reduce="safe")`` (and proof-gated
  ``reduce="aggressive"``) returns the same feasibility status and the
  same optimal objective as ``reduce="off"`` for random NaN/±inf/NULL-
  heavy data and random constraint shapes, under both exact
  strategies.  ``off`` restores the exact unreduced pipeline.

* **Fact soundness** — every tuple the reducer fixes to zero is
  absent from *every* package the validator accepts (checked
  exhaustively on small instances); forced tuples appear in every
  valid package; infeasibility proofs imply the unreduced pipeline
  also finds nothing.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineOptions, PackageQueryEvaluator, evaluate
from repro.core.package import Package
from repro.core.plan import plan
from repro.core.pruning import derive_bounds
from repro.core.reduction import REDUCE_MODES, Reduction, reduce_candidates
from repro.core.result import ResultStatus
from repro.core.validator import is_valid
from repro.datasets import clustered_relation
from repro.paql.parser import parse
from repro.paql.semantics import analyze
from repro.relational import Column, ColumnType, Relation, Schema, ShardedRelation

_SCHEMA = Schema(
    [
        Column("label", ColumnType.TEXT),
        Column("cost", ColumnType.FLOAT),
        Column("gain", ColumnType.FLOAT),
    ]
)


def _relation(rows):
    return Relation(
        "Red",
        _SCHEMA,
        [
            {"label": f"r{i}", "cost": cost, "gain": gain}
            for i, (cost, gain) in enumerate(rows)
        ],
    )


def _prepared(relation, text):
    return analyze(parse(text), relation.schema)


def _reduce(relation, text, mode="safe", sharded=None):
    query = _prepared(relation, text)
    rids = list(range(len(relation)))
    bounds = derive_bounds(query, relation, rids)
    return reduce_candidates(
        query, relation, rids, bounds, mode=mode, sharded=sharded
    )


# ---------------------------------------------------------------------------
# Unit coverage: variable fixing per conjunct shape
# ---------------------------------------------------------------------------


class TestVariableFixing:
    def test_min_ge_fixes_below_threshold(self):
        relation = _relation([(1.0, 0), (4.0, 0), (9.0, 0)])
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) >= 4")
        assert red.kept_rids == [1, 2]
        assert red.fixed == 1

    def test_max_le_fixes_above_threshold(self):
        relation = _relation([(1.0, 0), (4.0, 0), (9.0, 0)])
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT MAX(R.cost) <= 4")
        assert red.kept_rids == [0, 1]

    def test_strict_comparisons_fix_the_boundary(self):
        relation = _relation([(1.0, 0), (4.0, 0), (9.0, 0)])
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) > 4")
        assert red.kept_rids == [2]
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT MAX(R.cost) < 4")
        assert red.kept_rids == [0]

    def test_minmax_eq_fixes_one_side_and_finds_witness(self):
        relation = _relation([(1.0, 0), (4.0, 0), (9.0, 0)])
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) = 4")
        assert red.kept_rids == [1, 2]  # below the threshold is fixed
        assert red.forced_rids == (1,)  # the only exact witness

    def test_boundary_noise_within_validator_tolerance_is_kept(self):
        # The validator accepts MIN = 10*(1 - 1e-10) against >= 10, so
        # the reducer must keep that tuple (fixing it would exclude an
        # oracle-acceptable package).
        near = 10.0 * (1.0 - 1e-10)
        relation = _relation([(near, 0), (5.0, 0), (12.0, 0)])
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) >= 10")
        assert red.kept_rids == [0, 2]

    def test_sum_le_fixes_single_tuple_violators(self):
        relation = _relation([(30.0, 0), (80.0, 0), (50.0, 0)])
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT SUM(R.cost) <= 60")
        assert red.kept_rids == [0, 2]

    def test_sum_le_respects_negative_contributions(self):
        # 80 alone violates SUM <= 60, but packing the -30 tuple with
        # it satisfies the bound — nothing may be fixed.
        relation = _relation([(-30.0, 0), (80.0, 0), (50.0, 0)])
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT SUM(R.cost) <= 60")
        assert red.kept_rids == [0, 1, 2]

    def test_sum_ge_fixes_unreachable_tuples(self):
        # Total achievable sum with the -100 tuple is 30 - 100 < 20.
        relation = _relation([(-100.0, 0), (10.0, 0), (20.0, 0)])
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT SUM(R.cost) >= 20")
        assert red.kept_rids == [1, 2]

    def test_null_contributes_zero_to_sum_fixing(self):
        relation = _relation([(None, 0), (80.0, 0)])
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT SUM(R.cost) <= 60")
        assert red.kept_rids == [0]

    def test_count_expr_le_zero_fixes_nonnull_tuples(self):
        relation = _relation([(None, 0), (3.0, 0), (None, 0)])
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT COUNT(R.cost) <= 0")
        assert red.kept_rids == [0, 2]

    def test_repeat_scales_the_rest_interval(self):
        # With REPEAT 2 the -20 tuple can absorb twice, so 90 still
        # fits under SUM <= 60; with REPEAT 1 it cannot.
        relation = _relation([(-20.0, 0), (90.0, 0)])
        red = _reduce(
            relation,
            "SELECT PACKAGE(R) FROM Red R REPEAT 2 SUCH THAT SUM(R.cost) <= 60",
        )
        assert red.kept_rids == [0, 1]
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT SUM(R.cost) <= 60")
        assert red.kept_rids == [0]

    def test_nan_data_vetoes_the_conjunct(self):
        relation = _relation([(math.nan, 0), (1.0, 0), (9.0, 0)])
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) >= 4")
        assert red.kept_rids == [0, 1, 2]
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT SUM(R.cost) <= 4")
        assert red.kept_rids == [0, 1, 2]

    def test_infinite_data_follows_validator_semantics(self):
        relation = _relation([(-math.inf, 0), (5.0, 0), (math.inf, 0)])
        # Non-strict: the validator's relative slack is infinite at
        # |-inf|, so it accepts *any* package containing the -inf
        # tuple — including ones carrying otherwise-fixable members —
        # and the conjunct must derive nothing.  Strict comparisons
        # stay exact and fix normally.
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) >= 0")
        assert red.kept_rids == [0, 1, 2]
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) > 0")
        assert red.kept_rids == [1, 2]

    def test_neg_inf_member_shields_finite_violators(self):
        # Regression (found by the parity property): {-inf, -1} is
        # validator-accepted against MIN >= 0 (infinite slack), so the
        # -1 tuple must NOT be fixed — fixing it changed the optimal
        # objective from 1.0 to 0.0.
        relation = _relation([(-math.inf, None), (-1.0, 1.0), (None, None)])
        text = (
            "SELECT PACKAGE(R) FROM Red R SUCH THAT COUNT(*) <= 2 "
            "AND MIN(R.cost) >= 0 MAXIMIZE SUM(R.gain)"
        )
        red = _reduce(relation, text)
        assert red.kept_rids == [0, 1, 2]
        options = EngineOptions(strategy="brute-force", reduce="off")
        baseline = evaluate(text, relation, options=options)
        reduced = evaluate(text, relation, options=options, reduce="safe")
        assert reduced.status is baseline.status
        assert reduced.objective == baseline.objective == 1.0

    def test_neg_inf_vetoes_the_zone_path_too(self):
        rows = [(float(i), 1.0) for i in range(16)]
        rows[0] = (-math.inf, 1.0)
        relation = _relation(rows)
        sharded = ShardedRelation(relation, 4)
        text = "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) >= 8"
        zoned = _reduce(relation, text, sharded=sharded)
        plain = _reduce(relation, text)
        assert zoned.fixed == plain.fixed == 0
        # The mirrored hazard: +inf data under a non-strict MAX bound.
        rows[0] = (math.inf, 1.0)
        relation = _relation(rows)
        zoned = _reduce(
            relation,
            "SELECT PACKAGE(R) FROM Red R SUCH THAT MAX(R.cost) <= 8",
            sharded=ShardedRelation(relation, 4),
        )
        assert zoned.fixed == 0

    def test_off_mode_is_identity(self):
        relation = _relation([(1.0, 0), (9.0, 0)])
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) >= 4", mode="off")
        assert red.kept_rids == [0, 1]
        assert red.removed == 0

    def test_unknown_mode_raises(self):
        relation = _relation([(1.0, 0)])
        with pytest.raises(ValueError, match="unknown reduce mode"):
            _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT COUNT(*) = 1", mode="bogus")
        assert "bogus" not in REDUCE_MODES


# ---------------------------------------------------------------------------
# Witness facts: forcing and infeasibility proofs
# ---------------------------------------------------------------------------


class TestWitnessFacts:
    def test_singleton_witness_is_forced(self):
        relation = _relation([(2.0, 0), (5.0, 0), (7.0, 0)])
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) <= 3")
        assert red.forced_rids == (0,)

    def test_empty_witness_set_proves_infeasibility(self):
        relation = _relation([(2.0, 0), (5.0, 0)])
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) <= 1")
        assert red.infeasible
        assert "witness" in red.infeasible_reason

    def test_support_emptiness_after_fixing_proves_infeasibility(self):
        # Every candidate is fixed by the bad set, so the non-NULL
        # support required by MIN >= c cannot be provided.
        relation = _relation([(2.0, 0), (3.0, 0)])
        red = _reduce(relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) >= 10")
        assert red.infeasible

    def test_engine_short_circuits_on_the_proof(self):
        relation = _relation([(2.0, 0), (5.0, 0)])
        result = evaluate(
            "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) <= 1", relation
        )
        assert result.status is ResultStatus.INFEASIBLE
        assert result.strategy == "reduction"
        assert "infeasible" in result.stats["reduction"]
        baseline = evaluate(
            "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) <= 1",
            relation,
            reduce="off",
        )
        assert baseline.status is ResultStatus.INFEASIBLE

    def test_forced_rid_becomes_an_ilp_lower_bound(self):
        relation = _relation([(2.0, 1.0), (5.0, 2.0), (7.0, 3.0)])
        evaluator = PackageQueryEvaluator(relation)
        query = evaluator.prepare(
            "SELECT PACKAGE(R) FROM Red R "
            "SUCH THAT MIN(R.cost) <= 3 AND COUNT(*) <= 2 MAXIMIZE SUM(R.gain)"
        )
        ctx = evaluator.context(query, EngineOptions())
        assert ctx.forced_rids == (0,)
        translation = ctx.translation()
        by_rid = dict(
            zip(translation.candidate_rids.tolist(), translation.x_vars.tolist())
        )
        assert translation.model.variables[by_rid[0]].lower == 1.0
        result = evaluator.evaluate(query, EngineOptions(strategy="ilp"))
        assert result.package.multiplicity(0) >= 1


# ---------------------------------------------------------------------------
# Zone fast path: whole-shard fixing without scanning
# ---------------------------------------------------------------------------


class TestZoneFastPath:
    def _clustered(self, n=400):
        return clustered_relation(n, seed=7)

    def test_whole_shards_fixed_without_scanning(self):
        relation = self._clustered()
        sharded = ShardedRelation(relation, 10)
        text = (
            "SELECT PACKAGE(R) FROM Readings R "
            "SUCH THAT MAX(R.ts) <= 30 AND COUNT(*) <= 5 MAXIMIZE SUM(R.gain)"
        )
        query = _prepared(relation, text)
        rids = list(range(len(relation)))
        bounds = derive_bounds(query, relation, rids)
        plain = reduce_candidates(query, relation, rids, bounds)
        zoned = reduce_candidates(
            query, relation, rids, bounds, sharded=sharded
        )
        assert zoned.kept_rids == plain.kept_rids
        assert zoned.zone_shards_fixed > 0
        # ts is append-ordered: only the boundary shard straddles.
        assert zoned.zone_shards_scanned <= 1

    def test_partial_candidate_coverage_stays_sound(self):
        # Zone stats describe all rows; the candidate subset from a
        # WHERE must still reduce to exactly the unsharded answer.
        relation = self._clustered()
        text = (
            "SELECT PACKAGE(R) FROM Readings R WHERE R.cost <= 80 "
            "SUCH THAT MAX(R.ts) <= 55 AND COUNT(*) <= 4 MAXIMIZE SUM(R.gain)"
        )
        baseline = evaluate(text, relation, reduce="safe")
        sharded = evaluate(text, relation, reduce="safe", shards=8)
        assert sharded.status is baseline.status
        assert sharded.objective == baseline.objective
        assert sharded.package.counts == baseline.package.counts
        assert sharded.stats["reduction"]["kept"] == (
            baseline.stats["reduction"]["kept"]
        )

    def test_two_conjuncts_scanning_one_shard_accumulate_fixings(self):
        # Regression: the zone scan path must OR into the fixing mask.
        # Both conjuncts straddle the single shard, so the second scan
        # used to overwrite the first conjunct's fixings.
        relation = _relation([(float(v), 1.0) for v in range(8)])
        sharded = ShardedRelation(relation, 1)
        text = (
            "SELECT PACKAGE(R) FROM Red R "
            "SUCH THAT MIN(R.cost) >= 2 AND MAX(R.cost) <= 5"
        )
        plain = _reduce(relation, text)
        zoned = _reduce(relation, text, sharded=sharded)
        assert plain.kept_rids == [2, 3, 4, 5]
        assert zoned.kept_rids == plain.kept_rids

    def test_unsorted_rids_fall_back_to_the_single_pass_path(self):
        # Shard-order splitting needs ascending rids; a public caller
        # passing them out of order must still get sound fixings.
        relation = _relation([(float(v), 1.0) for v in range(6)])
        sharded = ShardedRelation(relation, 2)
        query = _prepared(
            relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) >= 3"
        )
        rids = [5, 4, 3, 2, 1, 0]
        bounds = derive_bounds(query, relation, rids)
        red = reduce_candidates(
            query, relation, rids, bounds, sharded=sharded
        )
        assert sorted(red.kept_rids) == [3, 4, 5]

    def test_nan_poisoned_zone_vetoes_the_conjunct(self):
        rows = [(float(i), 1.0) for i in range(20)]
        rows[3] = (math.nan, 1.0)
        relation = _relation(rows)
        sharded = ShardedRelation(relation, 4)
        red = _reduce(
            relation,
            "SELECT PACKAGE(R) FROM Red R SUCH THAT MAX(R.cost) <= 5",
            sharded=sharded,
        )
        assert red.fixed == 0  # NaN data: derive nothing

    @pytest.mark.parametrize("shards", [1, 3, 16])
    def test_end_to_end_shard_fixing_parity(self, shards):
        """The satellite regression: shard-level fixing never changes
        the evaluated package, objective, bounds, or status."""
        relation = self._clustered(600)
        text = (
            "SELECT PACKAGE(R) FROM Readings R "
            "SUCH THAT MAX(R.ts) <= 42 AND COUNT(*) <= 6 MAXIMIZE SUM(R.gain)"
        )
        baseline = evaluate(text, relation, reduce="off")
        reduced = evaluate(text, relation, reduce="safe", shards=shards)
        assert reduced.status is baseline.status
        assert reduced.objective == baseline.objective
        assert reduced.package.counts == baseline.package.counts
        assert reduced.bounds == baseline.bounds
        assert reduced.candidate_count == baseline.candidate_count


# ---------------------------------------------------------------------------
# Dominance pruning
# ---------------------------------------------------------------------------


class TestDominance:
    def test_duplicates_collapse_to_the_cardinality_bound(self):
        relation = _relation([(5.0, 2.0)] * 10)
        red = _reduce(
            relation,
            "SELECT PACKAGE(R) FROM Red R "
            "SUCH THAT COUNT(*) <= 2 MAXIMIZE SUM(R.gain)",
            mode="aggressive",
        )
        assert len(red.kept_rids) == 2
        assert red.dominance == "applied"

    def test_safe_mode_never_dominates(self):
        relation = _relation([(5.0, 2.0)] * 10)
        red = _reduce(
            relation,
            "SELECT PACKAGE(R) FROM Red R "
            "SUCH THAT COUNT(*) <= 2 MAXIMIZE SUM(R.gain)",
            mode="safe",
        )
        assert red.dominated == 0
        assert red.dominance == "not requested"

    def test_requires_an_objective(self):
        relation = _relation([(5.0, 2.0)] * 10)
        red = _reduce(
            relation,
            "SELECT PACKAGE(R) FROM Red R SUCH THAT COUNT(*) <= 2",
            mode="aggressive",
        )
        assert red.dominated == 0
        assert red.dominance.startswith("skipped: no objective")

    def test_loose_cardinality_bound_blocks_the_proof(self):
        relation = _relation([(5.0, 2.0)] * 10)
        red = _reduce(
            relation,
            "SELECT PACKAGE(R) FROM Red R "
            "SUCH THAT SUM(R.cost) >= 0 MAXIMIZE SUM(R.gain)",
            mode="aggressive",
        )
        assert red.dominated == 0
        assert "cardinality bound too loose" in red.dominance

    def test_unanalyzable_conjunct_blocks_dominance_not_fixing(self):
        # A disjunctive global constraint has no per-tuple dominance
        # direction; fixing from the other conjuncts must still run.
        relation = _relation([(1.0, 2.0), (9.0, 2.0), (9.5, 2.0)])
        red = _reduce(
            relation,
            "SELECT PACKAGE(R) FROM Red R "
            "SUCH THAT MAX(R.cost) <= 5 "
            "AND (SUM(R.gain) >= 1 OR COUNT(*) >= 1) "
            "AND COUNT(*) <= 1 MAXIMIZE SUM(R.gain)",
            mode="aggressive",
        )
        assert red.fixed == 2  # MAX fixing still ran
        assert red.dominance.startswith("skipped:")

    def test_avg_conjunct_contributes_dominance_keys(self):
        # Identical AVG contributions and nullity: dominance collapses
        # the duplicates to the cardinality bound, and the optimum is
        # preserved (AVG <= c is the sum of (value - c) contributions).
        relation = _relation([(10.0, 2.0)] * 10)
        red = _reduce(
            relation,
            "SELECT PACKAGE(R) FROM Red R "
            "SUCH THAT COUNT(*) <= 2 AND AVG(R.cost) <= 15 "
            "MAXIMIZE SUM(R.gain)",
            mode="aggressive",
        )
        assert red.dominance == "applied"
        assert len(red.kept_rids) == 2

    def test_avg_dominance_preserves_the_optimum(self):
        rng = np.random.default_rng(17)
        rows = [
            (float(rng.uniform(1, 50)), float(rng.uniform(0, 10)))
            for _ in range(200)
        ]
        relation = _relation(rows)
        text = (
            "SELECT PACKAGE(R) FROM Red R "
            "SUCH THAT COUNT(*) <= 4 AND AVG(R.cost) <= 20 "
            "MAXIMIZE SUM(R.gain)"
        )
        baseline = evaluate(
            text, relation, options=EngineOptions(strategy="ilp"), reduce="off"
        )
        reduced = evaluate(
            text,
            relation,
            options=EngineOptions(strategy="ilp"),
            reduce="aggressive",
        )
        assert reduced.status is baseline.status is ResultStatus.OPTIMAL
        assert reduced.objective == pytest.approx(baseline.objective, abs=2e-9)
        assert reduced.stats["reduction"]["dominated"] > 100
        assert reduced.stats["reduction"]["dominance"] == "applied"

    def test_avg_dominance_applies_past_the_pairwise_limit(self):
        # On NULL-free data the AVG support indicator is constant, so
        # it must not count as a second ordered key dimension (which
        # would trip DOMINANCE_PAIRWISE_LIMIT above 4096 candidates).
        n = 4200
        relation = _relation(
            [(float(i % 37), float(i % 11)) for i in range(n)]
        )
        red = _reduce(
            relation,
            "SELECT PACKAGE(R) FROM Red R "
            "SUCH THAT COUNT(*) <= 3 AND AVG(R.cost) <= 20 "
            "MAXIMIZE SUM(R.gain)",
            mode="aggressive",
        )
        assert red.dominance == "applied"
        assert red.dominated > 0

    def test_avg_nonfinite_data_blocks_dominance(self):
        relation = _relation([(math.inf, 2.0), (5.0, 2.0), (6.0, 2.0)])
        red = _reduce(
            relation,
            "SELECT PACKAGE(R) FROM Red R "
            "SUCH THAT COUNT(*) <= 1 AND AVG(R.cost) <= 20 "
            "MAXIMIZE SUM(R.gain)",
            mode="aggressive",
        )
        assert red.dominated == 0
        assert "non-finite AVG data" in red.dominance

    def test_avg_support_witness_facts(self):
        # AVG of zero non-NULL members is NULL, so the conjunct needs
        # non-NULL support: all-NULL candidates prove infeasibility,
        # a singleton non-NULL candidate is forced.
        relation = _relation([(None, 1.0), (None, 2.0)])
        red = _reduce(
            relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT AVG(R.cost) <= 5"
        )
        assert red.infeasible
        relation = _relation([(None, 1.0), (3.0, 2.0)])
        red = _reduce(
            relation, "SELECT PACKAGE(R) FROM Red R SUCH THAT AVG(R.cost) <= 5"
        )
        assert red.forced_rids == (1,)
        baseline = evaluate(
            "SELECT PACKAGE(R) FROM Red R SUCH THAT AVG(R.cost) <= 5",
            _relation([(None, 1.0), (None, 2.0)]),
            reduce="off",
            options=EngineOptions(strategy="brute-force"),
        )
        assert baseline.status is ResultStatus.INFEASIBLE

    def test_forced_tuples_are_never_dominated(self):
        # Row 0 is the only MIN witness but has the worst gain; every
        # other row dominates it on the objective, yet it must stay.
        relation = _relation([(1.0, 0.1)] + [(2.0, 9.0)] * 8)
        red = _reduce(
            relation,
            "SELECT PACKAGE(R) FROM Red R "
            "SUCH THAT MIN(R.cost) <= 1 AND COUNT(*) <= 2 "
            "MAXIMIZE SUM(R.gain)",
            mode="aggressive",
        )
        assert 0 in red.kept_rids
        assert red.forced_rids == (0,)

    def test_knapsack_dominance_preserves_the_optimum(self):
        rng = np.random.default_rng(3)
        rows = [
            (float(rng.uniform(1, 50)), float(rng.uniform(0, 10)))
            for _ in range(300)
        ]
        relation = _relation(rows)
        text = (
            "SELECT PACKAGE(R) FROM Red R "
            "SUCH THAT COUNT(*) <= 4 AND SUM(R.cost) <= 60 "
            "MAXIMIZE SUM(R.gain)"
        )
        baseline = evaluate(
            text, relation, options=EngineOptions(strategy="ilp"), reduce="off"
        )
        reduced = evaluate(
            text,
            relation,
            options=EngineOptions(strategy="ilp"),
            reduce="aggressive",
        )
        assert reduced.status is baseline.status is ResultStatus.OPTIMAL
        assert reduced.objective == pytest.approx(baseline.objective, abs=2e-9)
        assert reduced.stats["reduction"]["dominated"] > 200


# ---------------------------------------------------------------------------
# Exhaustive fact soundness on small instances
# ---------------------------------------------------------------------------


def _all_valid_packages(query, relation):
    rids = range(len(relation))
    for size in range(len(relation) + 1):
        for combo in itertools.combinations(rids, size):
            package = Package(relation, list(combo))
            if is_valid(package, query):
                yield set(combo)


class TestFactSoundness:
    @given(
        costs=st.lists(
            st.one_of(
                st.none(),
                st.integers(min_value=-6, max_value=12).map(float),
            ),
            min_size=1,
            max_size=6,
        ),
        template=st.sampled_from(
            [
                "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) >= {t}",
                "SELECT PACKAGE(R) FROM Red R SUCH THAT MAX(R.cost) <= {t}",
                "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) <= {t}",
                "SELECT PACKAGE(R) FROM Red R SUCH THAT SUM(R.cost) <= {t}",
                "SELECT PACKAGE(R) FROM Red R SUCH THAT SUM(R.cost) >= {t}",
                "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) = {t}",
            ]
        ),
        threshold=st.integers(min_value=-4, max_value=10),
    )
    @settings(max_examples=120, deadline=None)
    def test_fixed_tuples_appear_in_no_valid_package(
        self, costs, template, threshold
    ):
        relation = _relation([(cost, 0.0) for cost in costs])
        text = template.format(t=threshold)
        query = _prepared(relation, text)
        red = _reduce(relation, text)
        kept = set(red.kept_rids)
        fixed = set(range(len(relation))) - kept
        forced = set(red.forced_rids)
        valid_packages = list(_all_valid_packages(query, relation))
        for package in valid_packages:
            assert not (package & fixed), (costs, text, package, fixed)
            assert forced <= package, (costs, text, package, forced)
        if red.infeasible:
            assert not valid_packages, (costs, text, valid_packages)


# ---------------------------------------------------------------------------
# End-to-end parity property (the headline invariant)
# ---------------------------------------------------------------------------

_PARITY_TEMPLATES = (
    "SELECT PACKAGE(R) FROM Red R SUCH THAT COUNT(*) <= {k} "
    "AND MIN(R.cost) >= {a} MAXIMIZE SUM(R.gain)",
    "SELECT PACKAGE(R) FROM Red R SUCH THAT COUNT(*) <= {k} "
    "AND MAX(R.cost) <= {b} MAXIMIZE SUM(R.gain)",
    "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) <= {a} "
    "AND COUNT(*) BETWEEN 1 AND {k}",
    "SELECT PACKAGE(R) FROM Red R SUCH THAT SUM(R.cost) <= {c} "
    "AND COUNT(*) <= {k} MAXIMIZE SUM(R.gain)",
    "SELECT PACKAGE(R) FROM Red R SUCH THAT SUM(R.cost) >= {c} "
    "AND COUNT(*) <= {k} MINIMIZE SUM(R.cost)",
    "SELECT PACKAGE(R) FROM Red R SUCH THAT MAX(R.cost) < {b} "
    "AND MIN(R.gain) > {a} AND COUNT(*) <= {k} MAXIMIZE SUM(R.gain)",
    "SELECT PACKAGE(R) FROM Red R SUCH THAT MIN(R.cost) = {a} "
    "AND COUNT(*) <= {k}",
    "SELECT PACKAGE(R) FROM Red R SUCH THAT COUNT(R.cost) >= {w} "
    "AND COUNT(*) <= {k} MAXIMIZE SUM(R.gain)",
    "SELECT PACKAGE(R) FROM Red R WHERE R.cost >= {a} "
    "SUCH THAT SUM(R.cost) BETWEEN {a} AND {c} MAXIMIZE SUM(R.gain)",
    # AVG conjuncts: dominance keys (aggressive) + support witnesses.
    "SELECT PACKAGE(R) FROM Red R SUCH THAT COUNT(*) <= {k} "
    "AND AVG(R.cost) <= {b} MAXIMIZE SUM(R.gain)",
    "SELECT PACKAGE(R) FROM Red R SUCH THAT COUNT(*) <= {k} "
    "AND AVG(R.cost) >= {a} MINIMIZE SUM(R.cost)",
    "SELECT PACKAGE(R) FROM Red R SUCH THAT AVG(R.cost) = {a} "
    "AND COUNT(*) <= {k} MAXIMIZE SUM(R.gain)",
)


@st.composite
def parity_cases(draw):
    n = draw(st.integers(min_value=1, max_value=18))
    # NaN and ±inf are legitimate FLOAT data (distinct from NULL); the
    # reducer must derive nothing unsound from them.
    value = st.one_of(
        st.none(),
        st.floats(
            allow_nan=False, allow_infinity=False, min_value=-30, max_value=30
        ),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    rows = [(draw(value), draw(value)) for _ in range(n)]
    template = draw(st.sampled_from(_PARITY_TEMPLATES))
    text = template.format(
        k=draw(st.integers(min_value=1, max_value=4)),
        a=draw(st.integers(min_value=-10, max_value=20)),
        b=draw(st.integers(min_value=-10, max_value=20)),
        c=draw(st.integers(min_value=-20, max_value=60)),
        w=draw(st.integers(min_value=0, max_value=3)),
    )
    strategy = draw(st.sampled_from(["brute-force", "ilp"]))
    mode = draw(st.sampled_from(["safe", "aggressive"]))
    return rows, text, strategy, mode


def _same_objective(left, right, exact):
    if left is None or right is None:
        return left is None and right is None
    if math.isnan(left) or math.isnan(right):
        return math.isnan(left) and math.isnan(right)
    if exact:
        return left == right
    # The solver's own bound-pruning slack (1e-9 absolute) already
    # allows equal-optimal models to land within that band of each
    # other; reduction must not be held to a tighter bar than the
    # solver itself.
    return left == pytest.approx(right, rel=1e-9, abs=2e-9)


class TestReductionParity:
    @given(case=parity_cases())
    @settings(max_examples=150, deadline=None)
    def test_reduction_preserves_status_and_objective(self, case):
        rows, text, strategy, mode = case
        relation = _relation(rows)
        options = EngineOptions(strategy=strategy, reduce="off")
        try:
            baseline = evaluate(text, relation, options=options)
        except Exception:
            # Shapes the unreduced pipeline cannot evaluate (e.g. NaN
            # coefficients in the explicit ILP) are out of scope: the
            # invariant under test is that reduction changes nothing.
            assume(False)
        reduced = evaluate(text, relation, options=options, reduce=mode)

        assert reduced.found == baseline.found, (rows, text, mode)
        assert reduced.status is baseline.status, (rows, text, mode)
        # Brute force under safe mode is float-exact: the unreduced
        # optimal package itself survives fixing.
        exact = strategy == "brute-force" and mode == "safe"
        assert _same_objective(reduced.objective, baseline.objective, exact), (
            rows,
            text,
            strategy,
            mode,
            baseline.objective,
            reduced.objective,
        )
        if reduced.found:
            assert is_valid(reduced.package, reduced.query)

    def test_off_restores_the_unreduced_pipeline(self):
        relation = _relation([(2.0, 1.0), (8.0, 3.0), (20.0, 9.0)])
        text = (
            "SELECT PACKAGE(R) FROM Red R SUCH THAT MAX(R.cost) <= 10 "
            "AND COUNT(*) <= 2 MAXIMIZE SUM(R.gain)"
        )
        result = evaluate(text, relation, reduce="off")
        assert "reduction" not in result.stats
        assert result.candidate_count == 3


# ---------------------------------------------------------------------------
# Plan and stats surfaces
# ---------------------------------------------------------------------------


class TestSurfaces:
    def test_plan_reports_the_reduced_scan(self):
        relation = _relation([(2.0, 1.0), (8.0, 3.0), (20.0, 9.0)])
        query = _prepared(
            relation,
            "SELECT PACKAGE(R) FROM Red R SUCH THAT MAX(R.cost) <= 10 "
            "AND COUNT(*) <= 2 MAXIMIZE SUM(R.gain)",
        )
        report = plan(query, relation)
        assert report.candidate_count == 3
        assert report.reduction["kept"] == 2
        text = report.text()
        assert "reduced scan: kept 2 of 3 candidates" in text

    def test_plan_agrees_with_engine_stats(self):
        relation = _relation([(2.0, 1.0), (8.0, 3.0), (20.0, 9.0)])
        text = (
            "SELECT PACKAGE(R) FROM Red R SUCH THAT MAX(R.cost) <= 10 "
            "AND COUNT(*) <= 2 MAXIMIZE SUM(R.gain)"
        )
        query = _prepared(relation, text)
        report = plan(query, relation)
        result = evaluate(text, relation)
        assert result.stats["reduction"]["kept"] == report.reduction["kept"]
        assert result.stats["reduction"]["fixed"] == report.reduction["fixed"]
        assert result.candidate_count == report.candidate_count

    def test_reduction_stats_present_even_when_nothing_removed(self):
        relation = _relation([(2.0, 1.0), (3.0, 1.0)])
        result = evaluate(
            "SELECT PACKAGE(R) FROM Red R SUCH THAT COUNT(*) <= 1 "
            "MAXIMIZE SUM(R.gain)",
            relation,
        )
        assert result.stats["reduction"]["fixed"] == 0
        assert result.stats["reduction"]["kept"] == 2

    def test_reduction_dataclass_roundtrip(self):
        red = Reduction(
            mode="safe",
            input_count=4,
            kept_rids=[0, 1],
            fixed=2,
            dominated=0,
            forced_rids=(1,),
            infeasible_reason=None,
            zone_shards_fixed=1,
            zone_shards_cleared=0,
            zone_shards_scanned=1,
            dominance="not requested",
            elapsed_seconds=0.0,
        )
        stats = red.stats()
        assert stats["zone"]["fixed_shards"] == 1
        assert red.removed == 2
        assert not red.infeasible
