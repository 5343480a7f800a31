"""Candidate-space reduction: shrink the problem before any strategy runs.

Every strategy pays per candidate — the ILP translation builds one
variable per tuple, branch and bound prices all of them at every node,
brute force enumerates over them, local search scores moves against
them.  This module runs between WHERE filtering and strategy dispatch
and removes candidates the global constraints already decide, so *all*
strategies face a smaller problem instead of each rediscovering the
same facts (the MIN/MAX set encodings used to be trapped inside the
ILP translation, invisible to every other strategy).

Three cooperating passes over the columnar substrate:

1. **Variable fixing** (``safe`` and ``aggressive``).  From each
   top-level conjunct of the normalized SUCH THAT formula, prove
   ``x_j = 0`` for individual tuples:

   * MIN/MAX comparisons fix out their "bad" sets — the same sets the
     ILP translator encodes as ``sum(x_bad) <= 0`` rows, derived from
     the shared :func:`~repro.core.translate_ilp.minmax_plan` so the
     two can never drift.  With a :class:`ShardedRelation` in force,
     a zone-map fast path classifies whole shards from their cached
     min/max statistics — an all-bad shard is fixed out *without
     scanning it*.
   * SUM/COUNT comparisons fix tuples whose single membership already
     forces the aggregate outside the satisfiable interval (the
     achievable-sum interval of any package containing the tuple is
     disjoint from what the comparison accepts).

   Thresholds are widened by the validator's boundary tolerance on
   non-strict comparisons, so a tuple is fixed only when **no**
   package the oracle would accept can contain it — fixing never
   changes feasibility status or optimal objective.

   Witness-shaped conjuncts (``MIN(e) <= c`` needs a member with
   ``e <= c``; the ALL-shaped forms need non-NULL support) yield two
   further fact kinds: an **empty** witness set is an infeasibility
   proof (the engine short-circuits exactly like empty cardinality
   bounds), and a **singleton** witness set forces ``x_j >= 1``, which
   the ILP translation turns into a variable lower bound.

2. **Dominance pruning** (``aggressive`` only, objective queries).
   Tuple ``k`` dominates ``j`` when it is weakly better on the
   per-tuple objective contribution and on every constraint-relevant
   direction (``<=`` on SUM-LE contributions, ``>=`` on SUM-GE, equal
   on equalities, non-NULL-preserving on support dimensions).  ``j``
   is removed only when enough *kept* dominators exist that any
   package containing ``j`` can swap it for an unsaturated dominator:
   ``floor((u - 1) / repeat) + 1`` of them, with ``u`` the cardinality
   upper bound — which is the conservative eligibility analysis that
   proves at least one optimal package survives.  When any conjunct
   or the objective falls outside the analyzable fragment, dominance
   is skipped entirely (the reason is surfaced in the stats); it never
   runs unproven.

3. The kept candidates, forced tuples, and reduction statistics feed
   the strategies through the
   :class:`~repro.core.strategies.base.EvaluationContext` — and the
   greedy incumbent built over the reduced set warm-starts branch and
   bound (see :mod:`repro.solver.branch_and_bound`).

Soundness invariants (property-tested in ``tests/test_reduction.py``):
``safe`` and proof-gated ``aggressive`` reduction never change the
feasibility status or the optimal objective of any query; ``off``
restores the exact unreduced pipeline.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.paql import ast
from repro.paql.errors import PaQLUnsupportedError
from repro.core.formula import conjunctive_leaves, normalize_formula
from repro.core.pruning import match_aggregate_comparison
from repro.core.translate_ilp import ILPTranslationError, minmax_plan
from repro.core.validator import DEFAULT_TOLERANCE
from repro.core.vectorize import UnsupportedExpression, evaluator_for
from repro.relational.content_hash import rids_fingerprint

__all__ = [
    "REDUCE_MODES",
    "Reduction",
    "apply_reduction",
    "merge_reductions",
    "minmax_fixing_sql",
    "reduce_candidates",
    "reduction_gate_reason",
    "zones_block_minmax_fixing",
]

#: Recognized ``EngineOptions.reduce`` spellings.
REDUCE_MODES = ("off", "safe", "aggressive")

#: Below this many candidates the value-extraction pass runs serially
#: even when a ShardedRelation is in force (pool dispatch would cost
#: more than the scan); matches the pruner's statistics threshold.
SHARD_REDUCTION_MIN_CANDIDATES = 32768

#: Dominance with two or more ordered key dimensions counts dominators
#: pairwise (quadratic); past this many kept candidates it is skipped.
DOMINANCE_PAIRWISE_LIMIT = 4096


@dataclass
class Reduction:
    """The outcome of reducing one candidate set.

    Attributes:
        mode: the mode that ran (``safe`` | ``aggressive``).
        input_count: candidates before reduction.
        kept_rids: candidates surviving reduction, in input order.
        fixed: tuples removed by constraint-driven variable fixing.
        dominated: tuples removed by dominance pruning.
        forced_rids: rids proven present (``x_j >= 1``) in every
            package the validator would accept.
        infeasible_reason: a proof that no valid package exists
            (``None`` when none was found); the engine short-circuits
            on it like empty cardinality bounds.
        zone_shards_fixed: shards fixed out wholesale from zone
            statistics, without scanning their rows.
        zone_shards_cleared: shards zone statistics proved fully
            bad-free (also unscanned).
        zone_shards_scanned: shards that needed a kernel scan.
        dominance: ``"applied"``, ``"not requested"`` (safe mode), or
            ``"skipped: <reason>"`` when the eligibility analysis
            could not prove an optimal package survives.
        elapsed_seconds: wall-clock spent reducing.
        rounds: fixpoint rounds merged into this record (the pipeline's
            prune/reduce loop re-derives bounds over the kept set and
            re-reduces; see :mod:`repro.core.pipeline`).
    """

    mode: str
    input_count: int
    kept_rids: list
    fixed: int
    dominated: int
    forced_rids: tuple
    infeasible_reason: str | None
    zone_shards_fixed: int
    zone_shards_cleared: int
    zone_shards_scanned: int
    dominance: str
    elapsed_seconds: float
    rounds: int = 1

    @property
    def infeasible(self):
        return self.infeasible_reason is not None

    @property
    def removed(self):
        return self.fixed + self.dominated

    def stats(self):
        """The ``stats["reduction"]`` payload."""
        out = {
            "mode": self.mode,
            "input": self.input_count,
            "kept": len(self.kept_rids),
            "fixed": self.fixed,
            "dominated": self.dominated,
            "forced": len(self.forced_rids),
            "dominance": self.dominance,
        }
        if self.rounds > 1:
            out["rounds"] = self.rounds
        if self.zone_shards_fixed or self.zone_shards_scanned:
            out["zone"] = {
                "fixed_shards": self.zone_shards_fixed,
                "cleared_shards": self.zone_shards_cleared,
                "scanned_shards": self.zone_shards_scanned,
            }
        if self.infeasible_reason is not None:
            out["infeasible"] = self.infeasible_reason
        return out


def reduction_gate_reason(query, candidate_rids, bounds, options):
    """Why reduction would be skipped for this evaluation, or ``None``.

    The single gate shared by the engine and the planner (through
    :mod:`repro.core.pipeline`), so the two can never gate differently
    — and the skip reason is what both record in the stage IR.
    """
    if options.reduce == "off":
        return "reduction disabled (reduce=off)"
    if query.such_that is None:
        return "no global constraints"
    if not candidate_rids:
        return "no candidates to reduce"
    if bounds.empty:
        return "cardinality bounds are empty"
    return None


def apply_reduction(
    query,
    relation,
    candidate_rids,
    bounds,
    options,
    sharded=None,
    artifacts=None,
    shm=None,
):
    """The pipeline's reduction stage: gate, run, and unpack.

    Skips (returning ``(candidate_rids, None)``) whenever
    :func:`reduction_gate_reason` says so: mode ``off``, no global
    constraints, no candidates, or cardinality bounds already empty
    (the engine short-circuits on those first).

    Args:
        artifacts: optional
            :class:`~repro.core.session.ArtifactCache` — its ``facts``
            layer reuses per-conjunct facts (fixing masks, witness
            sets, dominance keys) across queries sharing a conjunct
            over the same candidate set.

    Returns:
        ``(kept_rids, reduction)`` where ``reduction`` is the
        :class:`Reduction` or ``None`` when the stage was skipped.
    """
    if reduction_gate_reason(query, candidate_rids, bounds, options) is not None:
        return candidate_rids, None
    from repro.core.parallel import pool_backend

    reduction = reduce_candidates(
        query,
        relation,
        candidate_rids,
        bounds,
        mode=options.reduce,
        sharded=sharded,
        workers=getattr(options, "workers", 0),
        artifacts=artifacts,
        shm=shm,
        backend=pool_backend(options),
    )
    return reduction.kept_rids, reduction


def merge_reductions(rounds):
    """Collapse the fixpoint's per-round reductions into one record.

    ``input_count`` stays the first round's (pre-reduction) candidate
    count — what user-facing reporting shows — while ``kept_rids`` and
    the infeasibility verdict come from the last round; removal
    counters and wall-clock accumulate; forced rids union; the
    dominance outcome is ``"applied"`` if any round applied it, else
    the last round's.  Returns ``None`` for no rounds, the single
    reduction unchanged for one.
    """
    rounds = [r for r in rounds if r is not None]
    if not rounds:
        return None
    if len(rounds) == 1:
        return rounds[0]
    first, last = rounds[0], rounds[-1]
    forced = sorted({rid for r in rounds for rid in r.forced_rids})
    # "applied" in any round wins the merged label: a later round
    # legitimately skipping (e.g. nothing left to dominate) must not
    # hide that dominance pruning ran.
    dominance = last.dominance
    for r in rounds:
        if r.dominance == "applied":
            dominance = "applied"
            break
    return Reduction(
        mode=last.mode,
        input_count=first.input_count,
        kept_rids=last.kept_rids,
        fixed=sum(r.fixed for r in rounds),
        dominated=sum(r.dominated for r in rounds),
        forced_rids=tuple(forced),
        infeasible_reason=last.infeasible_reason,
        zone_shards_fixed=sum(r.zone_shards_fixed for r in rounds),
        zone_shards_cleared=sum(r.zone_shards_cleared for r in rounds),
        zone_shards_scanned=sum(r.zone_shards_scanned for r in rounds),
        dominance=dominance,
        elapsed_seconds=sum(r.elapsed_seconds for r in rounds),
        rounds=len(rounds),
    )


def reduce_candidates(
    query,
    relation,
    candidate_rids,
    bounds,
    mode="safe",
    sharded=None,
    workers=0,
    tolerance=DEFAULT_TOLERANCE,
    artifacts=None,
    shm=None,
    backend="thread",
):
    """Reduce ``candidate_rids`` for ``query`` (see module docstring).

    Args:
        query: analyzed (and rewritten) package query.
        relation: the base relation.
        candidate_rids: rids surviving the base constraints.
        bounds: derived :class:`~repro.core.pruning.CardinalityBounds`
            (dominance uses the upper bound in its survival proof).
        mode: ``safe`` (fixing only) or ``aggressive`` (fixing plus
            proof-gated dominance).  ``off`` returns the identity.
        sharded: optional :class:`~repro.relational.sharding.ShardedRelation`
            enabling the zone-map whole-shard fast path and
            shard-parallel value extraction.
        workers: worker threads for shard-parallel extraction.
        tolerance: the validator's boundary tolerance; fixing widens
            non-strict thresholds by it so reduction never removes a
            tuple some oracle-acceptable package contains.
        artifacts: optional artifact cache whose ``facts`` layer
            memoizes per-conjunct facts (see :func:`apply_reduction`).

    Returns:
        :class:`Reduction`.

    Raises:
        ValueError: on an unknown ``mode``.
    """
    if mode not in REDUCE_MODES:
        raise ValueError(f"unknown reduce mode {mode!r} (choose from {REDUCE_MODES})")
    started = time.perf_counter()
    rids = list(candidate_rids)
    if mode == "off" or not rids or query.such_that is None:
        return Reduction(
            mode=mode,
            input_count=len(rids),
            kept_rids=rids,
            fixed=0,
            dominated=0,
            forced_rids=(),
            infeasible_reason=None,
            zone_shards_fixed=0,
            zone_shards_cleared=0,
            zone_shards_scanned=0,
            dominance="not requested"
            if mode != "aggressive"
            else "skipped: no global constraints",
            elapsed_seconds=time.perf_counter() - started,
        )
    return _Reducer(
        query, relation, rids, bounds, mode, sharded, workers, tolerance,
        artifacts, shm=shm, backend=backend,
    ).run(started)


def zones_block_minmax_fixing(zones, plan):
    """True when zone statistics show data MIN/MAX fixing must not touch.

    The guards the vector path applies before its mask, answered from
    zone statistics without a scan: NaN anywhere derives nothing, and
    neither does a mirrored ``-inf`` under a ``LT`` bad set (it hands
    the validator infinite relative slack, so it accepts any package
    containing that value).
    """
    for zone in zones:
        if not zone.non_null:
            continue
        if math.isnan(zone.minimum) or math.isnan(zone.maximum):
            return True
        extreme = -zone.maximum if plan.negate else zone.minimum
        if plan.bad is ast.CmpOp.LT and extreme == -math.inf:
            return True
    return False


def minmax_fixing_sql(func, op, constant, column, tolerance=DEFAULT_TOLERANCE):
    """SQL twin of :meth:`_Reducer._consume_minmax`'s per-tuple fixing.

    Renders the predicate selecting exactly the rows the vectorized
    ``bad`` mask marks for ``func(column) <op> constant`` — the
    out-of-core pushdown streams ``NOT`` this predicate so provably
    absent tuples never leave the database.  Lives next to the numpy
    form on purpose: the two encode one theorem and must not drift.

    Bit-for-bit agreement with the numpy mask holds because sqlite
    evaluates ``v < pivot - (tol * MAX(1.0, ABS(v), |pivot|))`` in the
    same IEEE doubles numpy uses (same rounding at every step), and
    the constants reach it as bound parameters, which sqlite stores
    bit for bit.  Spelled as SQL text they would not: sqlite's REAL
    parser is not correctly rounded at extreme exponents, so a
    threshold could land one ulp off and fix a tuple the validator
    accepts.

    The caller owns the guards the vector path applies *before* its
    mask (:func:`zones_block_minmax_fixing`).  NULL rows are never
    fixed, matching ``np.where(nulls, False, bad)``; a stored NaN reads
    as SQL NULL, so the ``IS NOT NULL`` conjunct also keeps the twin
    honest if a caller ever skips the NaN guard.

    Returns ``(sql, params)``, or ``None`` when the plan has no pure
    per-tuple fixing shape (an EQ witness, or no bad set at all) —
    those conjuncts stay with the in-memory reducer.
    """
    from repro.paql.to_sql import sql_constant
    from repro.relational.schema import quote_ident

    try:
        plan = minmax_plan(func, op)
    except ILPTranslationError:
        return None
    if plan.witness is not None or plan.bad is None:
        return None
    threshold = float(constant)
    pivot = -threshold if plan.negate else threshold
    col = quote_ident(column)
    mirrored = f"-{col}" if plan.negate else col
    params = []
    if plan.bad is ast.CmpOp.LT:
        pivot_sql = sql_constant(pivot, params)
        tolerance_sql = sql_constant(float(tolerance), params)
        magnitude_sql = sql_constant(abs(pivot), params)
        bad = (
            f"{mirrored} < {pivot_sql} - "
            f"({tolerance_sql} * MAX(1.0, ABS({col}), {magnitude_sql}))"
        )
    else:  # LE comes from a strict comparison: exact
        bad = f"{mirrored} <= {sql_constant(pivot, params)}"
    return f"({col} IS NOT NULL AND {bad})", tuple(params)


def _shm_values_task(spec):
    """shm-process worker task: one shard group's ``(values, nulls)``.

    Mirrors the in-process ``extract`` exactly: float64 values with
    NULL entries as NaN, plus the NULL mask, over the shared rid
    array's ``[start:stop]`` positions.
    """
    from repro.core.parallel import shm_worker_state

    expr, handle, start, stop = spec
    state = shm_worker_state()
    rids = state.scratch_array(handle)[start:stop]
    values, nulls = evaluator_for(state.relation).scalar_arrays(expr, rids)
    values = np.asarray(values, dtype=np.float64)
    return np.where(nulls, np.nan, values), nulls


class _Reducer:
    """One reduction run; all masks are positional over the input rids."""

    def __init__(
        self, query, relation, rids, bounds, mode, sharded, workers, tolerance,
        artifacts=None, shm=None, backend="thread",
    ):
        self._query = query
        self._relation = relation
        self._rids = np.asarray(rids, dtype=np.intp)
        self._bounds = bounds
        self._mode = mode
        if sharded is not None and np.any(np.diff(self._rids) <= 0):
            # Shard-order splitting (split_rids, the zone position
            # lookups) is only valid for strictly ascending rids — the
            # engine always passes them that way, but this is a public
            # entry point; fall back to the single-pass path instead
            # of deriving garbage.
            sharded = None
        self._sharded = sharded
        self._workers = workers
        self._shm = shm if sharded is not None else None
        self._backend = backend
        self._tol = float(tolerance)
        self._artifacts = artifacts
        # One fingerprint per run, reused in every per-leaf cache key.
        self._rids_key = (
            rids_fingerprint(self._rids) if artifacts is not None else None
        )
        self._evaluator = evaluator_for(relation)
        self._value_cache = {}
        self._zero = np.zeros(len(rids), dtype=bool)
        self._witness_checks = []
        self._dominance_keys = []
        self._dominance_block = None
        self._zone_fixed = 0
        self._zone_cleared = 0
        self._zone_scanned = 0

    # -- driver --------------------------------------------------------------

    def run(self, started):
        try:
            normalized = normalize_formula(self._query.such_that)
        except PaQLUnsupportedError as exc:
            normalized = None
            self._block_dominance(f"unsupported formula: {exc}")
        if normalized is not None:
            for leaf in conjunctive_leaves(normalized):
                self._consume_with_cache(leaf)
        fixed = int(np.count_nonzero(self._zero))
        forced, infeasible_reason = self._resolve_witnesses()

        dominated = 0
        dominance = "not requested"
        if self._mode == "aggressive":
            if infeasible_reason is not None:
                dominance = "skipped: already proved infeasible"
            else:
                dominated, dominance = self._dominate(forced)

        kept = [int(rid) for rid in self._rids[~self._zero]]
        return Reduction(
            mode=self._mode,
            input_count=len(self._rids),
            kept_rids=kept,
            fixed=fixed,
            dominated=dominated,
            forced_rids=tuple(forced),
            infeasible_reason=infeasible_reason,
            zone_shards_fixed=self._zone_fixed,
            zone_shards_cleared=self._zone_cleared,
            zone_shards_scanned=self._zone_scanned,
            dominance=dominance,
            elapsed_seconds=time.perf_counter() - started,
        )

    def _block_dominance(self, reason):
        if self._dominance_block is None:
            self._dominance_block = reason

    # -- conjunct dispatch ---------------------------------------------------

    def _consume_with_cache(self, leaf):
        """Consume a conjunct, reusing cached facts when a session
        provides an artifact cache.

        A conjunct's facts (the positional fixing mask, witness masks,
        dominance keys, dominance block, zone counters) are functions
        of the conjunct AST, the candidate rid set, the repeat bound,
        the tolerance, and the shard layout — everything else in the
        query is irrelevant to them.  The cache key captures exactly
        those inputs, so a second query sharing a conjunct over the
        same candidates replays the facts instead of re-scanning.

        The dominance block is captured *per conjunct* (the instance
        field is stashed and restored around the consume), because the
        first-block-wins field would otherwise hide a later conjunct's
        block from the cache — and replaying that entry in a query
        where no earlier conjunct blocks would run dominance unproven.
        """
        if self._artifacts is None:
            self._consume(leaf)
            return
        key = self._artifacts.facts_key(
            leaf,
            self._rids_key,
            repeat=self._query.repeat,
            tolerance=self._tol,
            shards=self._sharded.num_shards if self._sharded is not None else 0,
        )
        hit = self._artifacts.facts.get(key)
        if hit is not None:
            self._zero |= hit.fixed_mask
            self._witness_checks.extend(hit.witness_checks)
            self._dominance_keys.extend(hit.dominance_keys)
            if hit.dominance_block is not None:
                self._block_dominance(hit.dominance_block)
            self._zone_fixed += hit.zone[0]
            self._zone_cleared += hit.zone[1]
            self._zone_scanned += hit.zone[2]
            return
        outer_block = self._dominance_block
        self._dominance_block = None
        # The leaf's fixing mask is computed into a scratch array, not
        # diffed out of the shared one: bits an earlier conjunct
        # already fixed would vanish from a diff, and the cached entry
        # would under-fix when replayed in a query without that
        # earlier conjunct.
        outer_zero = self._zero
        self._zero = np.zeros_like(outer_zero)
        witnesses_from = len(self._witness_checks)
        keys_from = len(self._dominance_keys)
        zone_before = (self._zone_fixed, self._zone_cleared, self._zone_scanned)
        self._consume(leaf)
        leaf_mask = self._zero
        self._zero = outer_zero
        self._zero |= leaf_mask
        leaf_block = self._dominance_block
        self._dominance_block = outer_block
        if leaf_block is not None:
            self._block_dominance(leaf_block)
        from repro.core.session import ConjunctFacts

        self._artifacts.facts.put(
            key,
            ConjunctFacts(
                fixed_mask=leaf_mask,
                witness_checks=tuple(self._witness_checks[witnesses_from:]),
                dominance_keys=tuple(self._dominance_keys[keys_from:]),
                dominance_block=leaf_block,
                zone=(
                    self._zone_fixed - zone_before[0],
                    self._zone_cleared - zone_before[1],
                    self._zone_scanned - zone_before[2],
                ),
            ),
        )

    def _consume(self, leaf):
        if not isinstance(leaf, ast.Comparison):
            # An Or at the top level constrains nothing per-tuple (a
            # package may satisfy either branch), and its attributes
            # carry no single dominance direction.
            self._block_dominance("disjunctive global constraint")
            return
        aggregate, op, constant = match_aggregate_comparison(leaf)
        if aggregate is None:
            self._block_dominance("constraint is not aggregate-versus-constant")
            return
        if aggregate.is_count_star:
            # Pure cardinality: handled exactly by the pruner's bounds,
            # and invariant under dominance swaps (no key needed).
            return
        if aggregate.func is ast.AggFunc.SUM:
            self._consume_linear(aggregate.argument, op, constant, kind="sum")
        elif aggregate.func is ast.AggFunc.COUNT:
            self._consume_linear(aggregate.argument, op, constant, kind="count")
        elif aggregate.func in (ast.AggFunc.MIN, ast.AggFunc.MAX):
            self._consume_minmax(aggregate, op, constant)
        else:  # AVG
            self._consume_avg(aggregate, op, constant)

    # -- value extraction ----------------------------------------------------

    def _values(self, expr):
        """``(values, nulls)`` float64/bool arrays over the candidates.

        ``None`` when no numeric kernel exists (the conjunct is then
        skipped — reduction facts are always optional).  Values at
        NULL positions are normalized to NaN.  Past the size threshold
        with a ShardedRelation in force, per-shard extractions run
        through the worker pool and concatenate in shard order
        (kernels are elementwise, so the result is bit-identical).
        """
        if expr in self._value_cache:
            return self._value_cache[expr]
        result = self._compute_values(expr)
        self._value_cache[expr] = result
        return result

    def _compute_values(self, expr):
        try:
            probe, _ = self._evaluator.scalar_arrays(expr, [])
        except UnsupportedExpression:
            return None
        if probe.dtype.kind not in "fiu":
            return None

        def extract(rids):
            values, nulls = self._evaluator.scalar_arrays(expr, rids)
            values = np.asarray(values, dtype=np.float64)
            return np.where(nulls, np.nan, values), nulls

        if (
            self._sharded is None
            or len(self._rids) < SHARD_REDUCTION_MIN_CANDIDATES
        ):
            return extract(self._rids)
        parts = self._shm_values(expr)
        if parts is None:
            from repro.core.parallel import parallel_map

            groups = [
                group
                for group in self._sharded.split_rids(self._rids)
                if len(group)
            ]
            parts = parallel_map(
                extract, groups, workers=self._workers, backend=self._backend
            )
        return (
            np.concatenate([part[0] for part in parts]),
            np.concatenate([part[1] for part in parts]),
        )

    def _shm_values(self, expr):
        """Per-shard value extraction on the attached workers, or ``None``.

        Same shared-rid-array scheme as the pruner: per-task payload is
        the expression plus positional offsets; the returned per-group
        ``(values, nulls)`` arrays concatenate in shard order to the
        bit-identical single-pass result.
        """
        if self._shm is None:
            return None
        from repro.core.parallel import ShmUnavailable, note_parallel_event

        try:
            handle = self._shm.shared_rids(self._rids)
            specs = [
                (expr, handle, start, stop)
                for start, stop in self._sharded.split_positions(self._rids)
                if stop > start
            ]
            return self._shm.map(_shm_values_task, specs)
        except ShmUnavailable as exc:
            note_parallel_event(
                "shm-process", f"{exc}; reduction extraction ran on threads"
            )
            return None

    def _slack(self, *magnitudes):
        """Vectorized validator slack: ``tol * max(1, |each magnitude|)``."""
        peak = np.ones_like(magnitudes[0])
        for magnitude in magnitudes:
            with np.errstate(invalid="ignore"):
                peak = np.fmax(peak, np.abs(magnitude))
        return self._tol * peak

    # -- SUM / COUNT fixing --------------------------------------------------

    def _consume_linear(self, argument, op, constant, kind):
        """Single-tuple interval fixing for SUM/COUNT conjuncts.

        ``COUNT(e)`` is ``SUM`` over the 0/1 non-NULL indicator, so
        both ride one implementation.  A package containing tuple
        ``j`` (at least once) has its aggregate inside
        ``[v_j + rest_min, v_j + rest_max]``, where the rest bounds
        take every other tuple (and extra copies of ``j``) at repeat
        multiplicity whenever that pushes toward the extreme.  When
        that interval is disjoint from the values the comparison
        accepts — widened by the validator tolerance on non-strict
        ops — ``j`` cannot appear in any acceptable package.
        """
        extracted = self._values(argument)
        if extracted is None:
            self._block_dominance(
                f"{kind.upper()} argument has no columnar kernel"
            )
            return
        values, nulls = extracted
        if kind == "count":
            contrib = (~nulls).astype(np.float64)
        else:
            contrib = np.where(nulls, 0.0, values)
            if not np.all(np.isfinite(contrib)):
                self._block_dominance("non-finite SUM data")
                return

        repeat = self._query.repeat
        with np.errstate(over="ignore"):
            neg = np.minimum(contrib, 0.0)
            pos = np.maximum(contrib, 0.0)
            lower = contrib + (repeat * neg.sum() - neg)
            upper = contrib + (repeat * pos.sum() - pos)
        constant = float(constant)
        slack = self._slack(lower, upper, np.full_like(lower, abs(constant)))

        if op is ast.CmpOp.LE:
            bad = lower > constant + slack
        elif op is ast.CmpOp.LT:
            bad = lower >= constant
        elif op is ast.CmpOp.GE:
            bad = upper < constant - slack
        elif op is ast.CmpOp.GT:
            bad = upper <= constant
        elif op is ast.CmpOp.EQ:
            bad = (lower > constant + slack) | (upper < constant - slack)
        else:  # pragma: no cover - NE is expanded during normalization
            bad = None
        if bad is not None:
            self._zero |= bad

        direction = {
            ast.CmpOp.LE: "le",
            ast.CmpOp.LT: "le",
            ast.CmpOp.GE: "ge",
            ast.CmpOp.GT: "ge",
            ast.CmpOp.EQ: "eq",
        }.get(op)
        if direction is None:  # pragma: no cover - NE handled above
            self._block_dominance("unexpected comparison operator")
        else:
            self._add_dominance_key(contrib, direction)

    # -- AVG dominance keys --------------------------------------------------

    def _consume_avg(self, aggregate, op, constant):
        """Dominance keys (and support facts) from one AVG conjunct.

        No per-tuple fixing: a tuple with a bad value can always be
        averaged down by other members, so single membership never
        forces the aggregate out of range.  But the conjunct *does*
        have a proven dominance direction.  Writing ``AVG(e) <= c``
        over the non-NULL members as ``sum(e_i - c) <= 0``, each
        member contributes ``g_i = e_i - c`` (NULL members contribute
        nothing to either the sum or the count).  Swapping member
        ``j`` for a dominator ``k`` with ``g_k <= g_j`` and non-NULL-
        ness preserved can only decrease the sum — and a decreased
        sum over a no-smaller count can only shrink the constraint
        violation, so every package the validator accepted before the
        swap it accepts after (the relative-slack argument is the same
        one SUM dominance already relies on).  ``>=`` mirrors with
        ``ge``; ``=`` requires value-exact and nullity-exact swaps
        (``eq`` keys).

        AVG of zero non-NULL members is NULL, and a NULL comparison
        can never hold — so the conjunct also needs non-NULL support
        among the kept candidates, which doubles as an infeasibility /
        forced-tuple witness exactly like the MIN/MAX support sets.
        """
        extracted = self._values(aggregate.argument)
        if extracted is None:
            self._block_dominance("AVG argument has no columnar kernel")
            return
        values, nulls = extracted
        label = f"AVG {op.value} {constant:g}"
        self._witness_checks.append((~nulls, f"non-NULL support for {label}"))
        contributions = np.where(nulls, 0.0, values - float(constant))
        if not np.all(np.isfinite(contributions)):
            self._block_dominance("non-finite AVG data")
            return
        indicator = (~nulls).astype(np.float64)
        if op in (ast.CmpOp.LE, ast.CmpOp.LT):
            self._dominance_keys.append((contributions, "le"))
            self._dominance_keys.append((indicator, "ge"))
        elif op in (ast.CmpOp.GE, ast.CmpOp.GT):
            self._dominance_keys.append((contributions, "ge"))
            self._dominance_keys.append((indicator, "ge"))
        elif op is ast.CmpOp.EQ:
            self._dominance_keys.append((contributions, "eq"))
            self._dominance_keys.append((indicator, "eq"))
        else:  # pragma: no cover - NE is expanded during normalization
            self._block_dominance("unexpected AVG comparison operator")

    # -- MIN / MAX fixing ----------------------------------------------------

    def _consume_minmax(self, aggregate, op, constant):
        """Fixing and facts from one MIN/MAX-versus-constant conjunct.

        The which-sets-matter normalization is the translator's own
        :func:`~repro.core.translate_ilp.minmax_plan`: ``bad`` tuples
        are fixed to zero (with non-strict thresholds narrowed by the
        validator tolerance, so only provably-unacceptable tuples go),
        ``witness``/``support`` sets are recorded for the
        emptiness/singleton analysis after all fixing lands.
        """
        try:
            plan = minmax_plan(aggregate.func, op)
        except ILPTranslationError as exc:  # pragma: no cover - NE only
            self._block_dominance(str(exc))
            return
        threshold = float(constant)
        argument = aggregate.argument
        label = f"{aggregate.func.value} {op.value} {constant:g}"

        if plan.witness is None and self._sharded is not None:
            column = self._bare_column(argument)
            if column is not None:
                if self._zone_minmax_fixing(column, plan, threshold):
                    nulls = self._column_nulls(column)
                    self._witness_checks.append(
                        (~nulls, f"non-NULL support for {label}")
                    )
                    self._minmax_dominance_key(plan, (~nulls).astype(np.float64))
                else:
                    self._block_dominance("non-finite data under MIN/MAX")
                return

        extracted = self._values(argument)
        if extracted is None:
            self._block_dominance("MIN/MAX argument has no columnar kernel")
            return
        values, nulls = extracted
        with np.errstate(invalid="ignore"):
            if np.any(np.isnan(values) & ~nulls):
                # NaN poisons MIN/MAX semantics (order-dependent in the
                # row evaluator); derive nothing from this conjunct.
                self._block_dominance("NaN data under MIN/MAX")
                return
            mirrored = -values if plan.negate else values
            if plan.bad is ast.CmpOp.LT and np.any(
                np.isneginf(mirrored) & ~nulls
            ):
                # A -inf member drives the validator's *relative* slack
                # to infinity, so it accepts any package containing
                # that tuple — including ones carrying tuples we would
                # otherwise fix.  Per-tuple fixing is unsound for
                # non-strict thresholds here; derive nothing.
                self._block_dominance("infinite data under MIN/MAX")
                return
            pivot = -threshold if plan.negate else threshold
            pivot_arr = np.full_like(mirrored, abs(pivot))
            if plan.bad is not None:
                if plan.bad is ast.CmpOp.LT:
                    bad = mirrored < pivot - self._slack(mirrored, pivot_arr)
                else:  # LE comes from a strict comparison: exact
                    bad = mirrored <= pivot
                self._zero |= np.where(nulls, False, bad)
            if plan.witness is not None:
                if plan.witness is ast.CmpOp.LE:
                    witness = mirrored <= pivot + self._slack(mirrored, pivot_arr)
                elif plan.witness is ast.CmpOp.LT:
                    witness = mirrored < pivot
                else:  # EQ
                    witness = np.abs(mirrored - pivot) <= self._slack(
                        mirrored, pivot_arr
                    )
                self._witness_checks.append(
                    (np.where(nulls, False, witness), f"witness for {label}")
                )
            if plan.support:
                self._witness_checks.append(
                    (~nulls, f"non-NULL support for {label}")
                )

        if plan.witness is ast.CmpOp.EQ:
            # An equality witness must be swapped value-for-value;
            # proving that at tolerance boundaries is not worth it.
            self._block_dominance("MIN/MAX equality constraint")
        elif plan.witness is None:
            self._minmax_dominance_key(plan, (~nulls).astype(np.float64))
        else:
            key = np.where(nulls, math.inf, -values if plan.negate else values)
            self._dominance_keys.append((key, "le"))

    def _minmax_dominance_key(self, plan, nonnull):
        """ALL-shaped conjuncts: fixing enforces the threshold on every
        kept tuple, so the only swap hazard is losing non-NULL support."""
        self._dominance_keys.append((nonnull, "ge"))

    def _bare_column(self, argument):
        """The schema column name when ``argument`` is a plain numeric
        column reference (the zone fast path's shape), else ``None``."""
        from repro.relational.types import ColumnType

        if (
            not isinstance(argument, ast.ColumnRef)
            or argument.name not in self._relation.schema
            or self._relation.schema.type_of(argument.name) is ColumnType.TEXT
        ):
            return None
        return argument.name

    def _column_nulls(self, column):
        _, nulls = self._relation.column_arrays(column)
        return nulls[self._rids]

    def _zone_minmax_fixing(self, column, plan, threshold):
        """Whole-shard fixing from zone statistics; False on data the
        tolerance analysis cannot handle (NaN anywhere, or -inf under
        a non-strict threshold).

        Per shard, the cached min/max classifies the (possibly
        mirrored) values against the bad threshold: an **all-bad**
        shard has every candidate fixed without touching its rows, a
        **clear** shard is skipped, and only straddling shards pay a
        kernel scan over their candidate rids.  Zone statistics cover
        *all* shard rows — a superset of the candidates — so both
        whole-shard verdicts remain sound for any candidate subset.
        """
        zones = self._sharded.zone_stats(column)
        if zones_block_minmax_fixing(zones, plan):
            return False
        groups = self._sharded.split_rids(self._rids)
        values = nulls = None
        for zone, group in zip(zones, groups):
            if not len(group) or zone.non_null == 0:
                continue
            low, high = zone.minimum, zone.maximum
            if plan.negate:
                low, high = -high, -low
                pivot = -threshold
            else:
                pivot = threshold
            shard_slack = self._tol * max(1.0, abs(low), abs(high), abs(pivot))
            if plan.bad is ast.CmpOp.LT:
                all_bad = high < pivot - shard_slack
                none_bad = low >= pivot
            else:  # LE (strict comparison): exact thresholds
                all_bad = high <= pivot
                none_bad = low > pivot
            if none_bad:
                self._zone_cleared += 1
                continue
            positions = np.searchsorted(self._rids, group)
            if all_bad and not zone.may_null:
                self._zero[positions] = True
                self._zone_fixed += 1
                continue
            self._zone_scanned += 1
            if values is None:
                raw, raw_nulls = self._relation.column_arrays(column)
                values = np.asarray(raw, dtype=np.float64)
                nulls = raw_nulls
            shard_values = values[group]
            shard_nulls = nulls[group]
            mirrored = -shard_values if plan.negate else shard_values
            with np.errstate(invalid="ignore"):
                if plan.bad is ast.CmpOp.LT:
                    pivot_arr = np.full_like(mirrored, abs(pivot))
                    bad = mirrored < pivot - self._slack(mirrored, pivot_arr)
                else:
                    bad = mirrored <= pivot
            # |=, never =: earlier conjuncts may have fixed some of
            # these positions already.
            self._zero[positions] |= np.where(shard_nulls, False, bad)
        return True

    # -- witness resolution ----------------------------------------------------

    def _resolve_witnesses(self):
        """Count witnesses among kept candidates; derive proofs.

        Ran after *all* fixing so conjuncts see each other's removals:
        zero witnesses is an infeasibility proof (no package the
        validator accepts exists), a single witness is a forced tuple
        (every acceptable package contains it).  Witness masks are
        tolerance-widened supersets of what the oracle could accept,
        which is what makes both derivations sound.
        """
        kept = ~self._zero
        forced = []
        for mask, label in self._witness_checks:
            live = mask & kept
            count = int(np.count_nonzero(live))
            if count == 0:
                return (), f"no candidate can provide the {label}"
            if count == 1:
                forced.append(int(self._rids[int(np.argmax(live))]))
        unique = sorted(set(forced))
        return unique, None

    # -- dominance pruning -----------------------------------------------------

    def _add_dominance_key(self, values, direction):
        with np.errstate(invalid="ignore"):
            if np.any(np.isnan(values)):
                self._block_dominance("NaN data in a dominance key")
                return
        self._dominance_keys.append((values, direction))

    def _dominate(self, forced):
        """Remove dominated tuples; returns ``(count, outcome)``.

        Processes candidates in objective order (best first) and
        counts, for each tuple, the already-*kept* candidates that are
        weakly better on the objective and on every key dimension.
        Once ``needed`` kept dominators exist, any feasible package
        containing the tuple can swap it for an unsaturated dominator
        without losing feasibility or objective value, so removing it
        keeps at least one optimal package alive.  Dominators are
        drawn from the kept set only, which is what lets the swaps
        compose (each one strictly reduces the number of removed
        tuples in the package).
        """
        if self._query.objective is None:
            return 0, "skipped: no objective to preserve"
        if self._dominance_block is not None:
            return 0, f"skipped: {self._dominance_block}"
        kept_idx = np.flatnonzero(~self._zero)
        if kept_idx.size <= 1:
            return 0, "skipped: nothing left to dominate"
        from repro.core.greedy import _per_tuple_scores

        scores = _per_tuple_scores(
            self._query,
            self._relation,
            [int(rid) for rid in self._rids[kept_idx]],
        )
        if scores is None:
            return 0, "skipped: objective has no per-tuple decomposition"
        scores = np.asarray(scores, dtype=np.float64)
        if not np.all(np.isfinite(scores)):
            # NaN breaks the ordering outright; ±inf contributions put
            # the objective swap argument (and the downstream solvers)
            # into inf-arithmetic territory — derive nothing.
            return 0, "skipped: non-finite objective contributions"

        repeat = self._query.repeat
        upper = min(self._bounds.upper, len(self._rids) * repeat)
        if upper < 1:
            upper = 1
        needed = (upper - 1) // repeat + 1
        if needed >= kept_idx.size:
            return 0, "skipped: cardinality bound too loose to prove survival"

        le_keys = []
        eq_keys = []
        for values, direction in self._dominance_keys:
            key = values[kept_idx]
            if key.size and np.all(key == key[0]):
                # A constant dimension constrains nothing: every le/ge
                # comparison passes and every eq group is the whole
                # set.  Dropping it keeps e.g. the AVG non-NULL
                # indicator key (constant 1.0 on NULL-free data) from
                # counting toward the pairwise dimension limit.
                continue
            if direction == "le":
                le_keys.append(key)
            elif direction == "ge":
                le_keys.append(-key)
            else:
                eq_keys.append(key)
        if len(le_keys) >= 2 and kept_idx.size > DOMINANCE_PAIRWISE_LIMIT:
            return 0, (
                "skipped: too many key dimensions at this candidate count"
            )

        # Objective-descending processing order, stable on input order.
        order = np.lexsort((np.arange(kept_idx.size), -scores))
        forced_set = set(forced)
        removed = np.zeros(kept_idx.size, dtype=bool)
        sweep = _GroupedSweep(needed, le_keys)
        for position in order.tolist():
            group = tuple(key[position] for key in eq_keys)
            rid = int(self._rids[kept_idx[position]])
            if rid in forced_set:
                sweep.keep(group, position)
                continue
            if sweep.dominated(group, position):
                removed[position] = True
            else:
                sweep.keep(group, position)

        count = int(np.count_nonzero(removed))
        if count:
            self._zero[kept_idx[removed]] = True
        return count, "applied"


class _GroupedSweep:
    """Counts kept dominators per equality group during the sweep.

    With no ordered dimension a counter suffices; with one, the
    ``needed`` smallest kept keys (a bounded max-heap) answer "do
    ``needed`` kept tuples sit at-or-below this key?" in O(log n);
    with more, a growing matrix is compared row-wise (bounded by
    :data:`DOMINANCE_PAIRWISE_LIMIT`).
    """

    def __init__(self, needed, le_keys):
        self._needed = needed
        self._keys = le_keys
        self._dims = len(le_keys)
        self._groups = {}

    def _state(self, group):
        state = self._groups.get(group)
        if state is None:
            state = [] if self._dims else 0
            self._groups[group] = state
        return state

    def dominated(self, group, position):
        state = self._groups.get(group)
        if state is None:
            return False
        if self._dims == 0:
            return state >= self._needed
        if self._dims == 1:
            key = self._keys[0][position]
            # state is a max-heap (negated) of the `needed` smallest
            # kept keys; full heap with max <= key means `needed` kept
            # dominators exist.
            return len(state) == self._needed and -state[0] <= key
        rows = np.asarray(state)
        point = np.array([key[position] for key in self._keys])
        return int(np.count_nonzero(np.all(rows <= point, axis=1))) >= self._needed

    def keep(self, group, position):
        state = self._state(group)
        if self._dims == 0:
            self._groups[group] = state + 1
            return
        if self._dims == 1:
            key = self._keys[0][position]
            if len(state) < self._needed:
                heapq.heappush(state, -key)
            elif -state[0] > key:
                heapq.heapreplace(state, -key)
            return
        state.append([key[position] for key in self._keys])
