"""The compile-then-execute query pipeline (pass manager + stages).

One stage list drives every consumer.  ``evaluate()`` *executes* it,
``plan()`` *simulates* the solve half of it, and both share the
analysis half verbatim — the same code objects, not two copies kept in
sync by convention.  Each stage run emits a
:class:`~repro.core.ir.StageRecord`; the engine publishes the records
as ``stats["stages"]``, the planner as ``plan().stages``, and
``repro explain`` renders them as a table.

Pipeline order::

    rewrite -> where-filter -> [stream-residents] -> zone-skip -> [prune-bounds -> reduction]* -> strategy-dispatch -> validate

``stream-residents`` only exists for sql-backed relations
(:mod:`repro.core.pushdown`): it swaps the out-of-core table for an
in-memory relation of just the surviving candidates, so every later
stage runs unchanged over ``state.relation``.

The bracketed pair is one constraint analysis,
:func:`repro.core.reduction.analyze_constraints`: after reduction fixes
variables out, cardinality and SUM bounds are re-derived over the
*surviving* candidates, which can tighten the bounds, which lets the
reducer fix more — the loop runs until a round removes nothing (or
:data:`~repro.core.reduction.MAX_PRUNE_ROUNDS` is hit).  Each round
emits a ``prune-bounds`` and a ``reduction`` record, with
``round=1, 2, ...``.

Stages short-circuit by *halting* the state (empty cardinality bounds,
a reduction infeasibility proof): later stages still emit records, but
as skips carrying the halt reason.  Because the planner runs the same
code, its simulated records carry the same skip reasons — which is
what the engine/plan agreement property test compares.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.ir import (
    STAGE_REWRITE,
    STAGE_STRATEGY,
    STAGE_STREAM,
    STAGE_VALIDATE,
    STAGE_WHERE,
    STAGE_ZONE_SKIP,
    StageRecord,
)
from repro.core.reduction import analyze_constraints
from repro.core.vectorize import CandidateColumns

__all__ = [
    "PipelineState",
    "run_analysis",
    "simulate_solve",
]


@dataclass
class PipelineState:
    """Everything the pipeline threads between stages for one query.

    ``mode`` marks the records this run emits (``executed`` for the
    engine, ``simulated`` for the planner); the analysis stages run
    identically either way — only the solve half differs.
    """

    evaluator: object
    query: object
    options: object
    artifacts: object = None
    supplied_rids: object = None
    mode: str = "executed"

    rewrites_applied: list = field(default_factory=list)
    candidate_rids: list = field(default_factory=list)
    where_path: str = "none"
    shard_info: dict | None = None
    sharded: object = None
    #: The relation every stage past WHERE works on.  Equal to
    #: ``evaluator.relation`` for in-memory evaluations; for a
    #: sql-backed relation the stream stage swaps in the in-memory
    #: *resident* relation (surviving candidates only), with
    #: ``rid_map`` translating resident positions back to absolute
    #: rids (``None`` when no translation is needed).
    relation: object = None
    rid_map: object = None
    stream_info: dict | None = None
    #: The sql-pushdown WHERE's access choice (``WhereOutcome.access_info``).
    where_access: dict | None = None
    base_candidate_count: int = 0
    #: ``CandidateColumns`` over ``relation`` and ``candidate_rids``,
    #: built after zone-skip; reduction rounds narrow it.
    columns: object = None
    bounds: object = None
    reduction: object = None
    prune_rounds: int = 1
    records: list = field(default_factory=list)

    #: Set when a stage proves the query infeasible without solving;
    #: later stages skip with this reason, and the engine returns the
    #: matching short-circuit result.
    halt_reason: str | None = None
    #: The result "strategy" label of the halt (``pruning`` |
    #: ``reduction``), mirroring the pre-pipeline engine behavior.
    halt_strategy: str | None = None

    ctx: object = None

    @property
    def halted(self):
        return self.halt_reason is not None

    def record(self, stage_record):
        stage_record.mode = self.mode
        self.records.append(stage_record)
        return stage_record


# -- analysis stages ----------------------------------------------------------


def _run_rewrite(state):
    if not state.options.rewrite:
        state.record(
            StageRecord(STAGE_REWRITE, skipped="rewrite disabled (rewrite=False)")
        )
        return
    from repro.paql.rewrite import rewrite_query

    started = time.perf_counter()
    rewritten = rewrite_query(state.query)
    state.query = rewritten.query
    state.rewrites_applied = list(rewritten.applied)
    state.record(
        StageRecord(
            STAGE_REWRITE,
            seconds=time.perf_counter() - started,
            detail={"applied": state.rewrites_applied},
        )
    )


def _run_where(state):
    rows = len(state.evaluator.relation)
    if state.supplied_rids is not None:
        state.candidate_rids = list(state.supplied_rids)
        state.record(
            StageRecord(
                STAGE_WHERE,
                rows_in=rows,
                rows_out=len(state.candidate_rids),
                skipped="candidates supplied by caller",
            )
        )
        return
    started = time.perf_counter()
    rids, path, scan_info = state.evaluator.filtered_candidates(
        state.query, state.options, artifacts=state.artifacts
    )
    state.candidate_rids = rids
    state.where_path = path
    detail = {"path": path}
    if getattr(state.evaluator.relation, "is_sql_backed", False):
        state.where_access = scan_info
        detail.update(scan_info or {})
    else:
        state.shard_info = scan_info
    state.record(
        StageRecord(
            STAGE_WHERE,
            rows_in=rows,
            rows_out=len(rids),
            seconds=time.perf_counter() - started,
            detail=detail,
        )
    )


def _run_stream(state):
    """Swap a sql-backed relation for its in-memory working set.

    In-memory evaluations pass straight through (no record — the stage
    exists only for the out-of-core backend).  For a sql-backed
    relation the stage either *materializes* the full table (small
    inputs: positions equal absolute rids, nothing downstream changes)
    or *streams* only the surviving candidate rows out of sqlite into
    a resident relation — with safe-mode reduction fixing applied as
    SQL so provably-absent tuples never reach memory — and rebases
    candidates onto resident positions, keeping ``rid_map`` to restore
    absolute rids in the final package.
    """
    base = state.evaluator.relation
    state.relation = base
    if not getattr(base, "is_sql_backed", False):
        return
    from repro.core.cost import choose_scan_path

    count = len(state.candidate_rids)
    started = time.perf_counter()
    path, decision = choose_scan_path(len(base), count, state.options)
    if path == "materialize":
        state.relation = base.materialize()
        state.stream_info = {"path": "materialized", "decision": decision}
        state.record(
            StageRecord(
                STAGE_STREAM,
                rows_in=count,
                rows_out=count,
                seconds=time.perf_counter() - started,
                detail=dict(state.stream_info),
            )
        )
        return
    outcome = state.evaluator.stream_residents(
        state.query, state.options, state.candidate_rids
    )
    state.relation = outcome.resident
    state.rid_map = outcome.rid_map
    state.candidate_rids = list(range(len(outcome.resident)))
    state.stream_info = {
        "path": "stream",
        "decision": decision,
        "sql_fixed": outcome.sql_fixed,
        "fixing": list(outcome.fixing),
        "batches": outcome.batches,
    }
    state.record(
        StageRecord(
            STAGE_STREAM,
            rows_in=count,
            rows_out=len(outcome.resident),
            seconds=time.perf_counter() - started,
            detail=dict(state.stream_info),
        )
    )


def _run_zone_skip(state):
    options = state.options
    count = len(state.candidate_rids)
    if getattr(state.evaluator.relation, "is_sql_backed", False):
        state.record(
            StageRecord(
                STAGE_ZONE_SKIP,
                rows_in=count,
                rows_out=count,
                skipped="zone analysis ran inside the sql scan",
            )
        )
        return
    if getattr(options, "shards", 1) <= 1:
        state.record(
            StageRecord(
                STAGE_ZONE_SKIP,
                rows_in=count,
                rows_out=count,
                skipped="sharding disabled (shards=1)",
            )
        )
        return
    if state.supplied_rids is not None:
        # Caller-supplied candidates skipped the sharded WHERE path,
        # and shard-order analysis (split_rids) is only sound for the
        # strictly ascending rid sequences the engine produces — keep
        # the downstream stages on the single-pass path, exactly like
        # the pre-pipeline plan(candidate_rids=...) behavior.
        state.record(
            StageRecord(
                STAGE_ZONE_SKIP,
                rows_in=count,
                rows_out=count,
                skipped="candidates supplied by caller",
            )
        )
        return
    state.sharded = state.evaluator.sharded_relation(options.shards)
    if state.shard_info is None:
        state.record(
            StageRecord(
                STAGE_ZONE_SKIP,
                rows_in=count,
                rows_out=count,
                skipped=f"WHERE ran on the {state.where_path!r} path "
                "(no zone analysis)",
            )
        )
        return
    state.record(
        StageRecord(
            STAGE_ZONE_SKIP,
            rows_in=count,
            rows_out=count,
            detail=dict(state.shard_info),
        )
    )


def run_analysis(
    evaluator,
    query,
    options,
    artifacts=None,
    supplied_rids=None,
    mode="executed",
    apply_rewrite=True,
):
    """Run the analysis half of the pipeline; return the state.

    Shared verbatim by ``evaluate()`` (``mode="executed"``) and
    ``plan()`` (``mode="simulated"``): rewrite, WHERE filtering,
    zone-skip accounting, and the prune/reduce fixpoint, ending with
    the :class:`~repro.core.strategies.base.EvaluationContext` every
    solve-side consumer (cost model, strategies, planner) reads.

    Args:
        supplied_rids: pre-filtered candidate rids — skips the WHERE
            stage (the ``plan(candidate_rids=...)`` path).
        apply_rewrite: ``False`` reuses an already-rewritten query
            (the evaluator's ``context()`` compatibility path).
    """
    from repro.core.strategies import EvaluationContext

    state = PipelineState(
        evaluator=evaluator,
        query=query,
        options=options,
        artifacts=artifacts,
        supplied_rids=supplied_rids,
        mode=mode,
    )
    if apply_rewrite:
        _run_rewrite(state)
    else:
        state.record(
            StageRecord(STAGE_REWRITE, skipped="query already rewritten")
        )
    _run_where(state)
    state.base_candidate_count = len(state.candidate_rids)
    _run_stream(state)
    _run_zone_skip(state)
    state.columns = CandidateColumns(
        state.relation,
        state.candidate_rids,
        sharded=state.sharded,
        workers=getattr(options, "workers", 0),
    )
    analyze_constraints(state)
    state.ctx = EvaluationContext(
        query=state.query,
        relation=state.relation,
        candidate_rids=state.candidate_rids,
        bounds=state.bounds,
        options=options,
        where_path=state.where_path,
        sharded=state.sharded,
        shard_info=state.shard_info,
        reduction=state.reduction,
        columns=state.columns,
    )
    return state


# -- solve-side stages --------------------------------------------------------


def dispatch_strategy(state):
    """Execute the strategy-dispatch stage; return the raw result.

    ``None`` when the pipeline halted earlier (the engine then builds
    the short-circuit result); the stage record is emitted either way.
    """
    from repro.core.cost import choose_strategy
    from repro.core.strategies import get_strategy

    ctx = state.ctx
    count = ctx.candidate_count
    if state.halted:
        state.record(
            StageRecord(
                STAGE_STRATEGY,
                round=state.prune_rounds,
                rows_in=count,
                rows_out=0,
                skipped=state.halt_reason,
            )
        )
        return None
    started = time.perf_counter()
    if state.options.strategy == "auto":
        choice = choose_strategy(ctx)
        result = get_strategy(choice.name).run(ctx)
        if not choice.translatable:
            result.stats.setdefault(
                "ilp_fallback_reason", choice.translation_error
            )
        dispatched = choice.name
    else:
        dispatched = state.options.strategy
        result = get_strategy(dispatched).run(ctx)
    state.record(
        StageRecord(
            STAGE_STRATEGY,
            round=state.prune_rounds,
            rows_in=count,
            rows_out=(
                result.package.cardinality if result.package is not None else 0
            ),
            seconds=time.perf_counter() - started,
            detail={
                "dispatched": dispatched,
                "reported": result.strategy,
                "status": result.status.value,
            },
        )
    )
    return result


def run_validate(state, check, result):
    """Execute the validate stage (the engine's oracle gate)."""
    if state.halted:
        state.record(
            StageRecord(
                STAGE_VALIDATE,
                round=state.prune_rounds,
                skipped=state.halt_reason,
            )
        )
        return
    size = result.package.cardinality if result.package is not None else 0
    started = time.perf_counter()
    check(result)
    state.record(
        StageRecord(
            STAGE_VALIDATE,
            round=state.prune_rounds,
            rows_in=size,
            rows_out=size,
            seconds=time.perf_counter() - started,
            detail={"validated": result.package is not None},
        )
    )


def simulate_solve(state):
    """The planner's solve half: same records, nothing solved.

    Emits the strategy-dispatch and validate records with the same
    names, rounds, and skip reasons the engine would produce — the
    identity tuples the agreement property test compares — while only
    consulting the cost model (no strategy ``run``, no validation).

    Returns the :class:`~repro.core.cost.StrategyChoice`, or ``None``
    when the pipeline halted.
    """
    from repro.core.cost import choose_strategy

    ctx = state.ctx
    count = ctx.candidate_count
    if state.halted:
        state.record(
            StageRecord(
                STAGE_STRATEGY,
                round=state.prune_rounds,
                rows_in=count,
                rows_out=0,
                skipped=state.halt_reason,
            )
        )
        state.record(
            StageRecord(
                STAGE_VALIDATE,
                round=state.prune_rounds,
                skipped=state.halt_reason,
            )
        )
        return None
    started = time.perf_counter()
    choice = choose_strategy(ctx)
    predicted = (
        choice.name
        if state.options.strategy == "auto"
        else state.options.strategy
    )
    state.record(
        StageRecord(
            STAGE_STRATEGY,
            round=state.prune_rounds,
            rows_in=count,
            seconds=time.perf_counter() - started,
            detail={"dispatched": predicted},
        )
    )
    state.record(
        StageRecord(STAGE_VALIDATE, round=state.prune_rounds)
    )
    return choice
