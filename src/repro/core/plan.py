"""Evaluation planning: EXPLAIN for package queries.

Section 5 calls for "a more principled approach to package query
optimization".  This module is the inspection half of that: given a
query and a relation, it predicts — *without solving anything* — what
the evaluator will do and why:

* how many candidates survive base-constraint pushdown;
* the derived cardinality bounds and the pruned/unpruned search-space
  sizes;
* whether the query has a linear (ILP) encoding, and if not, the
  exact reason;
* which strategy ``auto`` would choose, with the decision trail;
* the ILP's size (variables, constraints, integer count) when one
  exists.

The prediction is exact by construction: the plan *runs* the same
analysis pipeline (:mod:`repro.core.pipeline`) the engine executes —
rewrite, WHERE filter, zone-skip, the prune/reduce fixpoint — and then
*simulates* the solve half over the identical
:class:`~repro.core.strategies.base.EvaluationContext`, consulting the
same :func:`repro.core.cost.choose_strategy`.  There is no second copy
of the stage ordering or the auto logic to drift out of sync: the
simulated stage records in :attr:`EvaluationPlan.stages` carry the
same names, rounds, and skip reasons as the engine's executed
``stats["stages"]`` (a property the tests enforce).

The CLI exposes this as ``repro plan``; tests assert the plan's
predictions against what the engine then actually does.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EvaluationPlan:
    """The predicted evaluation of one package query.

    Attributes:
        candidate_count: tuples surviving the base constraints.
        bounds: derived :class:`~repro.core.pruning.CardinalityBounds`.
        space_unpruned: ``2^n`` candidate packages (set semantics).
        space_pruned: candidate packages inside the bounds.
        translatable: whether a linear encoding exists.
        translation_error: the reason when it does not.
        model_variables / model_constraints / model_integers: ILP size
            (0 when not translatable).
        chosen_strategy: what ``auto`` will run.
        decisions: human-readable decision trail, in order.
        sharding: the sharded scan's ``stats["shards"]`` payload
            (shard / zone-skip / worker counts) when
            ``EngineOptions.shards > 1`` put the WHERE stage on the
            parallel path; ``None`` otherwise.
        reduction: the candidate-space reducer's ``stats["reduction"]``
            payload (kept/fixed/dominated counts, zone-shard fixing,
            dominance outcome, fixpoint rounds) when
            ``EngineOptions.reduce`` is not ``off`` and the query has
            global constraints; ``None`` otherwise.
            ``candidate_count`` stays the pre-reduction count; the
            search-space sizes describe the reduced set the strategies
            actually face.
        stages: the simulated pipeline stage records
            (:class:`~repro.core.ir.StageRecord`) — same names, rounds
            and skip reasons as the engine's executed
            ``stats["stages"]``.
    """

    candidate_count: int
    bounds: object
    space_unpruned: int
    space_pruned: int
    translatable: bool
    translation_error: str | None = None
    model_variables: int = 0
    model_constraints: int = 0
    model_integers: int = 0
    chosen_strategy: str = "ilp"
    decisions: list = field(default_factory=list)
    sharding: dict | None = None
    reduction: dict | None = None
    stages: list = field(default_factory=list)

    def lines(self):
        from repro.core.pruning import format_count

        out = [
            f"candidates after base constraints: {self.candidate_count}",
            f"cardinality bounds: [{self.bounds.lower}, {self.bounds.upper}]",
            f"search space: 2^n = {format_count(self.space_unpruned)}, "
            f"pruned = {format_count(self.space_pruned)}",
        ]
        if self.sharding is not None:
            out.append(
                f"sharded scan: {self.sharding['count']} shards, "
                f"{self.sharding['skipped']} skipped by zone maps, "
                f"{self.sharding['workers']} workers"
            )
        if self.reduction is not None:
            r = self.reduction
            line = (
                f"reduced scan: kept {r['kept']} of {r['input']} candidates "
                f"(fixed {r['fixed']}, dominated {r['dominated']}, "
                f"mode {r['mode']})"
            )
            zone = r.get("zone")
            if zone is not None:
                line += (
                    f"; zone maps fixed {zone['fixed_shards']} shards "
                    "without scanning"
                )
            out.append(line)
        if self.translatable:
            out.append(
                f"ILP encoding: {self.model_variables} variables "
                f"({self.model_integers} integer), "
                f"{self.model_constraints} constraints"
            )
        else:
            out.append(f"no ILP encoding: {self.translation_error}")
        out.append(f"strategy: {self.chosen_strategy}")
        for decision in self.decisions:
            out.append(f"  - {decision}")
        return out

    def text(self):
        return "\n".join(self.lines())


def plan(query, relation, candidate_rids=None, options=None, evaluator=None):
    """Build the :class:`EvaluationPlan` for an analyzed query.

    Runs the engine's own analysis pipeline in ``simulated`` mode —
    the identical rewrite / WHERE / zone-skip / prune-reduce-fixpoint
    code path — then consults the same cost model over the resulting
    context, so the predicted strategy is the strategy and the
    simulated stage list mirrors the executed one (both tested).

    Args:
        candidate_rids: pre-filtered candidates; skips the WHERE stage.
        evaluator: reuse an existing
            :class:`~repro.core.engine.PackageQueryEvaluator` (and its
            shard/artifact caches) instead of building a fresh one —
            the :class:`~repro.core.session.EvaluationSession` path.
    """
    from repro.core.engine import EngineOptions, PackageQueryEvaluator
    from repro.core.pipeline import run_analysis, simulate_solve

    options = options or EngineOptions()
    if evaluator is None:
        evaluator = PackageQueryEvaluator(relation)
    state = run_analysis(
        evaluator,
        query,
        options,
        artifacts=evaluator.artifacts,
        supplied_rids=candidate_rids,
        mode="simulated",
    )
    choice = simulate_solve(state)
    ctx = state.ctx
    reduction_stats = (
        ctx.reduction.stats() if ctx.reduction is not None else None
    )

    if choice is None:
        # The pipeline halted: empty cardinality bounds, or a
        # reduction infeasibility proof.
        if state.halt_strategy == "pruning":
            error = "not attempted (bounds empty)"
            decisions = [
                "cardinality bounds are empty: infeasible without solving"
            ]
        else:
            error = "not attempted (reduction proved infeasibility)"
            decisions = [state.halt_reason]
        return EvaluationPlan(
            candidate_count=ctx.base_candidate_count,
            bounds=ctx.bounds,
            space_unpruned=ctx.space_unpruned,
            space_pruned=ctx.space_pruned,
            translatable=False,
            translation_error=error,
            chosen_strategy=state.halt_strategy,
            decisions=decisions,
            sharding=ctx.shard_info,
            reduction=reduction_stats,
            stages=state.records,
        )

    model_variables = model_constraints = model_integers = 0
    translation, _ = ctx.try_translation()
    if translation is not None:
        model_variables = translation.model.num_variables
        model_constraints = translation.model.num_constraints
        model_integers = int(translation.model.is_integer.sum())

    # An explicit EngineOptions.strategy is what evaluation will
    # dispatch — report it (matching the simulated stage record)
    # instead of the cost model's auto pick, which only governs
    # strategy="auto".
    chosen = choice.name
    decisions = choice.decisions
    if options.strategy != "auto":
        chosen = options.strategy
        decisions = decisions + [
            f"explicit dispatch: options.strategy = {options.strategy!r} "
            f"(auto would pick {choice.name})"
        ]

    return EvaluationPlan(
        candidate_count=ctx.base_candidate_count,
        bounds=ctx.bounds,
        space_unpruned=ctx.space_unpruned,
        space_pruned=ctx.space_pruned,
        translatable=choice.translatable,
        translation_error=choice.translation_error,
        model_variables=model_variables,
        model_constraints=model_constraints,
        model_integers=model_integers,
        chosen_strategy=chosen,
        decisions=decisions,
        sharding=ctx.shard_info,
        reduction=reduction_stats,
        stages=state.records,
    )
