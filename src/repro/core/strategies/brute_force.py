"""The ``brute-force`` strategy: pruned exhaustive enumeration."""

from __future__ import annotations

from repro.core.brute_force import BruteForceStats, find_best
from repro.core.pruning import format_count, search_space_size, unpruned_bounds
from repro.core.result import EvaluationResult, ResultStatus
from repro.core.strategies.base import Strategy, StrategyEstimate


class BruteForceStrategy(Strategy):
    name = "brute-force"
    exact = True
    summary = (
        "enumerate the pruned package space exhaustively; exact, but "
        "only viable while the space is small"
    )

    def applicable(self, query, ctx):
        # The enumerator handles multisets too (explicit dispatch with
        # REPEAT > 1 works); the auto gate on repeat lives in
        # estimate(), where the space accounting is what breaks down.
        return True

    def estimate(self, ctx):
        if ctx.query.repeat != 1:
            # search_space_size counts subsets only, so the limit
            # check below would undercount the multiset space and
            # could green-light an enumeration far over budget.
            return StrategyEstimate(
                eligible=False,
                tier=2,
                cost=float("inf"),
                reason=(
                    "REPEAT > 1: the pruned-space estimate only counts "
                    "sets, so the brute-force budget check is unsound"
                ),
            )
        limit = ctx.options.brute_force_limit
        space = search_space_size(ctx.candidate_count, ctx.bounds, limit=limit)
        if space > limit:
            return StrategyEstimate(
                eligible=False,
                tier=2,
                cost=float("inf"),
                reason=(
                    f"pruned space exceeds the brute-force limit {limit:g}"
                ),
            )
        return StrategyEstimate(
            eligible=True,
            tier=2,
            cost=float(space),
            reason=(
                f"pruned space {format_count(space)} <= brute-force limit "
                f"{limit:g}: enumerate exhaustively"
            ),
        )

    def run(self, ctx):
        stats = BruteForceStats()
        effective_bounds = ctx.bounds
        if not ctx.options.use_pruning:
            effective_bounds = unpruned_bounds(
                ctx.candidate_count, ctx.query.repeat
            )
        package = find_best(
            ctx.query,
            ctx.relation,
            ctx.candidate_rids,
            bounds=effective_bounds,
            stats=stats,
        )
        # ``is not None``: the empty package is falsy but may be optimal.
        status = (
            ResultStatus.OPTIMAL
            if package is not None
            else ResultStatus.INFEASIBLE
        )
        return EvaluationResult(
            package=package,
            status=status,
            strategy=self.name,
            query=ctx.query,
            stats={"examined": stats.examined, "valid": stats.valid},
        )
