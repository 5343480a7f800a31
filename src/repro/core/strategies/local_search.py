"""The ``local-search`` strategy: the Section 4.2 heuristic."""

from __future__ import annotations

from repro.core.local_search import LocalSearch
from repro.core.result import EvaluationResult, ResultStatus
from repro.core.strategies.base import Strategy, StrategyEstimate


class LocalSearchStrategy(Strategy):
    name = "local-search"
    exact = False
    summary = (
        "greedy seed + repair/improve local search; fast and scalable "
        "but incomplete (may miss answers that exist)"
    )

    def applicable(self, query, ctx):
        return True

    def estimate(self, ctx):
        opts = ctx.options.local_search
        return StrategyEstimate(
            eligible=True,
            tier=3,
            cost=float(opts.max_rounds) * max(1, ctx.candidate_count),
            reason=(
                "pruned space exceeds the brute-force limit: fall back "
                "to heuristic local search"
            ),
        )

    def run(self, ctx):
        search = LocalSearch(
            ctx.query,
            ctx.relation,
            ctx.candidate_rids,
            ctx.options.local_search,
            columns=ctx.columns,
        )
        outcome = search.run()
        stats = {
            "rounds": outcome.rounds,
            "moves_evaluated": outcome.moves_evaluated,
            "restarts": outcome.restarts_used,
        }
        if outcome.package is None:
            status = ResultStatus.UNKNOWN
        else:
            status = ResultStatus.FEASIBLE
        return EvaluationResult(
            package=outcome.package,
            status=status,
            strategy=self.name,
            query=ctx.query,
            stats=stats,
        )
