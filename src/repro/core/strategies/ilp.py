"""The ``ilp`` strategy: translate to an integer program, solve exactly."""

from __future__ import annotations

import numpy as np

from repro.core.result import EvaluationResult
from repro.core.strategies.base import (
    Strategy,
    StrategyEstimate,
    resolved_backend,
    solve_model,
)
from repro.solver.branch_and_bound import BranchAndBoundOptions

#: Incumbent warm starts only engage past this many variables: below
#: it the seed-and-validate cost rivals the whole solve, and small
#: models are where equal-objective ties could flip which optimal
#: package the search lands on.
WARM_START_MIN_VARIABLES = 256


def _warm_start(ctx, translation):
    """A feasible greedy incumbent as a variable-value array, or None.

    The greedy seed ranks candidates by per-tuple objective
    contribution (:func:`repro.core.greedy.greedy_seed`); when the
    resulting package validates against the query, its multiplicities
    become the builtin branch-and-bound's initial primal bound.  The
    solver re-checks the vector against the model, so a bad seed can
    only be ignored, never believed.  The seed ranks by the objective
    column the translation already gathered into ``ctx.columns``.
    """
    from repro.core.greedy import greedy_seed
    from repro.core.validator import is_valid

    seed = greedy_seed(
        ctx.query,
        ctx.relation,
        ctx.candidate_rids,
        bounds=ctx.bounds,
        columns=ctx.columns,
    )
    if seed is None or not is_valid(seed, ctx.query):
        return None
    x = np.zeros(translation.model.num_variables)
    x[translation.x_vars] = translation.multiplicities(seed)
    return x


class ILPStrategy(Strategy):
    name = "ilp"
    exact = True
    summary = (
        "translate the query to an integer linear program and solve it "
        "exactly (builtin simplex + branch-and-bound, or scipy/HiGHS)"
    )

    def applicable(self, query, ctx):
        return ctx.translatable

    def estimate(self, ctx):
        if not ctx.translatable:
            return StrategyEstimate(
                eligible=False,
                tier=1,
                cost=float("inf"),
                reason=f"no linear encoding: {ctx.translation_error}",
            )
        n = ctx.candidate_count
        # Branch-and-bound work grows superlinearly in the variable count.
        return StrategyEstimate(
            eligible=True,
            tier=1,
            cost=float(n) ** 1.5,
            reason="query has a linear encoding: use the ILP solver",
        )

    def run(self, ctx):
        translation = ctx.translation()
        backend = resolved_backend(ctx.options.solver_backend)
        warm = None
        if (
            translation.model.num_variables >= WARM_START_MIN_VARIABLES
            and backend == "builtin"
        ):
            # Only the builtin branch and bound consumes a primal warm
            # start; don't pay the greedy seed + validation for a
            # backend that throws it away.
            warm = _warm_start(ctx, translation)
        bb_options = BranchAndBoundOptions(
            node_limit=ctx.options.node_limit, initial_solution=warm
        )
        solved = solve_model(translation, backend, bb_options)
        stats = {
            "solver_backend": backend,
            "variables": translation.model.num_variables,
            "constraints": translation.model.num_constraints,
            "nodes": solved.nodes,
            "iterations": solved.iterations,
            "warm_start": warm is not None,
            "judge_cuts": solved.cuts,
        }
        if solved.gave_up:
            stats["gave_up"] = solved.gave_up
        return EvaluationResult(
            package=solved.package,
            status=solved.status,
            strategy=self.name,
            query=ctx.query,
            stats=stats,
        )
