"""The ``partition`` strategy: sketch over partitions, then refine.

Scales package evaluation past what the monolithic ILP handles by
decomposing the candidate set (the direction the scalability
literature points at for package queries):

1. **Partition** (offline): quantile-bin the candidates on the
   attributes the query aggregates over
   (:mod:`repro.core.partitioning`), picking one representative tuple
   per partition.

2. **Sketch**: solve the query's ILP over just the representatives,
   with each representative's multiplicity capped by its partition
   size — one variable stands in for a whole partition, so the model
   has ``k`` variables instead of ``n``.

3. **Refine** partition by partition: repeatedly take the unrefined
   partition carrying the most sketch mass, expand it to its real
   tuples, and re-solve with already-refined choices pinned and the
   other partitions still represented.  Each refine step is a small
   ILP (``n/k + k`` variables) dispatched through the same solver
   machinery as everything else; when a step comes up infeasible the
   strategy falls back to the cost model's next-best strategy over
   the full candidate set, so a sketch approximation error never
   becomes a wrong answer (the validator judges the final package,
   and the engine's oracle gate re-validates it regardless).

The result is heuristic (``FEASIBLE``, no optimality proof) except in
the degenerate all-singleton case, where the sketch *is* the exact
ILP.
"""

from __future__ import annotations

from repro.core.package import Package
from repro.core.partitioning import build_partitioning
from repro.core.result import EvaluationResult, ResultStatus
from repro.core.strategies.base import (
    Strategy,
    StrategyEstimate,
    resolved_backend,
    solve_model,
)
from repro.core.translate_ilp import ILPTranslationError, translate
from repro.core.validator import check_global
from repro.solver.branch_and_bound import BranchAndBoundOptions


class PartitionStrategy(Strategy):
    name = "partition"
    exact = False
    summary = (
        "offline k-partition of the candidates, sketch ILP over "
        "per-partition representatives, then partition-by-partition "
        "refinement; scales to candidate sets far beyond the exact ILP"
    )

    def applicable(self, query, ctx):
        return ctx.translatable and ctx.candidate_count >= 1

    def estimate(self, ctx):
        opts = ctx.options.partition
        n = ctx.candidate_count
        if not ctx.translatable:
            return StrategyEstimate(
                eligible=False,
                tier=0,
                cost=float("inf"),
                reason=f"no linear encoding: {ctx.translation_error}",
            )
        if n < opts.auto_threshold:
            return StrategyEstimate(
                eligible=False,
                tier=0,
                cost=float("inf"),
                reason=(
                    f"{n} candidates below the partition threshold "
                    f"{opts.auto_threshold}: the exact ILP is preferable"
                ),
            )
        if not 0 < ctx.bounds.upper <= opts.max_package_cardinality:
            return StrategyEstimate(
                eligible=False,
                tier=0,
                cost=float("inf"),
                reason=(
                    f"cardinality bound {ctx.bounds.upper} outside "
                    f"(0, {opts.max_package_cardinality}]: sketch-refine "
                    "needs small packages"
                ),
            )
        k = opts.resolved_count(n)
        steps = min(k, max(1, ctx.bounds.upper))
        # The O(n) term is the binning scan: one pass per binning
        # attribute, and those passes run concurrently — so the real
        # parallel width is capped by the attribute count, not the
        # shard count.  The estimate (and hence plan()) predicts that
        # actual parallel path.
        from repro.core.partitioning import partition_attributes

        attrs = len(partition_attributes(ctx.query)[: opts.max_attributes])
        width = max(1, min(ctx.parallelism, max(1, attrs)))
        scan = n / width
        cost = scan + float(k) ** 1.5 + steps * float(n / k + k) ** 1.5
        parallel_note = (
            f" (binning over {width} workers)" if width > 1 else ""
        )
        return StrategyEstimate(
            eligible=True,
            tier=0,
            cost=cost,
            reason=(
                f"{n} candidates >= partition threshold "
                f"{opts.auto_threshold}: sketch-refine over {k} partitions"
                f"{parallel_note}"
            ),
        )

    # -- evaluation -----------------------------------------------------------

    def run(self, ctx):
        if not ctx.translatable:  # raise like strategy="ilp", cheaply
            raise ILPTranslationError(ctx.translation_error)
        opts = ctx.options.partition
        repeat = ctx.query.repeat
        parts = build_partitioning(
            ctx.query,
            ctx.relation,
            ctx.candidate_rids,
            opts.resolved_count(ctx.candidate_count),
            max_attributes=opts.max_attributes,
            workers=getattr(ctx.options, "workers", 0),
            columns=ctx.columns,
        )
        stats = {
            "partitions": len(parts),
            "binning_attributes": len(parts.attributes),
            "refine_steps": 0,
            "solver_nodes": 0,
            "solver_backend": resolved_backend(ctx.options.solver_backend),
            "sketch_variables": len(parts),
        }

        bb_options = BranchAndBoundOptions(node_limit=ctx.options.node_limit)
        unrefined = set(range(len(parts)))
        pinned = {}

        def attempt(refining):
            """Solve with refined choices pinned, ``refining`` expanded."""
            rids = list(pinned)
            upper = dict(pinned)
            for group_index in unrefined:
                if group_index == refining:
                    continue
                representative = parts.representatives[group_index]
                rids.append(representative)
                upper[representative] = (
                    len(parts.groups[group_index]) * repeat
                )
            if refining is not None:
                rids.extend(parts.groups[refining])
            # A pin's lower and upper bound are equal: it is fixed.
            translation = translate(
                ctx.query, ctx.relation, rids, upper_bounds=upper, lower_bounds=pinned
            )
            solved = solve_model(translation, ctx.options.solver_backend, bb_options)
            stats["solver_nodes"] += solved.nodes
            return solved

        solved = attempt(None)
        if solved.package is None:
            return self._fallback(ctx, f"sketch {solved.status.value}", stats)

        package, status = solved.package, solved.status
        counts = dict(package.counts)
        # A degenerate sketch, where every representative is its whole
        # partition, is the exact ILP: nothing to refine.
        refine = any(len(group) > 1 for group in parts.groups)
        while refine:
            loaded = [
                group_index
                for group_index in unrefined
                if counts.get(parts.representatives[group_index], 0) > 0
            ]
            if not loaded:
                package = Package(ctx.relation, dict(pinned))
                status = ResultStatus.FEASIBLE
                break

            target = max(
                loaded,
                key=lambda q: (counts[parts.representatives[q]], -q),
            )
            solved = attempt(target)
            stats["refine_steps"] += 1
            if solved.package is None:
                return self._fallback(
                    ctx,
                    f"refine step {stats['refine_steps']} "
                    f"{solved.status.value}",
                    stats,
                )

            unrefined.discard(target)
            counts = dict(solved.package.counts)
            for rid in parts.groups[target]:
                value = counts.get(rid, 0)
                if value > 0:
                    pinned[rid] = value

        # A sketch is not the query, so solve_model judged none of the
        # steps: the package they built is judged here.
        if not check_global(package, ctx.query):
            return self._fallback(ctx, "refined package rejected", stats)
        return EvaluationResult(
            package=package,
            status=status,
            strategy=self.name,
            query=ctx.query,
            stats=stats,
        )

    def _fallback(self, ctx, reason, stats):
        """Sketch/refine dead end: defer to the next-best strategy.

        A sketch infeasibility is *not* a proof about the original
        query (representatives approximate their partitions), so the
        honest outcomes are a full re-evaluation or UNKNOWN.
        """
        if not ctx.options.partition.fallback:
            stats["gave_up"] = reason
            return EvaluationResult(
                package=None,
                status=ResultStatus.UNKNOWN,
                strategy=self.name,
                query=ctx.query,
                stats=stats,
            )
        from repro.core.cost import choose_strategy
        from repro.core.strategies import get_strategy

        choice = choose_strategy(ctx, exclude=(self.name,))
        result = get_strategy(choice.name).run(ctx)
        result.stats["partition_fallback"] = reason
        return result
