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
   becomes a wrong answer (and the engine's oracle gate re-validates
   the final package regardless).

The result is heuristic (``FEASIBLE``, no optimality proof) except in
the degenerate all-singleton case, where the sketch *is* the exact
ILP.
"""

from __future__ import annotations

from repro.core.package import Package
from repro.core.parallel import parallel_map
from repro.core.partitioning import build_partitioning
from repro.core.result import EvaluationResult, ResultStatus
from repro.core.strategies.base import Strategy, StrategyEstimate, solve_model
from repro.core.translate_ilp import ILPTranslationError, translate
from repro.solver.status import Status

_SOLVED = (Status.OPTIMAL, Status.FEASIBLE)


def _summarize(translation, solution, backend):
    """One refinement attempt's compact outcome.

    Waves never keep models or solver state past the attempt — only
    the status, objective, node count, and the nonzero variable counts
    the caller needs to pick a winner and commit pins.
    """
    counts = translation.counts(solution) if solution.status in _SOLVED else {}
    return {
        "status": solution.status,
        "objective": solution.objective,
        "nodes": solution.nodes,
        "backend": backend,
        "counts": counts,
    }


def _pinned_translation(query, relation, rids, upper, pins):
    """The refinement model over ``rids`` with ``pins`` (a subset of
    them, ``{rid: multiplicity}``) fixed by equality rows."""
    translation = translate(query, relation, rids, upper_bounds=upper)
    pinned_vars = translation.x_vars[translation.positions(list(pins))]
    for variable, multiplicity in zip(pinned_vars.tolist(), pins.values()):
        translation.model.add_constraint(
            {variable: 1.0}, "=", float(multiplicity), name="pin"
        )
    return translation


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
        workers = getattr(ctx.options, "workers", 0)
        parts = build_partitioning(
            ctx.query,
            ctx.relation,
            ctx.candidate_rids,
            opts.resolved_count(ctx.candidate_count),
            max_attributes=opts.max_attributes,
            workers=workers,
        )
        stats = {
            "partitions": len(parts),
            "binning_attributes": len(parts.attributes),
            "refine_steps": 0,
            "solver_nodes": 0,
        }

        unrefined = set(range(len(parts)))
        pinned = {}

        def refine_inputs(refining):
            """Model inputs ``(rids, upper)`` for one refinement attempt.

            Pure with respect to ``pinned``/``unrefined`` (read, never
            written), so independent refinement attempts may run
            concurrently; callers account for stats afterwards.
            """
            rids = []
            upper = {}
            for rid, multiplicity in pinned.items():
                rids.append(rid)
                upper[rid] = multiplicity
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
            return rids, upper

        def attempt(refining):
            """Solve with refined choices pinned, ``refining`` expanded."""
            rids, upper = refine_inputs(refining)
            translation = _pinned_translation(
                ctx.query, ctx.relation, rids, upper, pinned
            )
            solution, backend = solve_model(translation.model, ctx.options)
            return translation, solution, backend

        def attempt_summary(refining):
            return _summarize(*attempt(refining))

        def account(outcome):
            stats["solver_backend"] = outcome["backend"]
            stats["solver_nodes"] += outcome["nodes"]

        translation, solution, backend = attempt(None)
        summary = _summarize(translation, solution, backend)
        account(summary)
        stats["sketch_variables"] = len(translation.x_vars)
        if solution.status not in _SOLVED:
            return self._fallback(
                ctx, f"sketch {solution.status.value}", stats
            )

        if all(len(group) == 1 for group in parts.groups):
            # Degenerate sketch: every representative is its whole
            # partition, so the sketch is the exact ILP.
            status = (
                ResultStatus.OPTIMAL
                if solution.status is Status.OPTIMAL
                else ResultStatus.FEASIBLE
            )
            return EvaluationResult(
                package=translation.decode(solution),
                status=status,
                strategy=self.name,
                query=ctx.query,
                stats=stats,
            )

        while True:
            counts = summary["counts"]
            loaded = [
                group_index
                for group_index in unrefined
                if counts.get(parts.representatives[group_index], 0) > 0
            ]
            if not loaded:
                break

            if opts.parallel_refine and len(loaded) > 1:
                # Refinement wave: the loaded partitions' refine ILPs
                # are independent (each reads the shared pins and
                # expands only itself), so solve them all concurrently
                # and commit the best — deterministic for any worker
                # count because the winner is picked by objective value
                # with a partition-index tie-break, never by
                # completion order.
                from repro.solver.model import ObjectiveSense

                wave = sorted(loaded)
                backend = getattr(ctx.options, "parallel_backend", "thread")
                outcomes = parallel_map(
                    attempt_summary, wave, workers=workers, backend=backend
                )
                stats["refine_steps"] += len(wave)
                stats["refine_waves"] = stats.get("refine_waves", 0) + 1
                stats["refine_backend"] = backend
                for outcome in outcomes:
                    account(outcome)
                solved = [
                    (group_index, outcome)
                    for group_index, outcome in zip(wave, outcomes)
                    if outcome["status"] in _SOLVED
                ]
                if not solved:
                    return self._fallback(
                        ctx,
                        f"refine wave {stats['refine_waves']} "
                        "infeasible in every partition",
                        stats,
                    )
                maximize = (
                    translation.model.objective_sense
                    is ObjectiveSense.MAXIMIZE
                )
                sign = 1.0 if maximize else -1.0
                target, summary = max(
                    solved,
                    key=lambda item: (sign * item[1]["objective"], -item[0]),
                )
            else:
                target = max(
                    loaded,
                    key=lambda q: (counts[parts.representatives[q]], -q),
                )
                summary = attempt_summary(target)
                account(summary)
                stats["refine_steps"] += 1
                if summary["status"] not in _SOLVED:
                    return self._fallback(
                        ctx,
                        f"refine step {stats['refine_steps']} "
                        f"{summary['status'].value}",
                        stats,
                    )

            unrefined.discard(target)
            refined_counts = summary["counts"]
            for rid in parts.groups[target]:
                value = refined_counts.get(rid, 0)
                if value > 0:
                    pinned[rid] = value

        return EvaluationResult(
            package=Package(ctx.relation, dict(pinned)),
            status=ResultStatus.FEASIBLE,
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
