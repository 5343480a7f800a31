"""The package query evaluator.

Orchestrates the full pipeline of Section 4: parse and analyze the
PaQL text, filter by the base constraints (compiled kernels in
memory; a weakened SQL prefilter plus the same kernels for a
sql-backed relation), derive cardinality bounds, and evaluate with
one of the registered strategies (:mod:`repro.core.strategies`) — or,
like the demo system, "heuristically combine all of them" via the
shared cost model (:mod:`repro.core.cost`):

* ``ilp`` — translate to an integer program and solve exactly;
* ``brute-force`` — pruned exhaustive enumeration (exact, small n);
* ``local-search`` — the Section 4.2 heuristic (fast, incomplete);
* ``sql`` — generate-and-validate SQL against the sqlite backend
  (exact, explicit dispatch only);
* ``partition`` — offline k-partitioning, sketch ILP over
  representatives, partition-by-partition refinement (heuristic,
  scales past the exact ILP);
* ``auto`` — ask the cost model, which ranks every registered
  strategy's estimate: ``partition`` on large translatable inputs,
  otherwise ILP when the query translates, brute force when the
  pruned space is small enough, and local search as the safety net.

The engine itself is a thin orchestrator over the staged pipeline
(:mod:`repro.core.pipeline`): the stage sequence — rewrite, WHERE
filter, zone-skip, the prune/reduce fixpoint, strategy dispatch,
validation — is data the planner simulates and ``repro explain``
renders, not code duplicated per consumer.  Strategy selection lives
in :func:`repro.core.cost.choose_strategy` (shared verbatim with
``repro plan``), evaluation lives in the strategy classes, and every
returned package is re-validated here against the original query — a
strategy bug surfaces as an :class:`EngineError`, never as a wrong
answer.  Per-stage records (rows in/out, wall-clock, skip reasons)
are published as ``stats["stages"]``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.paql.parser import parse
from repro.paql.semantics import analyze
from repro.core.cache import BoundedCache
from repro.core.vectorize import evaluator_for, where_positions
from repro.core.ir import records_payload
from repro.core.local_search import LocalSearch, LocalSearchOptions
from repro.core.parallel import (
    BACKENDS,
    collect_parallel_events,
    effective_workers,
    parallel_map,
)
from repro.core.partitioning import PartitionOptions
from repro.core.pipeline import dispatch_strategy, run_analysis, run_validate
from repro.core.result import EngineError, EvaluationResult, ResultStatus
from repro.core.validator import validate
from repro.relational.content_hash import rids_fingerprint
from repro.relational.sharding import ShardedRelation

__all__ = [
    "EngineError",
    "EngineOptions",
    "EvaluationResult",
    "PackageQueryEvaluator",
    "ResultStatus",
    "evaluate",
]


@dataclass
class EngineOptions:
    """Evaluation options.

    Attributes:
        strategy: ``auto`` or any registered strategy name —
            ``ilp`` | ``brute-force`` | ``local-search`` | ``sql`` |
            ``partition`` (see :mod:`repro.core.strategies`).
        solver_backend: ``builtin`` (from-scratch simplex + B&B),
            ``scipy`` (HiGHS), or ``auto`` (scipy when installed).
        brute_force_limit: ``auto`` falls back from local search to
            brute force only when the pruned space is at most this big.
        node_limit: branch-and-bound node cap.
        local_search: options for the heuristic strategy.
        partition: options for the sketch-refine strategy
            (:class:`~repro.core.partitioning.PartitionOptions`).
        use_pruning: apply cardinality bounds (the E1 ablation turns
            this off).
        rewrite: run the logical query-rewrite pass (constant folding,
            interval merging, contradiction detection) before
            evaluation — the Section 5 "optimizing PaQL queries" layer.
        shards: split the relation into this many contiguous shards
            for the scan stages (WHERE filtering, pruning statistics);
            1 (the default) keeps the single-pass path.  Sharding
            never changes results — per-shard kernels concatenate to
            exactly the single-pass answer, and zone statistics only
            skip shards *proved* empty of matches (see
            ``docs/sharding.md``).
        workers: workers for shard- and partition-parallel stages;
            0 means one per available CPU, 1 forces serial execution.
        parallel_backend: execution backend for those stages —
            ``thread`` (default; numpy kernels release the GIL) or
            ``serial``.  Checked on construction.  Backends never
            change results; every degradation (e.g. a thread pool
            that cannot start) is recorded in ``stats["parallel"]``.
        reduce: candidate-space reduction mode (``docs/reduction.md``):
            ``safe`` (the default) fixes out tuples the global
            constraints prove absent from every acceptable package —
            never changing feasibility status or optimal objective —
            ``aggressive`` adds dominance pruning when its analysis
            proves an optimal package survives, and ``off`` restores
            the exact unreduced pipeline.
        pushdown: scan path for sql-backed relations
            (``docs/out_of_core.md``): ``auto`` (the default) lets the
            cost model pick from table size and the SQL prefilter's
            estimated selectivity, ``always`` forces the streaming
            pushdown path, ``materialize`` forces full in-memory
            materialization.  Ignored for in-memory relations; the
            path never changes results (candidate rids are
            bit-identical by construction).
    """

    strategy: str = "auto"
    solver_backend: str = "builtin"
    brute_force_limit: int = 200000
    node_limit: int = 200000
    local_search: LocalSearchOptions = field(default_factory=LocalSearchOptions)
    partition: PartitionOptions = field(default_factory=PartitionOptions)
    use_pruning: bool = True
    rewrite: bool = True
    shards: int = 1
    workers: int = 0
    reduce: str = "safe"
    parallel_backend: str = "thread"
    pushdown: str = "auto"

    def __post_init__(self):
        if self.parallel_backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.parallel_backend!r} "
                f"(choose from {BACKENDS})"
            )


class PackageQueryEvaluator:
    """Evaluates PaQL queries over one relation.

    Args:
        relation: the base :class:`~repro.relational.relation.Relation`
            (or a sql-backed
            :class:`~repro.relational.sql_relation.SqlRelation`).
        artifacts: optional
            :class:`~repro.core.session.ArtifactCache` — evaluation
            then reuses WHERE results, bounds and reduction facts
            across queries (how
            :class:`~repro.core.session.EvaluationSession` wires its
            caches through the pipeline).
    """

    def __init__(self, relation, artifacts=None):
        self._relation = relation
        self._sharded = None
        self._artifacts = artifacts
        # Out-of-core scan results (sql-backed relations only): the
        # last few WHERE outcomes keyed by clause, and the last
        # streamed resident sets keyed by candidate content.  Small
        # caps — residents can be large.
        self._scan_cache = BoundedCache(4)
        self._stream_cache = BoundedCache(2)
        # Serializes the evaluator's lazily-built shared state — the
        # cached ShardedRelation — under concurrent callers (one
        # session serving many threads).  Held only around the build,
        # never around query work.
        self._shared_state_lock = threading.RLock()

    # -- helpers --------------------------------------------------------------

    @property
    def relation(self):
        """The base relation this evaluator answers queries over."""
        return self._relation

    @property
    def artifacts(self):
        """The session's :class:`~repro.core.session.ArtifactCache`,
        or ``None`` outside a session."""
        return self._artifacts

    def sharded_relation(self, shards):
        """The cached :class:`ShardedRelation` at ``shards`` shards.

        Rebuilt only when the shard count changes; zone statistics are
        cached inside and column arrays are shared with the base
        relation, so repeated evaluation at one shard count pays the
        split exactly once.
        """
        with self._shared_state_lock:
            if self._sharded is None or self._sharded.num_shards != shards:
                self._sharded = ShardedRelation(self._relation, shards)
            return self._sharded

    def adopt_sharded(self, sharded):
        """Adopt a pre-built sharded view of this evaluator's relation.

        Sessions use this after a mutation: the
        :meth:`~repro.relational.sharding.ShardedRelation.append` /
        ``delete`` result keeps shard boundaries aligned with the
        pre-mutation layout (``chunk_slices`` would move every
        boundary), which is what lets untouched shards keep their
        content fingerprints and reuse their stored artifacts.
        """
        if sharded.relation is not self._relation:
            raise EngineError(
                "adopted sharding must wrap this evaluator's relation"
            )
        self._sharded = sharded

    def close(self):
        """Release owned resources; idempotent.

        Nothing needs releasing — shard scans run on threads over the
        relation's own arrays — but callers that manage evaluator
        lifetimes, and ``with`` blocks, may treat every evaluator as
        closeable.
        """

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def prepare(self, query_or_text):
        """Parse (if text) and analyze a query against the relation."""
        query = (
            parse(query_or_text)
            if isinstance(query_or_text, str)
            else query_or_text
        )
        if query.relation != self._relation.name:
            raise EngineError(
                f"query is over {query.relation!r} but this evaluator holds "
                f"{self._relation.name!r}"
            )
        return analyze(query, self._relation.schema)

    def candidates(self, query, options=None):
        """rids satisfying the base constraints."""
        return self._candidates_with_path(query, options)[0]

    def filtered_candidates(self, query, options=None, artifacts=None):
        """The pipeline's WHERE stage: ``(rids, path, shard_info)``.

        With an artifact cache, the result is keyed on the WHERE
        clause and the shard count, so a second query sharing the
        clause skips the scan entirely (the filter is a pure function
        of the immutable relation).
        """
        if artifacts is None:
            return self._candidates_with_path(query, options)
        key = artifacts.where_key(query, options)
        hit = artifacts.where.get(key)
        if hit is not None:
            rids, path, shard_info = hit
            # Copies, not aliases: a caller mutating a result's rid
            # list or shards payload must never corrupt the cache.
            # Stored rids are a compact numpy array (8 bytes/rid, so
            # the cache's byte bound is meaningful); hand back the
            # plain int list the pipeline works with.
            return (
                rids.tolist(),
                path,
                dict(shard_info) if shard_info else shard_info,
            )
        rids, path, shard_info = self._candidates_with_path(query, options)
        artifacts.where.put(
            key,
            (
                np.asarray(rids, dtype=np.intp),
                path,
                dict(shard_info) if shard_info else shard_info,
            ),
        )
        return rids, path, shard_info

    def _candidates_with_path(self, query, options=None):
        """``(rids, path, shard_info)`` for the WHERE stage.

        ``path`` records which WHERE engine ran.  Preference order: no
        WHERE at all (``none``), the compiled columnar kernel —
        shard-parallel with zone-map skipping when ``options.shards >
        1`` (``vectorized-sharded``), single-pass otherwise
        (``vectorized``) — and only when no kernel exists the per-row
        AST interpreter (``interpreted``), the compile-failure
        fallback.  ``shard_info`` is the
        ``stats["shards"]`` payload when the sharded path ran, else
        ``None``.

        For a sql-backed relation the scan runs through the pushdown
        planner (:mod:`repro.core.pushdown`): WHERE conjuncts execute
        inside sqlite as a weakened prefilter plus zone-range skipping,
        and survivors stream out in batches for an exact recheck by
        the same kernels the in-memory path compiles — the returned
        rids are bit-identical to an in-memory evaluation
        (``sql-pushdown``), unless the cost model decides the table is
        small enough to materialize outright (``materialized``).
        """
        if getattr(self._relation, "is_sql_backed", False):
            outcome = self._pushdown_scan(query, options)
            return list(outcome.candidate_rids), outcome.path, None
        if query.where is None:
            return list(range(len(self._relation))), "none", None
        if options is not None and options.shards > 1:
            sharded = self._sharded_candidates(query, options)
            if sharded is not None:
                rids, shard_info = sharded
                return rids, "vectorized-sharded", shard_info
        positions, path = where_positions(query.where, self._relation)
        return positions.tolist(), path, None

    def _pushdown_scan(self, query, options):
        """The out-of-core WHERE scan, memoized on the clause text.

        The scan is a pure function of the immutable backing table and
        the WHERE clause, so a small LRU makes repeated queries over
        the same clause (the session workload) skip the sqlite pass
        entirely — the artifact cache's WHERE layer plays the same
        role across restarts.
        """
        from repro.core.pushdown import run_where
        from repro.paql.printer import print_expr

        clause = print_expr(query.where) if query.where is not None else ""
        key = (clause, getattr(options, "pushdown", "auto"))
        outcome = self._scan_cache.get(key)
        if outcome is None:
            outcome = run_where(self._relation, query, options or EngineOptions())
            self._scan_cache.put(key, outcome)
        return outcome

    def stream_residents(self, query, options, candidate_rids):
        """Stream surviving candidates into memory (pipeline stream stage).

        Derives the query's SQL fixing predicates (safe-mode reduction
        thresholds pushed into the scan), streams the candidate rows
        that survive them out of sqlite, and returns the
        ``StreamOutcome``.  Memoized on the candidate content and the
        fixing set, so back-to-back queries sharing a WHERE clause reuse
        the resident relation instead of re-streaming it.
        """
        from repro.core import pushdown

        labels, fixing = pushdown.build_fixing_predicates(
            query, self._relation, options
        )
        # Each predicate is an (sql, params) pair: the bound thresholds
        # are part of the key, not just the placeholder text.
        key = (rids_fingerprint(candidate_rids), tuple(fixing))
        outcome = self._stream_cache.get(key)
        if outcome is None:
            outcome = pushdown.stream_residents(
                self._relation, candidate_rids, labels, fixing
            )
            self._stream_cache.put(key, outcome)
        return outcome

    def _sharded_candidates(self, query, options):
        """Shard-parallel WHERE filtering; ``None`` when no kernel exists.

        Per shard, the compiled predicate kernel runs over that
        shard's zero-copy column views and surviving rids are offset
        back to relation coordinates; concatenating in shard order
        reproduces the single-pass result bit for bit (kernels are
        elementwise).  Shards the zone-map analysis proves cannot
        contain a match are skipped without touching their data.

        With a durable artifact store attached, each live shard's
        partial result is first looked up by ``(shard content
        fingerprint, clause)`` — rids are stored shard-relative so the
        entry stays valid when an earlier shard's mutation shifts this
        shard's absolute offsets — and only the missing shards are
        scanned (and written back).
        """
        evaluator = evaluator_for(self._relation)
        if not evaluator.supports(query.where, boolean=True):
            return None
        sharded = self.sharded_relation(options.shards)
        skippable = sharded.skippable_shards(query.where)
        live = [
            index
            for index in range(sharded.num_shards)
            if not skippable[index]
        ]

        use_store = (
            self._artifacts is not None
            and getattr(self._artifacts, "store", None) is not None
        )
        by_shard = {}
        pending = live
        if use_store:
            from repro.paql.printer import print_expr

            clause = print_expr(query.where)
            pending = []
            for index in live:
                relative = self._artifacts.where_shard.get(
                    (sharded.shard_fingerprint(index), clause)
                )
                if relative is None:
                    pending.append(index)
                else:
                    part = sharded.shard_slice(index)
                    by_shard[index] = part.start + np.asarray(
                        relative, dtype=np.intp
                    )

        def shard_rids(index):
            part = sharded.shard_slice(index)
            mask = evaluator.predicate_mask(query.where, part)
            return part.start + np.flatnonzero(mask)

        pieces = parallel_map(
            shard_rids,
            pending,
            workers=options.workers,
            backend=options.parallel_backend,
        )
        for index, piece in zip(pending, pieces):
            by_shard[index] = piece
            if use_store:
                part = sharded.shard_slice(index)
                self._artifacts.where_shard.put(
                    (sharded.shard_fingerprint(index), clause),
                    np.asarray(piece, dtype=np.intp) - part.start,
                )
        ordered = [by_shard[index] for index in live]
        rids = (
            np.concatenate(ordered)
            if ordered
            else np.empty(0, dtype=np.intp)
        )
        shard_info = {
            "count": sharded.num_shards,
            "evaluated": len(live),
            "skipped": sharded.num_shards - len(live),
            "workers": effective_workers(
                options.workers, max(1, len(pending))
            ),
            "backend": options.parallel_backend,
        }
        if use_store:
            shard_info["scanned"] = len(pending)
            shard_info["store_hits"] = len(live) - len(pending)
        return rids.tolist(), shard_info

    def context(self, query, options=None):
        """Run the pipeline's analysis half; return the strategies' input.

        parse/analyze must already have happened (``query`` is an
        analyzed AST, taken as already rewritten); this performs
        pushdown, the bound-derivation / candidate-space-reduction
        fixpoint (:mod:`repro.core.pipeline`), and packages the state
        every later stage shares.
        """
        options = options or EngineOptions()
        return run_analysis(
            self,
            query,
            options,
            artifacts=self._artifacts,
            apply_rewrite=False,
        ).ctx

    def local_incumbent(self, ctx):
        """A validated feasible package from local search, or ``None``.

        The budget path's safety net: when deadline-bounded enumeration
        expires without a single incumbent (a sparse package space can
        spend the whole budget proving nothing), the server asks for a
        heuristic incumbent instead of returning empty-handed.  The
        package goes through the same oracle gate as every strategy
        result — an invalid heuristic answer is dropped, never served.

        Returns ``(package, objective)`` or ``None`` when the heuristic
        finds nothing valid.
        """
        outcome = LocalSearch(
            ctx.query,
            ctx.relation,
            ctx.candidate_rids,
            ctx.options.local_search,
        ).run()
        if outcome.package is None:
            return None
        report = validate(outcome.package, ctx.query)
        if not report.valid:
            return None
        return outcome.package, report.objective

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, query_or_text, options=None):
        """Evaluate a package query and return an :class:`EvaluationResult`.

        Runs the staged pipeline end to end — rewrite, WHERE filter,
        zone-skip, the prune/reduce fixpoint, strategy dispatch,
        validation — and publishes the per-stage records as
        ``stats["stages"]`` (the same IR ``plan()`` simulates and
        ``repro explain`` renders).
        """
        options = options or EngineOptions()
        started = time.perf_counter()

        parallel_events = []
        with collect_parallel_events(parallel_events):
            query = self.prepare(query_or_text)
            state = run_analysis(
                self, query, options, artifacts=self._artifacts
            )
            result = dispatch_strategy(state)

            if result is None:
                # A stage proved infeasibility without solving: empty
                # cardinality bounds, or a reduction witness-set proof.
                run_validate(state, self._check, None)
                ctx = state.ctx
                stats = {
                    "reason": state.halt_reason,
                    "where_path": ctx.where_path,
                }
                if ctx.reduction is not None:
                    stats["reduction"] = ctx.reduction.stats()
                result = EvaluationResult(
                    package=None,
                    status=ResultStatus.INFEASIBLE,
                    strategy=state.halt_strategy,
                    query=state.query,
                    candidate_count=state.base_candidate_count,
                    bounds=ctx.bounds,
                    stats=stats,
                )
            else:
                ctx = state.ctx
                result.query = state.query
                # The absolute WHERE-survivor count: for a sql-backed
                # run the ctx's count reflects the resident relation
                # (post SQL fixing), which is an implementation detail.
                result.candidate_count = state.base_candidate_count
                result.bounds = ctx.bounds
                result.stats.setdefault("where_path", ctx.where_path)
                if ctx.reduction is not None:
                    result.stats.setdefault(
                        "reduction", ctx.reduction.stats()
                    )
                run_validate(state, self._check, result)
                if (
                    result.package is not None
                    and result.package.relation is not self._relation
                ):
                    # The package was solved and validated over the
                    # stream stage's in-memory working set (resident
                    # positions, or the materialized twin); rebase it
                    # onto the relation the caller evaluated over.
                    from repro.core.package import Package

                    if state.rid_map is not None:
                        counts = {
                            int(state.rid_map[position]): multiplicity
                            for position, multiplicity in result.package.counts
                        }
                    else:
                        counts = dict(result.package.counts)
                    result.package = Package(self._relation, counts)

        if state.stream_info is not None:
            result.stats.setdefault("pushdown", dict(state.stream_info))
        if parallel_events:
            result.stats["parallel"] = parallel_events
        if state.shard_info is not None:
            result.stats.setdefault("shards", state.shard_info)
        if state.rewrites_applied:
            result.stats["rewrites"] = state.rewrites_applied
        result.stats["stages"] = records_payload(state.records)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def _check(self, result):
        """Re-validate whatever a strategy returned (the oracle gate)."""
        if result.package is None:
            return
        report = validate(result.package, result.query)
        if not report.valid:
            raise EngineError(
                f"strategy {result.strategy!r} returned an invalid package: "
                f"base_ok={report.base_ok} global_ok={report.global_ok} "
                f"repeat_ok={report.repeat_ok}"
            )
        result.objective = report.objective


def evaluate(
    query_text,
    relation,
    options=None,
    shards=None,
    workers=None,
    reduce=None,
    parallel_backend=None,
):
    """One-call evaluation: build an evaluator, run one query.

    Args:
        shards: shortcut for ``EngineOptions.shards`` — shard-parallel
            scan stages with zone-map skipping (results are identical
            to ``shards=1`` by construction).
        workers: shortcut for ``EngineOptions.workers``.
        reduce: shortcut for ``EngineOptions.reduce`` — candidate-space
            reduction mode (``off`` | ``safe`` | ``aggressive``).
        parallel_backend: shortcut for
            ``EngineOptions.parallel_backend`` (``thread`` |
            ``serial``).

    All shortcuts override the corresponding field of ``options``
    when given.
    """
    overrides = {}
    if shards is not None:
        overrides["shards"] = shards
    if workers is not None:
        overrides["workers"] = workers
    if reduce is not None:
        overrides["reduce"] = reduce
    if parallel_backend is not None:
        overrides["parallel_backend"] = parallel_backend
    if overrides:
        from dataclasses import replace

        options = replace(options or EngineOptions(), **overrides)
    return PackageQueryEvaluator(relation).evaluate(query_text, options)
