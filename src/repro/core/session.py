"""Evaluation sessions: one relation, many queries, cached artifacts.

The repeated-query workload — steady-state analytics serving, an
analyst iterating on one dataset, the ``repro repl`` — re-pays, on
every call to :func:`repro.core.engine.evaluate`, work that is a pure
function of the *immutable* relation and fragments of the query:
sharding and zone statistics, compiled vectorize kernels, the WHERE
scan, and (for an exactly repeated query) the solve itself.  The ILP
model is not cached: its key would be the result key in all but name,
so a repeat replays the answer instead and a new question builds its
own model.  Neither are cardinality bounds or reduction facts: they
depend on the candidate set, rarely repeat without the whole query
repeating, and cost less to recompute than to key.

:class:`EvaluationSession` keeps one
:class:`~repro.core.engine.PackageQueryEvaluator` alive and threads an
:class:`ArtifactCache` through the staged pipeline
(:mod:`repro.core.pipeline`), so the second query over the same
relation skips recompilation and re-sharding:

* **kernels** — the relation's shared
  :class:`~repro.core.vectorize.VectorEvaluator` compiles each AST
  node once; holding the relation (and evaluator) alive across
  queries is what keeps the kernel cache hot.
* **sharding + zone statistics** — the evaluator's cached
  :class:`~repro.relational.sharding.ShardedRelation` is built once
  per shard count; its zone stats and skip analyses are cached inside
  and always computed from the data.
* **artifact layers** — WHERE results and validated results, each a
  bounded cache on the :class:`ArtifactCache` (``docs/caching.md`` has
  the table of layers, bounds and key fields).
* **results** — an exactly repeated (query, options) pair replays the
  stored package *through the engine's oracle gate*: the package is
  re-validated against the query before being returned, so a stale or
  corrupted cache entry surfaces as an
  :class:`~repro.core.result.EngineError`, never as a wrong answer.
  Disable with ``reuse_results=False`` to re-solve every time while
  keeping the analysis-artifact reuse.

Soundness note: every cache key covers *all* inputs its value depends
on (clause text, shard layout, options), and the relation is
immutable by construction —
:class:`~repro.relational.relation.Relation` never mutates rows in
place.  Cache entries are therefore replays, not approximations; the
parity tests pin warm results bit-identical to cold ones.

**Durability.** Pass ``store=`` (an
:class:`~repro.core.artifact_store.ArtifactStore`) or ``store_path=``
(a directory; the session then owns the store) and the WHERE, per-shard
WHERE and result layers become read-through/write-through against
disk, keyed by the relation's *content hash* — a fresh process over
bit-identical data skips its scans and replays validated results
(still behind the oracle gate).  Per-query store activity is surfaced
as ``stats["artifacts"]``.

**Mutation.** :meth:`EvaluationSession.append_rows` and
:meth:`EvaluationSession.delete_rows` swap in a mutated relation
without discarding the store: per-shard WHERE partials are keyed by
*shard content fingerprint*, so only the shards a mutation touched
rescan — the
:class:`~repro.relational.sharding.MutationReport` returned names
exactly which — while relation-scoped layers re-key under the new
relation hash: the session builds a fresh :class:`ArtifactCache` for
the new relation, and a query still in flight keeps reading and
writing the one it started with.
"""

from __future__ import annotations

import copy
import pickle
import threading
import time

# ``_CachedResult`` is imported here as well because result entries
# that stores wrote before it moved to ``repro.core.cache`` unpickle it
# from this module.
from repro.core.cache import ArtifactCache, _CachedResult
from repro.core.engine import EngineOptions, PackageQueryEvaluator
from repro.core.result import EvaluationResult

__all__ = [
    "ArtifactCache",
    "EvaluationSession",
]


class EvaluationSession:
    """One relation, many queries, with cross-query artifact reuse.

    Args:
        relation: the base :class:`~repro.relational.relation.Relation`
            (treated as immutable for the session's lifetime).
        options: default :class:`~repro.core.engine.EngineOptions` for
            ``evaluate``/``plan``/``explain`` calls that pass none.
        reuse_results: replay validated results for exactly repeated
            ``(query, options)`` pairs (see the module docstring).
            Analysis artifacts are reused either way.
        store: optional durable
            :class:`~repro.core.artifact_store.ArtifactStore` shared
            with the caller (not closed by the session).
        store_path: directory for a session-owned store (mutually
            exclusive with ``store``; closed with the session).
        store_max_bytes: size bound for the session-owned store (LRU
            eviction; only meaningful with ``store_path``).
    """

    def __init__(self, relation, options=None, reuse_results=True,
                 store=None, store_path=None, store_max_bytes=None):
        if store is not None and store_path is not None:
            raise ValueError("pass store= or store_path=, not both")
        if store_max_bytes is not None and store_path is None:
            raise ValueError("store_max_bytes requires store_path")
        self._owns_store = False
        if store_path is not None:
            from repro.core.artifact_store import ArtifactStore

            store = ArtifactStore(store_path, max_bytes=store_max_bytes)
            self._owns_store = True
        self._artifact_store = store
        self._options = options or EngineOptions()
        self._reuse_results = reuse_results
        self.queries_run = 0
        # Guards the cross-call session state that individual cache
        # locks cannot: the queries_run counter and the mutation
        # rebind.  Concurrent ``evaluate`` calls snapshot the evaluator
        # (and through it the artifact unit) once at entry; an
        # in-flight query finishes against the pre-mutation relation
        # and writes only into the unit it snapshotted (see
        # docs/pipeline.md, "Session locking contract").
        self._state_lock = threading.RLock()
        self._bind(relation)

    def _bind(self, relation):
        """(Re)build the per-relation unit: content hash, artifact
        cache, evaluator.  Called at construction and after mutations.
        The evaluator carries its artifact cache, so publishing the
        evaluator publishes both in one assignment."""
        relation_hash = None
        if self._artifact_store is not None:
            from repro.relational.content_hash import relation_fingerprint

            relation_hash = relation_fingerprint(relation)
        self._evaluator = PackageQueryEvaluator(
            relation,
            artifacts=ArtifactCache(
                store=self._artifact_store, relation_hash=relation_hash
            ),
        )

    @property
    def artifacts(self):
        """The current relation's :class:`ArtifactCache`."""
        return self._evaluator.artifacts

    @property
    def store(self):
        """The durable artifact store, or ``None``."""
        return self._artifact_store

    @property
    def relation_hash(self):
        """The relation's content hash (``None`` without a store)."""
        return self.artifacts.relation_hash

    def close(self):
        """Release pooled resources (a session-owned durable store's
        counters are flushed).  Idempotent; the session stays usable."""
        if self._owns_store and self._artifact_store is not None:
            self._artifact_store.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    @property
    def relation(self):
        return self._evaluator.relation

    @property
    def evaluator(self):
        """The session's long-lived evaluator (shared shard caches)."""
        return self._evaluator

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, query_or_text, options=None):
        """Evaluate with artifact reuse; replay exact repeats validated.

        Returns an :class:`~repro.core.result.EvaluationResult`.  On a
        result-cache replay, ``stats["session"]`` records the hit and
        the package has been re-validated against the query by the
        same oracle gate the engine runs — a replay can fail loudly,
        never silently return a wrong answer.
        """
        return self._evaluate(query_or_text, options, replay=True)

    def _evaluate(self, query_or_text, options, replay):
        options = options or self._options
        started = time.perf_counter()
        # Snapshot the per-relation unit once: a concurrent mutation
        # rebinds the session, but this call completes coherently
        # against the relation it started with — and stores its result
        # in that relation's cache and store scope, never the new one's.
        evaluator = self._evaluator
        artifacts = evaluator.artifacts
        snapshot = self._store_snapshot()
        query = evaluator.prepare(query_or_text)
        key = artifacts.result_key(query, options)
        if replay and self._reuse_results:
            cached = artifacts.results.get(key)
            if cached is not None:
                result = self._replay(cached, started, evaluator)
                self._count_query()
                self._attach_store_delta(result, snapshot)
                return result
        result = evaluator.evaluate(query, options)
        self._count_query()
        if self._reuse_results:
            artifacts.results.put(key, self._cacheable(result))
        self._attach_store_delta(result, snapshot)
        return result

    def _count_query(self):
        with self._state_lock:
            self.queries_run += 1

    def _store_snapshot(self):
        if self._artifact_store is None:
            return None
        return self._artifact_store.snapshot()

    def _attach_store_delta(self, result, snapshot):
        """Record this query's durable-store activity as
        ``stats["artifacts"]`` (hits/misses/writes/rejections since the
        query started)."""
        if snapshot is None:
            return
        current = self._artifact_store.snapshot()
        result.stats["artifacts"] = {
            field: current[field] - snapshot[field] for field in current
        }

    @staticmethod
    def _cacheable(result):
        return _CachedResult(
            counts=(
                result.package.counts
                if result.package is not None
                else None
            ),
            status=result.status,
            strategy=result.strategy,
            query=result.query,
            objective=result.objective,
            candidate_count=result.candidate_count,
            bounds=result.bounds,
            # One pickled blob, loaded afresh on each replay: the stats
            # tree holds nested dicts/lists, and a caller mutating a
            # returned result must never corrupt the cache.  Pickling
            # these plain containers is a deep copy at a fraction of
            # the cost of copy.deepcopy.
            stats=pickle.dumps(result.stats, protocol=pickle.HIGHEST_PROTOCOL),
        )

    @staticmethod
    def _replay(cached, started, evaluator):
        """Rebuild a cached outcome; re-validate through the oracle gate."""
        from repro.core.package import Package

        package = None
        if cached.counts is not None:
            package = Package(evaluator.relation, dict(cached.counts))
        if isinstance(cached.stats, bytes):
            stats = pickle.loads(cached.stats)
        else:
            # An entry stored before the stats became a pickled blob.
            stats = copy.deepcopy(cached.stats)
        # The stage records describe the *original* run — this
        # invocation executed nothing but the oracle re-validation, so
        # relabel them (their timings are the first run's, which is
        # what e.g. an EXPLAIN of a replayed statement should show,
        # honestly marked).
        for entry in stats.get("stages", ()):
            entry["mode"] = "cached"
        result = EvaluationResult(
            package=package,
            status=cached.status,
            strategy=cached.strategy,
            query=cached.query,
            objective=cached.objective,
            candidate_count=cached.candidate_count,
            bounds=cached.bounds,
            stats=stats,
        )
        # The engine's own validation gate: raises EngineError on any
        # invalid replay and recomputes the objective from the package
        # (so a replayed objective is always the validator's number).
        evaluator._check(result)
        result.stats["session"] = {"result_cache": "hit"}
        result.elapsed_seconds = time.perf_counter() - started
        return result

    # -- planning and explain ------------------------------------------------

    def plan(self, query_or_text, options=None):
        """``repro plan`` over the session's evaluator and caches."""
        from repro.core.plan import plan

        options = options or self._options
        evaluator = self._evaluator
        query = evaluator.prepare(query_or_text)
        return plan(query, evaluator.relation, options=options, evaluator=evaluator)

    def explain(self, query_or_text, options=None, execute=True):
        """The staged-pipeline view of one query.

        Returns ``(result_or_plan, table_lines)`` where the table is
        the rendered stage records: stage, fixpoint round, rows in/out,
        wall-clock, and skip reasons.  ``execute=True`` (default) runs
        the query for real — timings are measured, the result is
        returned; ``execute=False`` simulates (the ``plan()`` path, no
        solving).  Executed explains bypass the result cache so the
        stage timings are real, but they still warm it.
        """
        from repro.core.ir import stage_table

        if execute:
            result = self._evaluate(query_or_text, options, replay=False)
            table = stage_table(
                result.stats["stages"],
                parallel=result.stats.get("parallel"),
                artifacts=result.stats.get("artifacts"),
            )
            return result, table
        report = self.plan(query_or_text, options)
        return report, stage_table(report.stages)

    # -- mutation ------------------------------------------------------------

    def append_rows(self, rows):
        """Append ``rows`` to the session's relation; keep warm state.

        Returns the :class:`~repro.relational.sharding.MutationReport`
        naming the touched shards.  The relation is replaced (relations
        are immutable), relation-scoped caches re-key under the new
        content hash, and — with a durable store — the per-shard WHERE
        partials of the untouched shards are rediscovered by content
        fingerprint, so only the dirty shards rescan.

        Shard layout stays *aligned*: appended rows extend the last
        shard, keeping every other shard's boundaries and content
        bit-identical.  Not supported on a sql-backed relation.
        """
        return self._mutate("append", rows)

    def delete_rows(self, rids):
        """Delete the rows at indices ``rids``; see :meth:`append_rows`.

        Shards containing a deleted rid shrink; every other shard
        keeps its exact content (shard fingerprints are
        position-independent, so their stored artifacts stay live).
        """
        return self._mutate("delete", rids)

    def _mutate(self, kind, payload):
        with self._state_lock:
            if getattr(self._evaluator.relation, "is_sql_backed", False):
                from repro.core.result import EngineError

                raise EngineError(
                    "session mutation is not supported on a sql-backed "
                    "relation (mutate the backing store and reopen)"
                )
            sharded = self._evaluator.sharded_relation(
                max(1, self._options.shards)
            )
            if kind == "append":
                sharded, report = sharded.append(payload)
            else:
                sharded, report = sharded.delete(payload)
            # Rebind the per-relation unit: a new evaluator (kernels
            # recompile via evaluator_for's weak map) carrying a new
            # artifact cache — every in-memory layer starts empty and
            # the new relation hash scopes the durable relation-level
            # layers.  In-flight queries that snapshotted the old
            # evaluator finish against the pre-mutation relation and
            # write into the retired cache.
            self._bind(sharded.relation)
            self._evaluator.adopt_sharded(sharded)
            return report

    # -- bookkeeping --------------------------------------------------------

    def cache_stats(self):
        """Hit/miss/entry counters for every cache layer (including
        the durable store's, when one is attached)."""
        stats = self.artifacts.stats()
        stats["queries_run"] = self.queries_run
        return stats

    def invalidate(self):
        """Drop every in-memory cached artifact and result (the durable
        store is untouched — use ``store.clear()`` for that; this
        exists for tests and for reclaiming memory mid-session)."""
        self.artifacts.clear()
