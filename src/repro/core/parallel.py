"""Deterministic parallel execution for shard- and partition-level work.

The sharding subsystem (:mod:`repro.relational.sharding`) decomposes
scans into independent per-shard tasks; the partition strategy's
refinement waves decompose into independent per-partition ILPs.  Both
dispatch through this module, which provides exactly one execution
abstraction: an ordered ``map`` over independent tasks.

Design rules, in priority order:

1. **Determinism.**  Results come back in input order regardless of
   completion order, worker count, or backend — parallelism must never
   change what a query returns (the shard parity suite pins this).
2. **Serial fallback.**  One worker, one task, an unavailable pool, or
   ``backend="serial"`` all run the plain Python loop — identical
   results, zero pool overhead, and the engine stays dependency-free
   on constrained hosts.  Every degradation is *recorded*: a fallback
   notes ``(backend, reason)`` through :func:`note_parallel_event`, so
   ``stats["parallel"]`` and ``repro explain`` show why a run got
   1-core performance instead of hiding it.
3. **Exception transparency.**  The first (lowest-index) task failure
   propagates, exactly as the serial loop would raise it.

Backends:

* ``thread`` (default) — the hot per-task work is numpy kernels, which
  release the GIL on large arrays.
* ``shm-process`` — the zero-copy multi-core path: a persistent
  spawn-safe :class:`ShmPool` whose workers attach *once* to a
  relation exported through :mod:`repro.relational.shm`, then receive
  only compiled task specs — per-task IPC is bytes, never the
  relation.  Owned by an :class:`ShmExecutionContext` (engine /
  session lifetime); every failure mode degrades to the thread
  backend with a recorded event.
* ``serial`` — always the plain loop.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.core import faults
from repro.core.cache import BoundedCache

__all__ = [
    "ExecutorPool",
    "ParallelOptions",
    "ShmExecutionContext",
    "ShmPool",
    "ShmUnavailable",
    "chunk_slices",
    "collect_parallel_events",
    "effective_workers",
    "note_parallel_event",
    "parallel_map",
    "pool_backend",
    "shm_worker_state",
]

#: Recognized ``ParallelOptions.backend`` spellings (``shm-process`` is
#: dispatched by the engine through :class:`ShmExecutionContext`, and
#: maps to ``thread`` inside the ordinary pool — see :func:`pool_backend`).
BACKENDS = ("thread", "serial")

#: Engine-level backend spellings (``EngineOptions.parallel_backend``).
ENGINE_BACKENDS = ("thread", "shm-process", "serial")


def available_cpus():
    """CPUs this process may actually run on.

    Prefers the scheduler affinity mask (which cgroup/container limits
    and ``taskset`` shrink) over the raw ``os.cpu_count()``; falls back
    where affinity is unsupported (macOS, Windows).
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def effective_workers(workers, task_count):
    """Resolve a worker request against the machine and the task count.

    Args:
        workers: requested workers; ``0`` means one per *available*
            CPU (the affinity mask, not the raw core count).
        task_count: how many independent tasks there are.

    Returns:
        The worker count actually worth spawning: never more than
        ``task_count``, never less than 1.
    """
    if task_count <= 1:
        return 1
    if workers <= 0:
        workers = available_cpus()
    return max(1, min(workers, task_count))


def chunk_slices(total, chunks):
    """Split ``range(total)`` into ``chunks`` contiguous near-equal slices.

    The first ``total % chunks`` slices carry one extra element, so
    sizes differ by at most one.  Slices past ``total`` come back empty
    (``chunks`` is honored exactly, which keeps shard numbering stable
    when ``chunks > total``).
    """
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    base, extra = divmod(total, chunks)
    out = []
    start = 0
    for index in range(chunks):
        stop = start + base + (1 if index < extra else 0)
        out.append(slice(start, stop))
        start = stop
    return out


# -- degradation events -------------------------------------------------------

_EVENT_SINK = threading.local()


class collect_parallel_events:
    """Context manager collecting backend-degradation events into a list.

    The engine wraps each evaluation in one of these and publishes the
    collected entries as ``stats["parallel"]``; outside a collector,
    :func:`note_parallel_event` is a no-op.  Entries are deduplicated
    (the same fallback firing at several pipeline stages reads as one
    fact, not noise).
    """

    def __init__(self, sink):
        self._sink = sink
        self._previous = None

    def __enter__(self):
        self._previous = getattr(_EVENT_SINK, "events", None)
        _EVENT_SINK.events = self._sink
        return self._sink

    def __exit__(self, *exc_info):
        _EVENT_SINK.events = self._previous
        return False


def note_parallel_event(backend, fallback, task=None):
    """Record one backend degradation: which backend, why it fell back."""
    events = getattr(_EVENT_SINK, "events", None)
    if events is None:
        return
    entry = {"backend": backend, "fallback": fallback}
    if task is not None:
        entry["task"] = task
    if entry not in events:
        events.append(entry)


def pool_backend(options):
    """The :class:`ExecutorPool` backend for an ``EngineOptions``.

    ``shm-process`` is dispatched by the engine through its
    :class:`ShmExecutionContext`; whenever shard work reaches the
    ordinary pool instead (context creation failed, non-shard-parallel
    stages), threads are its degradation target.
    """
    backend = getattr(options, "parallel_backend", "thread")
    return "thread" if backend == "shm-process" else backend


@dataclass(frozen=True)
class ParallelOptions:
    """How to run independent tasks.

    Attributes:
        workers: worker count; ``0`` means one per CPU, ``1`` forces
            the serial loop.
        backend: ``thread`` (default; numpy kernels release the GIL)
            or ``serial`` (always the plain loop).
    """

    workers: int = 0
    backend: str = "thread"

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r} (choose from {BACKENDS})"
            )


class ExecutorPool:
    """An ordered-map executor with a guaranteed serial fallback.

    One instance may be reused across calls; pools are created lazily
    per ``map`` and torn down with it (worker lifetimes never outlive
    the work, so there is nothing to leak across evaluations).
    """

    def __init__(self, options=None):
        self._options = options or ParallelOptions()

    @property
    def options(self):
        return self._options

    def map(self, fn, items):
        """``[fn(item) for item in items]`` with parallel execution.

        Results are returned in input order (deterministic merge); the
        lowest-index failure raises first, like the serial loop.

        Tasks run exactly once — except when the pool *infrastructure*
        itself fails (a thread refusing to start), where a task that
        already reached a worker may run again on the serial fallback.  Callers passing impure tasks
        must tolerate that pool-failure replay.
        """
        items = list(items)
        workers = effective_workers(self._options.workers, len(items))
        if workers == 1 or self._options.backend == "serial":
            return [fn(item) for item in items]
        return self._thread_map(fn, items, workers)

    def _thread_map(self, fn, items, workers):
        # The serial fallback covers pool/thread-start failures ONLY —
        # an exception raised by a task must propagate (rule 3), never
        # trigger a silent serial re-run of the whole workload.  Task
        # errors surface from future.result(), which submission-order
        # iteration raises lowest-index-first, exactly like the serial
        # loop.
        from concurrent.futures import ThreadPoolExecutor

        try:
            pool = ThreadPoolExecutor(max_workers=workers)
        except RuntimeError as exc:
            note_parallel_event(
                "thread", f"thread pool unavailable ({exc}); ran serially"
            )
            return [fn(item) for item in items]
        with pool:
            futures = []
            try:
                for item in items:
                    futures.append(pool.submit(fn, item))
            except RuntimeError as exc:
                # Thread-start failure mid-submission (threads spawn
                # lazily per submit).  Already-submitted futures may be
                # running or done — harvest them instead of re-running
                # their items, and run only the unsubmitted remainder
                # serially.  If nothing was submitted, no worker thread
                # exists and the whole list runs serially.  Only the
                # single item whose submit raised can ever replay (its
                # work item may have been queued before the thread
                # start failed) — the documented pool-failure caveat.
                note_parallel_event(
                    "thread",
                    f"thread start failed mid-submission ({exc}); "
                    "remainder ran serially",
                )
                if not futures:
                    return [fn(item) for item in items]
                done = [future.result() for future in futures]
                return done + [fn(item) for item in items[len(futures):]]
            return [future.result() for future in futures]


def parallel_map(fn, items, workers=0, backend="thread"):
    """One-shot ordered parallel map (see :class:`ExecutorPool`)."""
    return ExecutorPool(ParallelOptions(workers=workers, backend=backend)).map(
        fn, items
    )


# -- the shm-process backend --------------------------------------------------


class ShmUnavailable(RuntimeError):
    """The shm-process path cannot run (callers degrade to threads)."""


class _ShmWorkerState:
    """Per-worker-process state: the attached relation and derived views."""

    def __init__(self, relation):
        self._relation = relation
        self._sharded = {}
        self._scratch = BoundedCache(8, on_evict=_detach_scratch)

    @property
    def relation(self):
        """The zero-copy :class:`~repro.relational.shm.AttachedRelation`."""
        return self._relation

    def sharded(self, shards):
        """A cached zero-copy ``ShardedRelation`` view at ``shards``."""
        view = self._sharded.get(shards)
        if view is None:
            from repro.relational.sharding import ShardedRelation

            view = ShardedRelation(self._relation, shards)
            self._sharded[shards] = view
        return view

    def scratch_array(self, handle):
        """Attach (or reuse) a shared scratch array by handle.

        A small LRU of attachments: repeated tasks over the same
        candidate-rid export attach once per worker, not once per task.
        """
        entry = self._scratch.get(handle.segment)
        if entry is None:
            from repro.relational import shm as shm_mod

            entry = shm_mod.attach_array(handle)
            self._scratch.put(handle.segment, entry)
        return entry[0]


def _detach_scratch(_name, entry):
    _, segment = entry
    try:
        segment.close()
    except BufferError:
        pass


_WORKER_STATE = None


def _shm_worker_init(handle):
    """Pool initializer: attach to the shared relation exactly once.

    The ``shm.attach`` fault site fires here (workers arm from the
    ``REPRO_FAULTS`` environment at import); a failed attach breaks
    the pool, which the parent supervises — respawn, then threads.
    """
    global _WORKER_STATE
    from repro.relational.shm import attach_relation

    faults.fault_point("shm.attach")
    _WORKER_STATE = _ShmWorkerState(attach_relation(handle))


def _supervised_task(fn, spec):
    """Run one worker task under the ``pool.task`` fault site.

    Every shm task funnels through this wrapper, so a ``kill`` rule
    crashes the worker mid-wave (the parent sees ``BrokenProcessPool``)
    and an ``error`` rule raises inside the task — both recovery paths
    the supervisor must survive.
    """
    faults.fault_point("pool.task")
    return fn(spec)


def shm_worker_state():
    """The current worker's :class:`_ShmWorkerState` (task functions
    call this instead of receiving data in their spec)."""
    if _WORKER_STATE is None:
        raise RuntimeError("not inside a shm-process worker")
    return _WORKER_STATE


def _shm_probe_task(_spec):
    """No-op warmup task (forces worker spawn + attach)."""
    return os.getpid()


class ShmPool:
    """A persistent spawn-context pool attached to one shared relation.

    Workers run :func:`_shm_worker_init` once (attach, build state) and
    then serve ordered maps of ``(module-level task fn, spec)`` pairs —
    the fn pickles by reference, the spec is bytes.  Spawn (never fork)
    keeps the pool safe under threads and on every platform.
    """

    def __init__(self, handle, workers):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self._workers = max(1, int(workers))
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_shm_worker_init,
                initargs=(handle,),
            )
        except (OSError, RuntimeError, ValueError) as exc:
            raise ShmUnavailable(f"cannot start shm worker pool: {exc}") from exc
        self._broken = False

    @property
    def workers(self):
        return self._workers

    @property
    def broken(self):
        return self._broken

    def map(self, fn, specs):
        """Ordered map with lowest-index failure propagation.

        Task exceptions propagate as themselves (determinism rule 3);
        pool infrastructure death raises :class:`ShmUnavailable`, which
        callers turn into a recorded thread-backend fallback.
        """
        from concurrent.futures.process import BrokenProcessPool

        specs = list(specs)
        try:
            futures = [
                self._pool.submit(_supervised_task, fn, spec) for spec in specs
            ]
        except RuntimeError as exc:  # shut down, or spawn refused
            self._broken = True
            raise ShmUnavailable(f"cannot submit to shm pool: {exc}") from exc
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            # Pool infrastructure died; task exceptions propagate
            # as themselves above, exactly like the serial loop.
            self._broken = True
            raise ShmUnavailable(f"shm worker pool broke: {exc}") from exc

    def warm(self):
        """Spin up every worker (spawn + attach) ahead of timed work."""
        self.map(_shm_probe_task, range(self._workers))

    def close(self):
        # wait=True joins the worker processes before the caller
        # unlinks the segment — a worker still spawning must finish
        # (or fail) its attach first, not race an unlinked name.
        self._broken = True
        self._pool.shutdown(wait=True, cancel_futures=True)


class ShmExecutionContext:
    """Owns one relation's shared-memory export plus its worker pool.

    The engine (or session) holds exactly one of these per evaluator
    while ``parallel_backend="shm-process"`` is in force; ``close()``
    tears down the pool, every scratch export, and the relation
    segment (unlink included).  Also usable as a context manager.
    """

    #: Supervised recovery bounds: how many times a crashed pool is
    #: respawned over the context's lifetime, and how many retries one
    #: map attempts, before the recorded thread-backend fallback.
    RESPAWN_LIMIT = 2
    RESPAWN_BACKOFF_SECONDS = 0.05

    def __init__(self, export, pool):
        self._export = export
        self._pool = pool
        self._scratch = BoundedCache(
            4, on_evict=lambda _key, export: export.close()
        )
        self._closed = False
        # Supervision state: generation counts pool replacements so
        # concurrent mappers that all saw generation N crash elect one
        # respawner; _respawn_lock serializes the (slow) respawn itself.
        self._generation = 0
        self._respawns = 0
        self._respawn_lock = threading.Lock()
        # Concurrent serving callers share one context: the scratch
        # LRU is a read-modify-write structure (and evicting an export
        # a sibling is about to hand to workers would unlink it out
        # from under them), and close() racing a map must never free
        # the relation segment while tasks are being submitted.  The
        # lock serializes the bookkeeping; pool.map itself runs
        # outside it (ProcessPoolExecutor.submit is thread-safe).
        self._lock = threading.RLock()
        self._inflight = 0

    @classmethod
    def create(cls, relation, workers):
        """Export ``relation`` and start the worker pool.

        Raises:
            ShmUnavailable: shared memory or the pool cannot be set up
                (callers record the event and degrade to threads).
        """
        from repro.relational import shm as shm_mod

        resolved = max(1, effective_workers(workers, task_count=1 << 30))
        try:
            faults.fault_point("shm.export")
            export = shm_mod.export_relation(relation)
        except (shm_mod.SharedMemoryUnavailable, faults.InjectedFault) as exc:
            raise ShmUnavailable(str(exc)) from exc
        try:
            pool = ShmPool(export.handle, resolved)
        except ShmUnavailable:
            export.close()
            raise
        return cls(export, pool)

    @property
    def handle(self):
        """The relation's :class:`~repro.relational.shm.SharedRelationHandle`."""
        return self._export.handle

    @property
    def workers(self):
        return self._pool.workers

    @property
    def alive(self):
        return not self._closed and not self._pool.broken

    @property
    def busy(self):
        """Whether any thread is currently inside :meth:`map`."""
        with self._lock:
            return self._inflight > 0

    def map(self, fn, specs):
        """Ordered map over the persistent attached workers, supervised.

        Safe under concurrent callers; a close() racing this call
        surfaces as :class:`ShmUnavailable` (the caller's recorded
        thread fallback), never as a crash on freed memory.

        Supervision: when the pool infrastructure dies (a worker was
        killed mid-wave, an attach failed), the whole spec wave is
        retried on a freshly spawned pool — bounded by
        :data:`RESPAWN_LIMIT` respawns per context with doubling
        backoff, each recorded via :func:`note_parallel_event` — before
        :class:`ShmUnavailable` escapes to the caller's thread
        fallback.  Replaying the wave is sound because shm task specs
        are pure: workers read the immutable shared relation and
        return fresh values, so a re-run computes the identical result.
        """
        specs = list(specs)
        failure = None
        for attempt in range(self.RESPAWN_LIMIT + 1):
            with self._lock:
                if self._closed:
                    raise ShmUnavailable("shm execution context is closed")
                pool = self._pool
                generation = self._generation
                self._inflight += 1
            try:
                if pool.broken:
                    raise ShmUnavailable("shm worker pool broke")
                return pool.map(fn, specs)
            except ShmUnavailable as exc:
                failure = exc
            finally:
                with self._lock:
                    self._inflight -= 1
            if attempt >= self.RESPAWN_LIMIT:
                break
            self._respawn_pool(generation, attempt)
        raise failure

    def _respawn_pool(self, generation, attempt):
        """Replace a crashed pool (one respawner elected per crash).

        Raises :class:`ShmUnavailable` when the context is closed or
        the lifetime respawn budget is spent; returns silently when a
        sibling thread already respawned this generation (the caller
        simply retries on the new pool).
        """
        with self._respawn_lock:
            with self._lock:
                if self._closed:
                    raise ShmUnavailable("shm execution context is closed")
                if self._generation != generation:
                    return  # a sibling already replaced this pool
                if self._respawns >= self.RESPAWN_LIMIT:
                    raise ShmUnavailable(
                        f"shm worker pool crashed {self._respawns + 1} times; "
                        "respawn budget spent"
                    )
                self._respawns += 1
                broken = self._pool
            try:
                broken.close()
            except Exception:
                pass
            # Deterministic doubling backoff: give the OS a beat to
            # reap the dead workers before spawning replacements.
            time.sleep(self.RESPAWN_BACKOFF_SECONDS * (2 ** attempt))
            pool = ShmPool(self._export.handle, broken.workers)
            with self._lock:
                if self._closed:
                    closed_after = True
                else:
                    self._pool = pool
                    self._generation += 1
                    closed_after = False
            if closed_after:
                try:
                    pool.close()
                except Exception:
                    pass
                raise ShmUnavailable("shm execution context is closed")
            note_parallel_event(
                "shm-process",
                f"worker pool crashed; respawned "
                f"(retry {self._respawns}/{self.RESPAWN_LIMIT})",
            )

    def warm(self):
        if not self.alive:
            raise ShmUnavailable("shm execution context is closed")
        self._pool.warm()

    def shared_rids(self, rids):
        """Export a candidate-rid array once; reuse across stages.

        Keyed by content digest, so the pruner's and reducer's passes
        over the same candidate set ship the rids to workers exactly
        once per set (a small LRU bounds retained segments).
        """
        import numpy as np

        from repro.relational import shm as shm_mod
        from repro.relational.content_hash import rids_fingerprint

        array = np.ascontiguousarray(np.asarray(rids, dtype=np.intp))
        key = rids_fingerprint(array)
        # The context lock spans lookup, export and eviction: closing
        # an evicted export must stay serialized with handing a
        # sibling's handle to workers.
        with self._lock:
            if not self.alive:
                raise ShmUnavailable("shm execution context is closed")
            entry = self._scratch.get(key)
            if entry is None:
                try:
                    entry = shm_mod.export_array(array)
                except shm_mod.SharedMemoryUnavailable as exc:
                    raise ShmUnavailable(str(exc)) from exc
                self._scratch.put(key, entry)
            return entry.handle

    def close(self):
        """Tear down pool + exports; idempotent, unlinks every segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # Pool shutdown waits for in-flight work outside the lock (a
        # mapping thread must be able to decrement _inflight).
        try:
            self._pool.close()
        except Exception:
            pass
        # No entry can be added once _closed is set (shared_rids
        # checks it under the lock); clear() closes every export.
        self._scratch.clear()
        self._export.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
