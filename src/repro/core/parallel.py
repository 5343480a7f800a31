"""Deterministic parallel execution for shard- and column-level work.

The sharding subsystem (:mod:`repro.relational.sharding`) decomposes
scans into independent per-shard tasks; the candidate-column gather
and the partition strategy's binning decompose into independent
per-column tasks.  All of them dispatch through :func:`parallel_map`,
an ordered ``map`` whose one setting is the worker count.

Design rules, in priority order:

1. **Determinism.**  Results come back in input order regardless of
   completion order or worker count — parallelism must never change
   what a query returns (the shard parity suite pins this).
2. **Serial fallback.**  One worker or one task runs the plain Python
   loop and creates no pool — identical results, zero pool overhead.
   A thread pool that cannot start also runs the loop, and that
   degradation is *recorded* through :func:`note_parallel_event`, so
   ``stats["parallel"]`` and ``repro explain`` show why a run got
   1-core performance instead of hiding it.
3. **Exception transparency.**  The first (lowest-index) task failure
   propagates, exactly as the serial loop would raise it.

Threads suffice: the hot per-task work is numpy kernels, which release
the GIL on large arrays.
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "chunk_slices",
    "collect_parallel_events",
    "effective_workers",
    "note_parallel_event",
    "parallel_map",
]


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
    """Context manager collecting thread-pool degradation events.

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


def note_parallel_event(fallback):
    """Record why a thread pool fell back to the serial loop."""
    events = getattr(_EVENT_SINK, "events", None)
    if events is None:
        return
    entry = {"fallback": fallback}
    if entry not in events:
        events.append(entry)


def parallel_map(fn, items, workers=0):
    """``[fn(item) for item in items]``, on threads when worth it.

    Args:
        fn: the per-item task.
        items: independent inputs.
        workers: requested workers; ``0`` means one per available CPU,
            ``1`` runs the plain loop.  :func:`effective_workers`
            resolves it against the task count, and a resolved count
            of 1 never creates a pool.

    Results are returned in input order (deterministic merge); the
    lowest-index failure raises first, like the serial loop.

    Tasks run exactly once — except when the pool *infrastructure*
    itself fails (a thread refusing to start), where a task that
    already reached a worker may run again on the serial fallback.
    Callers passing impure tasks must tolerate that pool-failure replay.
    """
    items = list(items)
    workers = effective_workers(workers, len(items))
    if workers == 1:
        return [fn(item) for item in items]
    return _thread_map(fn, items, workers)


def _thread_map(fn, items, workers):
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
        note_parallel_event(f"thread pool unavailable ({exc}); ran serially")
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
                f"thread start failed mid-submission ({exc}); "
                "remainder ran serially",
            )
            if not futures:
                return [fn(item) for item in items]
            done = [future.result() for future in futures]
            return done + [fn(item) for item in items[len(futures):]]
        return [future.result() for future in futures]
