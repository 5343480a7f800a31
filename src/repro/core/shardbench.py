"""The shared sharded-scan benchmark harness.

One implementation behind two front ends — ``repro shard-bench`` (the
CLI) and ``benchmarks/bench_e12_sharded.py`` (the CI experiment) — so
the number a user reproduces locally is computed exactly the way CI
computes it.

The workload is the E12 shape: 100k append-ordered rows
(:func:`repro.datasets.clustered_relation`), a selective WHERE whose
``ts`` band covers ~7% of the data, and a SUM-constrained package
query, so one timed pipeline pass exercises the sharded WHERE kernels,
zone-map skipping, *and* the pruner's per-shard statistics.  Timings
take the best of ``repeats`` runs after a warmup pass (kernel
compilation and zone statistics are one-time costs both paths share).

Besides the timings, :func:`run_shard_bench` verifies — on every run —
that the sharded pipeline's candidate list is *identical* (values and
order) to the single-pass list and that the full evaluation returns
the same package, objective, and bounds.  The benchmark asserts these,
so a merge/ordering divergence fails CI rather than shipping.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.core.engine import EngineOptions, PackageQueryEvaluator
from repro.datasets import clustered_relation

__all__ = [
    "SCALING_BENCH_QUERY",
    "SHARD_BENCH_QUERY",
    "run_scaling_bench",
    "run_shard_bench",
    "write_record",
]

#: The E12 workload: a selective ts band over append-ordered data plus
#: a SUM global constraint (so pruning statistics run in the timed
#: stage too).
SHARD_BENCH_QUERY = """
SELECT PACKAGE(R) FROM Readings R
WHERE R.ts BETWEEN 42 AND 49 AND R.cost + R.weight <= 160
SUCH THAT COUNT(*) = 5 AND SUM(R.cost) <= 400
MAXIMIZE SUM(R.gain)
"""


def _best_of(fn, repeats):
    """Best wall-clock of ``repeats`` runs (noise-robust point estimate)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _attach_overhead(relation, workers):
    """Time the shm export/attach/warm setup and its teardown.

    Returns ``(attach_seconds, teardown_seconds)`` — the one-time cost
    the shm-process backend pays before its first task, and the
    unlink-on-close cost — or ``(None, None)`` when shared memory is
    unavailable on this platform.
    """
    from repro.core.parallel import ShmExecutionContext, ShmUnavailable

    started = time.perf_counter()
    try:
        ctx = ShmExecutionContext.create(relation, workers)
    except ShmUnavailable:
        return None, None
    try:
        ctx.warm()
        attach_seconds = time.perf_counter() - started
    except ShmUnavailable:
        # Export worked but the spawn pool cannot boot here (e.g. no
        # importable __main__); the engine degrades the same way.
        attach_seconds = None
    finally:
        started = time.perf_counter()
        ctx.close()
        teardown_seconds = time.perf_counter() - started
    return (
        attach_seconds,
        teardown_seconds if attach_seconds is not None else None,
    )


def run_shard_bench(n=100000, shards=8, workers=0, repeats=5, relation=None,
                    backend="thread"):
    """Time the scan pipeline sharded versus single-pass.

    Args:
        n: workload size (rows).
        shards: shard count for the sharded side.
        workers: worker threads (0 = one per CPU).
        repeats: timing repetitions; the best run counts.
        relation: override the generated workload relation (tests).
        backend: parallel backend for the sharded side (``thread`` |
            ``shm-process`` | ``serial``); shm-process also reports
            its one-time attach/teardown overhead.

    Returns:
        A dict of claim-relevant numbers: per-side seconds, the
        speedup, zone-skip counts, candidate counts, and the parity
        verdicts ``candidates_identical`` / ``results_identical``.
    """
    relation = relation if relation is not None else clustered_relation(n, seed=12)
    evaluator = PackageQueryEvaluator(relation)
    query = evaluator.prepare(SHARD_BENCH_QUERY)

    plain = EngineOptions()
    sharded = EngineOptions(
        shards=shards, workers=workers, parallel_backend=backend
    )

    # Warmup: compile kernels, materialize column arrays and zone
    # statistics — one-time costs shared by both sides.
    baseline_ctx = evaluator.context(query, plain)
    sharded_ctx = evaluator.context(query, sharded)

    # The headline metric is the WHERE scan (candidate generation) —
    # the stage sharding parallelizes; the full pipeline (scan +
    # bound derivation) rides along as the end-to-end number.
    unsharded_seconds = _best_of(
        lambda: evaluator._candidates_with_path(query, plain), repeats
    )
    sharded_seconds = _best_of(
        lambda: evaluator._candidates_with_path(query, sharded), repeats
    )
    unsharded_pipeline_seconds = _best_of(
        lambda: evaluator.context(query, plain), repeats
    )
    sharded_pipeline_seconds = _best_of(
        lambda: evaluator.context(query, sharded), repeats
    )

    candidates_identical = (
        baseline_ctx.candidate_rids == sharded_ctx.candidate_rids
        and baseline_ctx.bounds == sharded_ctx.bounds
    )

    plain_result = evaluator.evaluate(query, plain)
    sharded_result = evaluator.evaluate(query, sharded)
    results_identical = (
        plain_result.status is sharded_result.status
        and plain_result.objective == sharded_result.objective
        and (plain_result.package is None) == (sharded_result.package is None)
        and (
            plain_result.package is None
            or plain_result.package.counts == sharded_result.package.counts
        )
    )

    attach_seconds = teardown_seconds = None
    if backend == "shm-process":
        attach_seconds, teardown_seconds = _attach_overhead(
            relation, workers
        )
    evaluator.close()

    return {
        "n": len(relation),
        "shards": shards,
        "workers": workers,
        "backend": backend,
        "attach_seconds": attach_seconds,
        "teardown_seconds": teardown_seconds,
        "shard_info": sharded_ctx.shard_info,
        "candidates": len(baseline_ctx.candidate_rids),
        "unsharded_seconds": unsharded_seconds,
        "sharded_seconds": sharded_seconds,
        "speedup": unsharded_seconds / max(sharded_seconds, 1e-12),
        "unsharded_pipeline_seconds": unsharded_pipeline_seconds,
        "sharded_pipeline_seconds": sharded_pipeline_seconds,
        "pipeline_speedup": unsharded_pipeline_seconds
        / max(sharded_pipeline_seconds, 1e-12),
        "candidates_identical": candidates_identical,
        "results_identical": results_identical,
        "where_path": sharded_ctx.where_path,
        "strategy": sharded_result.strategy,
        "objective": sharded_result.objective,
    }


#: The E15 workload: predicates over the *uniform* (non-clustered)
#: columns only, so zone maps cannot skip shards and every shard's
#: scan does real work — the shape where backend scaling, not
#: skipping, is what's measured.
SCALING_BENCH_QUERY = """
SELECT PACKAGE(R) FROM Readings R
WHERE R.cost + R.weight <= 60 AND R.gain >= 20
SUCH THAT COUNT(*) = 5 AND SUM(R.cost) <= 150
MAXIMIZE SUM(R.gain)
"""


def run_scaling_bench(
    n=1000000,
    shards=8,
    worker_counts=(1, 2, 4, 8),
    backends=("thread", "shm-process"),
    repeats=3,
    relation=None,
):
    """The E15 scan-scaling curves: seconds per (backend, workers).

    One evaluator per backend keeps its worker pool warm across the
    curve (the shm context rebuilds itself when the worker count
    changes; pool startup is paid in the warmup pass, never in the
    timed best-of).  Every configuration's candidate list is compared
    against the serial single-pass baseline — values *and* order —
    and the highest-worker configuration per backend additionally runs
    the full evaluation for package/objective/bounds parity.

    Returns a dict with the serial baseline, per-backend curves
    (``seconds``, ``speedup_vs_serial`` per worker count, attach
    overhead for shm-process), and the overall ``parity`` verdict.
    """
    relation = (
        relation if relation is not None else clustered_relation(n, seed=15)
    )
    plain = EngineOptions()

    baseline_evaluator = PackageQueryEvaluator(relation)
    query = baseline_evaluator.prepare(SCALING_BENCH_QUERY)
    baseline_ctx = baseline_evaluator.context(query, plain)
    serial_seconds = _best_of(
        lambda: baseline_evaluator._candidates_with_path(query, plain),
        repeats,
    )
    baseline_result = baseline_evaluator.evaluate(query, plain)
    baseline_evaluator.close()

    parity = True
    curves = {}
    for backend in backends:
        evaluator = PackageQueryEvaluator(relation)
        curve = {"workers": list(worker_counts), "seconds": [],
                 "speedup_vs_serial": [], "candidates_identical": []}
        for workers in worker_counts:
            options = EngineOptions(
                shards=shards, workers=workers, parallel_backend=backend
            )
            ctx = evaluator.context(query, options)  # warmup
            identical = (
                ctx.candidate_rids == baseline_ctx.candidate_rids
                and ctx.bounds == baseline_ctx.bounds
            )
            seconds = _best_of(
                lambda: evaluator._candidates_with_path(query, options),
                repeats,
            )
            curve["seconds"].append(seconds)
            curve["speedup_vs_serial"].append(
                serial_seconds / max(seconds, 1e-12)
            )
            curve["candidates_identical"].append(identical)
            parity = parity and identical
        final = EngineOptions(
            shards=shards,
            workers=worker_counts[-1],
            parallel_backend=backend,
        )
        result = evaluator.evaluate(query, final)
        results_identical = (
            result.status is baseline_result.status
            and result.objective == baseline_result.objective
            and (result.package is None) == (baseline_result.package is None)
            and (
                result.package is None
                or result.package.counts == baseline_result.package.counts
            )
        )
        curve["results_identical"] = results_identical
        parity = parity and results_identical
        if backend == "shm-process":
            attach_seconds, teardown_seconds = _attach_overhead(
                relation, worker_counts[-1]
            )
            curve["attach_seconds"] = attach_seconds
            curve["teardown_seconds"] = teardown_seconds
        evaluator.close()
        curves[backend] = curve

    return {
        "experiment": "E15",
        "n": len(relation),
        "shards": shards,
        "serial_seconds": serial_seconds,
        "candidates": len(baseline_ctx.candidate_rids),
        "where_path": baseline_ctx.where_path,
        "curves": curves,
        "parity": parity,
    }


def write_record(outcome, path):
    """Write an outcome dict as a machine-readable JSON perf record."""
    target = pathlib.Path(path)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(outcome, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
