"""E15 — zero-copy shared-memory multi-core execution (shm-process).

Claim shape: the thread backend scales until the interpreter
serializes it; real multi-core scaling needs processes, and processes
historically paid per-task pickling of the data.  The shm-process
backend exports the relation's column arrays into one shared-memory
segment *once*; spawn workers attach at pool init and rebuild
zero-copy numpy views, so per-task IPC is a compiled spec measured in
bytes — never rows.

Acceptance bar (only meaningful with real cores; skipped below 4):
the shm-process scan reaches >= 3x at 8 workers over its own 1-worker
run on the 1M-row uniform workload, and the thread backend plateaus
below shm-process at 8 workers.  This is the one measurement paqlbench
(``bench/run.py``) cannot express: it needs a >= 4-core host.

Parity of every (backend, workers) configuration against the serial
run is asserted by the curve itself and, on every push, by
``tests/test_sharding.py`` and ``tests/test_shm.py``; the O(KB)
handle and task-spec pickling bound by
``tests/test_shm.py::TestHandle::test_handle_pickles_under_4kb``.

``REPRO_E15_N`` shrinks the workload (the gate then skips itself);
``benchmarks/BENCH_e15.json`` is a recorded curve from a small host.
"""

import os
import time

import pytest

from repro.core.engine import EngineOptions, PackageQueryEvaluator
from repro.core.parallel import available_cpus
from repro.datasets import clustered_relation
from repro.relational import shm

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="no shared memory on this host"
)

CORES = available_cpus()
E15_N = int(os.environ.get("REPRO_E15_N", "1000000"))

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
    unlink-on-close cost — or ``(None, None)`` when the pool cannot
    start on this platform.
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


def _same_result(left, right):
    return (
        left.status is right.status
        and left.objective == right.objective
        and (left.package is None) == (right.package is None)
        and (left.package is None or left.package.counts == right.package.counts)
    )


def run_scaling_bench(
    n=1000000,
    shards=8,
    worker_counts=(1, 2, 4, 8),
    backends=("thread", "shm-process"),
    repeats=3,
):
    """The E15 scan-scaling curves: seconds per (backend, workers).

    One evaluator per backend keeps its worker pool warm across the
    curve (the shm context rebuilds itself when the worker count
    changes; pool startup is paid in the warmup pass, never in the
    timed best-of).  Every configuration's candidate list is compared
    against the serial single-pass baseline — values *and* order —
    and the highest-worker configuration per backend additionally runs
    the full evaluation for package/objective parity.

    Returns a dict with the serial baseline, per-backend curves
    (``seconds``, ``speedup_vs_serial`` per worker count, attach
    overhead for shm-process), and the overall ``parity`` verdict.
    """
    relation = clustered_relation(n, seed=15)
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
        curve["results_identical"] = _same_result(
            evaluator.evaluate(query, final), baseline_result
        )
        parity = parity and curve["results_identical"]
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


@pytest.mark.skipif(
    CORES < 4,
    reason=f"scaling gate needs >= 4 cores (host grants {CORES})",
)
@pytest.mark.skipif(
    E15_N < 1000000,
    reason="the >=3x claim is defined on the 1M-row workload; "
    "REPRO_E15_N shrank it",
)
def test_shm_scan_scaling(benchmark):
    """>= 3x at 8 workers on the 1M-row scan; threads plateau below."""
    outcome = benchmark.pedantic(
        lambda: run_scaling_bench(
            n=E15_N,
            shards=8,
            worker_counts=(1, 2, 4, 8),
            backends=("thread", "shm-process"),
            repeats=3,
        ),
        rounds=1,
        iterations=1,
    )
    assert outcome["parity"]
    shm_curve = outcome["curves"]["shm-process"]
    thread_curve = outcome["curves"]["thread"]
    scaling = shm_curve["seconds"][0] / max(shm_curve["seconds"][-1], 1e-12)
    assert scaling >= 3.0, (
        f"shm-process scan only {scaling:.2f}x from 1 to 8 workers "
        f"(curve: {[f'{s * 1e3:.1f}ms' for s in shm_curve['seconds']]})"
    )
    assert shm_curve["seconds"][-1] <= thread_curve["seconds"][-1], (
        "the thread backend out-scaled shm-process at 8 workers — the "
        "zero-copy path is not paying for itself"
    )
    assert shm_curve["attach_seconds"] is not None
    benchmark.extra_info.update(outcome)
